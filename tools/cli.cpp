// ganopc — command-line driver for the mask-optimization flows.
//
//   ganopc synth    [--count N] [--seed S] [--out PREFIX]
//   ganopc sraf     --layout FILE [--out FILE]
//   ganopc eval     --layout FILE --mask FILE.pgm [--scale NAME] [--grid N]
//                   [--litho-backend abbe|tcc|tcc:K]
//   ganopc train    [--scale NAME] [--dataset FILE] [--out FILE.bin]
//                   [--checkpoint FILE] [--checkpoint-every N] [--resume FILE]
//                   [--pretrain-iters N] [--train-iters N]
//   ganopc optimize --layout FILE [--id NAME] [--scale NAME] [--grid N]
//                   [--iters N] [--generator FILE.bin] [--litho-backend SPEC]
//                   [--rung gan+ilt|ilt|mbopc] [--deadline-s SEC]
//                   [--max-retries N] [--fallback 0|1] [--accept-factor F]
//                   [--seed S] [--mask-out FILE.pgm]
//   ganopc batch    (--list FILE | --clips A,B,...) [--scale NAME] [--grid N]
//                   [--iters N] [--generator FILE.bin] [--journal FILE]
//                   [--resume FILE] [--manifest FILE.csv] [--deadline-s SEC]
//                   [--max-retries N] [--fallback 0|1] [--accept-factor F]
//                   [--deterministic-manifest 0|1] [--retry-backoff-s SEC]
//                   [--workers N] [--quarantine-kills K] [--task-deadline-s SEC]
//                   [--worker-mem-mb MB] [--worker-cpu-s SEC]
//                   [--litho-backend SPEC]
//   ganopc serve    [--port N | --socket PATH] [--host ADDR] [--port-file FILE]
//                   [--workers N] [--max-queue N] [--default-deadline-s SEC]
//                   [--max-deadline-s SEC] [--read-timeout-s SEC]
//                   [--write-timeout-s SEC] [--max-body-mb MB] [--max-conns N]
//                   [--breaker-kills K] [--breaker-cooldown-s SEC]
//                   [--drain-grace-s SEC] [--spool-dir DIR] [--scale NAME]
//                   [--grid N] [--iters N] [--generator FILE.bin]
//                   [--accept-factor F] [--max-retries N] [--fallback 0|1]
//                   [--quarantine-kills K] [--worker-mem-mb MB]
//                   [--worker-cpu-s SEC] [--litho-backend SPEC]
//   ganopc txt2gds  --layout FILE --out FILE.gds [--cell NAME] [--layer N]
//   ganopc gds2txt  --gds FILE.gds --out FILE.txt [--cell NAME] [--layer N]
//                   [--clipsize NM]
//
// Layout files use the text format of geom::Layout (clip/rect lines), GDSII
// (.gds extension, loaded with --clipsize window), or contest GLP; masks are
// 8-bit PGM at the simulation grid. `train` is crash-safe: Ctrl-C flushes a
// checkpoint that --resume continues from bit-identically (DESIGN.md §8).
//
// `optimize`, `batch` and `serve` all route through the same
// ganopc::engine::Engine session (DESIGN.md §15), so one clip produces
// bit-identical results no matter which front-end carried it in; `eval`
// scores a mask with that session's simulator. `optimize --rung NAME` runs
// exactly one rung of the degradation chain (it implies --fallback 0): the
// Figure 6 GAN-OPC flow is `--rung gan+ilt --generator FILE.bin`, plain ILT
// [7] is `--rung ilt --max-retries 0 --accept-factor 0`. The litho model
// behind any command is chosen with --litho-backend (DESIGN.md §15):
//   abbe    exact Abbe source-point kernels (the default, the reference)
//   tcc     TCC eigen-kernels auto-truncated at >= 99% captured energy
//   tcc:K   exactly K TCC eigen-kernels (caller owns the accuracy trade-off)
// `batch` is fault-tolerant: clips fail individually with typed codes in the
// manifest, and its journal makes a killed run resumable (DESIGN.md §9).
// With --workers N it adds *process* isolation (DESIGN.md §13): clips are
// dispatched to N sandboxed forked workers; a SIGSEGV/OOM/hang kills one
// worker (restarted with backoff), a clip that kills K workers in a row is
// quarantined with status Quarantined, and every crash a clip survives drops
// one rung off its GAN+ILT -> ILT -> MB-OPC degradation chain.
// Every command also accepts the observability flags (DESIGN.md §10-11):
//   --metrics-out FILE   Prometheus text snapshot (JSON when FILE is *.json)
//   --trace-out FILE     chrome://tracing span JSON
//   --ledger-out FILE    append-mode JSONL run ledger: run_start header with
//                        build version + config fingerprint, per-clip and
//                        per-iteration convergence events, run_end with a
//                        metrics snapshot; arms the flight recorder, which
//                        dumps FILE.crash.json on watchdog/fatal exits
// all default-off; enabling them costs one atomic flag check per site.
// `ganopc [<cmd>] --help` (or -h) prints the usage and exits 0; a malformed
// flag list (a bare word where a --flag belongs, a flag without its value)
// prints it to stderr and exits 2.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/prng.hpp"
#include "common/status.hpp"
#include "common/version.hpp"
#include "core/config.hpp"
#include "core/dataset.hpp"
#include "core/discriminator.hpp"
#include "core/generator.hpp"
#include "core/trainer.hpp"
#include "engine/batch_runner.hpp"
#include "engine/clip_io.hpp"
#include "engine/engine.hpp"
#include "geometry/raster.hpp"
#include "layout/synthesizer.hpp"
#include "litho/backend.hpp"
#include "litho/lithosim.hpp"
#include "metrics/printability.hpp"
#include "gds/gds.hpp"
#include "nn/serialize.hpp"
#include "obs/ledger.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "sraf/sraf.hpp"

namespace {

using namespace ganopc;

/// A malformed command line: main prints the usage and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

bool is_help_flag(const std::string& arg) { return arg == "--help" || arg == "-h"; }

class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      if (is_help_flag(key)) {
        help_ = true;
        continue;
      }
      if (key.rfind("--", 0) != 0) throw UsageError("expected --flag, got '" + key + "'");
      if (i + 1 >= argc) throw UsageError("missing value for " + key);
      values_[key.substr(2)] = argv[++i];
    }
  }

  /// --help or -h appeared in a flag position.
  bool help() const { return help_; }

  std::string get(const std::string& key, const std::string& fallback = "") const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      GANOPC_CHECK_MSG(!fallback.empty() || allow_empty_, "missing required --" << key);
      return fallback;
    }
    return it->second;
  }

  std::string require(const std::string& key) const {
    auto it = values_.find(key);
    GANOPC_CHECK_MSG(it != values_.end(), "missing required --" << key);
    return it->second;
  }

  int get_int(const std::string& key, int fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atoi(it->second.c_str());
  }

  double get_double(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

 private:
  std::map<std::string, std::string> values_;
  bool allow_empty_ = true;
  bool help_ = false;
};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Load a layout from text, GDSII, or contest GLP, by extension (the decode
// itself lives in engine/clip_io so every front-end agrees on the formats).
geom::Layout load_layout(const Args& args, const std::string& key = "layout") {
  return engine::load_layout_file(
      args.require(key), args.get_int("clipsize", 2048), args.get("cell", ""),
      static_cast<std::int16_t>(args.get_int("layer", 1)));
}

void dump(const geom::Grid& g, const std::string& name) {
  engine::write_mask_pgm(name, g);
  std::printf("wrote %s (%dx%d @%dnm)\n", name.c_str(), g.cols, g.rows, g.pixel_nm);
}

int cmd_synth(const Args& args) {
  const int count = args.get_int("count", 4);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1847));
  const std::string prefix = args.get("out", "clip");
  layout::SynthesisConfig cfg;
  const auto library = layout::synthesize_library(cfg, static_cast<std::size_t>(count),
                                                  seed);
  for (std::size_t i = 0; i < library.size(); ++i) {
    const std::string path = prefix + std::to_string(i) + ".txt";
    library[i].save(path);
    std::printf("wrote %s (%zu shapes, %ld nm^2)\n", path.c_str(), library[i].size(),
                static_cast<long>(library[i].union_area()));
  }
  return 0;
}

int cmd_sraf(const Args& args) {
  const geom::Layout clip = load_layout(args);
  const auto result = sraf::insert_srafs(clip);
  const std::string out = args.get("out", "decorated.txt");
  result.decorated.save(out);
  std::printf("inserted %zu scatter bars; wrote %s\n", result.bars.size(), out.c_str());
  return 0;
}

// Set by the SIGINT handler; the trainer polls it between iterations and
// flushes a final checkpoint before returning.
std::atomic<bool> g_stop{false};

extern "C" void handle_sigint(int) { g_stop.store(true); }

bool file_exists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

int cmd_train(const Args& args) {
  const core::GanOpcConfig cfg =
      core::make_config(core::parse_scale(args.get("scale", "quick")));
  const litho::LithoSim sim(cfg.optics, litho::ResistConfig{}, cfg.litho_grid,
                            cfg.litho_pixel_nm());

  const std::string dataset_path = args.get("dataset", "ganopc_dataset.bin");
  core::Dataset dataset;
  if (file_exists(dataset_path)) {
    dataset = core::Dataset::load(dataset_path, cfg);
    std::printf("loaded %zu cached examples from %s\n", dataset.size(),
                dataset_path.c_str());
  } else {
    std::printf("generating dataset (synthesis + ILT ground truth)...\n");
    dataset = core::Dataset::generate(cfg, sim);
    dataset.save(dataset_path);
    std::printf("cached %zu examples to %s\n", dataset.size(), dataset_path.c_str());
  }

  Prng rng(cfg.seed);
  core::Generator generator(cfg.gan_grid, cfg.base_channels, rng);
  core::Discriminator discriminator(cfg.gan_grid, cfg.base_channels, rng, true,
                                    cfg.d_dropout);
  Prng train_rng(cfg.seed + 1);
  core::GanOpcTrainer trainer(cfg, generator, discriminator, dataset, sim, train_rng);

  core::TrainRunOptions run;
  run.checkpoint_path = args.get("checkpoint", "ganopc_train.ckpt");
  run.checkpoint_every = args.get_int("checkpoint-every", 10);
  run.stop = &g_stop;

  core::TrainPhase resumed_phase = core::TrainPhase::None;
  const std::string resume_path = args.get("resume", "");
  if (!resume_path.empty()) {
    const core::ResumeInfo info = trainer.resume(resume_path);
    resumed_phase = info.phase;
    std::printf("resuming from %s (%s, iteration %d/%d)\n", resume_path.c_str(),
                info.phase == core::TrainPhase::Pretrain ? "pretrain" : "train",
                info.next_iteration, info.total_iterations);
  }

  std::signal(SIGINT, handle_sigint);

  const int pretrain_iters = args.get_int("pretrain-iters", cfg.pretrain_iterations);
  const int train_iters = args.get_int("train-iters", cfg.gan_iterations);

  if (resumed_phase != core::TrainPhase::Adversarial) {
    std::printf("ILT-guided pre-training (%d iterations, Algorithm 2)...\n",
                pretrain_iters);
    const core::TrainStats pre = trainer.pretrain(pretrain_iters, run);
    if (!pre.litho_history.empty())
      std::printf("  litho error: %.1f -> %.1f (%.1fs, %d rollbacks)\n",
                  pre.litho_history.front(), pre.litho_history.back(), pre.seconds,
                  pre.divergence_rollbacks);
    if (pre.interrupted) {
      std::printf("interrupted; resume with --resume %s\n", run.checkpoint_path.c_str());
      return 130;
    }
  }

  std::printf("adversarial training (%d iterations, Algorithm 1)...\n", train_iters);
  const core::TrainStats adv = trainer.train(train_iters, run);
  if (!adv.l2_history.empty())
    std::printf("  L2 to reference masks: %.1f -> %.1f (%.1fs, %d rollbacks)\n",
                adv.l2_history.front(), adv.l2_history.back(), adv.seconds,
                adv.divergence_rollbacks);
  if (adv.interrupted) {
    std::printf("interrupted; resume with --resume %s\n", run.checkpoint_path.c_str());
    return 130;
  }

  const std::string out = args.get("out", "pgan_generator.bin");
  nn::save_parameters(generator.net(), out);
  std::printf("saved %s — run it with `ganopc optimize --rung gan+ilt --generator %s`\n",
              out.c_str(), out.c_str());
  return 0;
}

// Comma-separated list -> items ("A,B" -> {"A","B"}); empty items dropped.
std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

// One Engine session configured from the shared command-line vocabulary —
// optimize/batch/serve all build their session here, which is what keeps a
// clip's result bit-identical across the three front-ends.
engine::EngineOptions engine_options_from_args(const Args& args) {
  engine::EngineOptions opts;
  opts.config = core::make_config(core::parse_scale(args.get("scale", "quick")));
  opts.config.litho_grid = args.get_int("grid", opts.config.litho_grid);
  opts.config.ilt.max_iterations =
      args.get_int("iters", opts.config.ilt.max_iterations);
  opts.backend = litho::parse_litho_backend(args.get("litho-backend", "abbe"));
  opts.generator_path = args.get("generator", "");
  engine::SubmitPolicy& policy = opts.policy;
  policy.clip_deadline_s = args.get_double("deadline-s", 0.0);
  policy.max_retries = args.get_int("max-retries", 1);
  policy.allow_fallback = args.get_int("fallback", 1) != 0;
  policy.l2_accept_factor = static_cast<float>(args.get_double("accept-factor", 1.0));
  policy.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<int>(opts.config.seed)));
  policy.retry_backoff_base_s =
      args.get_double("retry-backoff-s", policy.retry_backoff_base_s);
  return opts;
}

// One-shot mask optimization through the Engine session — exactly the
// degradation chain a batch clip or serve request walks, so its mask bytes
// are the contract the engine test pins against the embedded API. --rung
// enters the chain at the named rung and turns fallback off, so exactly that
// rung runs. Exit 0 when the mask was accepted, 3 when the clip failed
// (typed code printed).
int cmd_optimize(const Args& args) {
  engine::EngineOptions eopts = engine_options_from_args(args);
  const std::string rung = args.get("rung", "");
  if (!rung.empty()) eopts.policy.allow_fallback = false;
  const engine::Engine eng(eopts);
  engine::BatchClip clip;
  clip.path = args.require("layout");
  clip.id = args.get("id", "clip");
  engine::SubmitOptions opts;
  opts.want_mask = true;
  if (!rung.empty()) opts.start_rung = eng.rung_index(rung);
  // Observability parity with serve (DESIGN.md §16): the one-shot path mints
  // the same trace root and request_start/request_end ledger events a daemon
  // request gets, so a clip traced via `optimize --trace-out` and one traced
  // through `serve --trace-out` produce the same span tree shape.
  opts.trace_id = obs::next_span_id();
  opts.parent_span = obs::next_span_id();
  char trace_hex[32];
  std::snprintf(trace_hex, sizeof trace_hex, "%llx",
                static_cast<unsigned long long>(opts.trace_id));
  const std::uint64_t admit_ns = obs::monotonic_ns();
  if (obs::ledger_enabled()) {
    obs::LedgerRecord rec("request_start");
    rec.field("id", clip.id).field("trace", trace_hex);
    obs::ledger_emit(rec);
  }
  const engine::MaskResult result = eng.submit(clip, opts);
  const std::uint64_t done_ns = obs::monotonic_ns();
  {
    static const obs::SpanSite& request_site = obs::span_site("cli.request");
    obs::record_span(request_site, admit_ns, done_ns, opts.trace_id,
                     opts.parent_span, 0);
  }
  const engine::BatchClipResult& row = result.row;
  if (obs::ledger_enabled()) {
    obs::LedgerRecord rec("request_end");
    rec.field("id", row.id)
        .field("code", status_code_name(row.code))
        .field("stage", engine::batch_stage_name(row.stage))
        .field("wall_s", static_cast<double>(done_ns - admit_ns) * 1e-9)
        .field("trace", trace_hex);
    obs::ledger_emit(rec);
  }
  if (!row.ok()) {
    std::printf("%s: FAILED %s: %s\n", row.id.c_str(), status_code_name(row.code),
                row.error.c_str());
    return 3;
  }
  std::printf("%s: ok stage=%s%s L2 %.0f nm^2, PVB %ld nm^2 (%d ILT iters, "
              "backend %s)\n",
              row.id.c_str(), engine::batch_stage_name(row.stage),
              row.retries > 0 ? " (retried)" : "", row.l2_nm2,
              static_cast<long>(row.pvb_nm2), row.ilt_iterations,
              eng.backend_name().c_str());
  dump(result.mask, args.get("mask-out", "optimize_mask.pgm"));
  return 0;
}

// Printability report for an externally produced mask, scored by the same
// session simulator `optimize` uses, so its grid follows --scale/--grid.
int cmd_eval(const Args& args) {
  const engine::Engine eng(engine_options_from_args(args));
  const litho::LithoSim& sim = eng.sim();
  const geom::Layout clip = load_layout(args);
  const std::int32_t clip_nm = eng.config().clip_nm;
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput,
                     clip.clip().width() == clip_nm && clip.clip().height() == clip_nm,
                     "clip window must be " << clip_nm << "x" << clip_nm << " nm");
  const geom::Grid target = geom::rasterize(clip, sim.pixel_nm(), /*threshold=*/true);
  const geom::Grid mask =
      engine::load_mask_pgm(args.require("mask"), sim.grid_size(), sim.pixel_nm());
  const auto report = metrics::evaluate_printability(sim, mask, clip, target);
  std::printf("%s\n", report.str().c_str());
  return 0;
}

// Fault-tolerant batch mask optimization over many clip files. Exit code 0
// when every clip produced an accepted mask, 3 when the batch completed but
// some clips failed (their manifest rows carry the typed error code).
int cmd_batch(const Args& args) {
  std::vector<std::string> paths;
  const std::string list = args.get("list", "");
  if (!list.empty()) {
    std::ifstream in(list);
    GANOPC_CHECK_MSG(in.good(), "cannot open clip list " << list);
    std::string line;
    while (std::getline(in, line)) {
      while (!line.empty() && (line.back() == '\r' || line.back() == ' '))
        line.pop_back();
      if (!line.empty() && line[0] != '#') paths.push_back(line);
    }
  } else {
    paths = split_csv(args.require("clips"));
  }
  GANOPC_CHECK_MSG(!paths.empty(), "no clips given (use --list or --clips)");

  const engine::Engine eng(engine_options_from_args(args));

  engine::BatchConfig bcfg;
  const std::string resume = args.get("resume", "");
  bcfg.journal_path = resume.empty() ? args.get("journal", "") : resume;
  bcfg.resume = !resume.empty();
  bcfg.deterministic_manifest = args.get_int("deterministic-manifest", 0) != 0;
  bcfg.workers = args.get_int("workers", 0);
  bcfg.quarantine_kills = args.get_int("quarantine-kills", bcfg.quarantine_kills);
  bcfg.task_deadline_s = args.get_double("task-deadline-s", 0.0);
  bcfg.worker_mem_mb = args.get_int("worker-mem-mb", 0);
  bcfg.worker_cpu_s = args.get_int("worker-cpu-s", 0);
  // Graceful drain: SIGTERM/SIGINT stops dispatching new clips, lets
  // in-flight ones finish (bounded by their deadlines), journals what
  // completed, and reports the untouched remainder as Cancelled rows.
  bcfg.stop = &g_stop;
  std::signal(SIGINT, handle_sigint);
  std::signal(SIGTERM, handle_sigint);

  const engine::BatchRunner runner(eng, bcfg);
  const engine::BatchSummary summary = runner.run_files(paths);

  for (const auto& c : summary.clips) {
    if (c.ok())
      std::printf("  %-16s ok      stage=%s%s L2 %.0f nm^2, PVB %ld nm^2%s\n",
                  c.id.c_str(), engine::batch_stage_name(c.stage),
                  c.retries > 0 ? " (retried)" : "", c.l2_nm2,
                  static_cast<long>(c.pvb_nm2), c.from_journal ? " [journal]" : "");
    else
      std::printf("  %-16s FAILED  %s: %s\n", c.id.c_str(),
                  status_code_name(c.code), c.error.c_str());
  }
  const std::string manifest = args.get("manifest", "batch_manifest.csv");
  engine::BatchRunner::write_manifest(manifest, summary);
  std::printf("batch: %d ok, %d failed, %d resumed from journal; wrote %s\n",
              summary.succeeded, summary.failed, summary.resumed, manifest.c_str());
  if (bcfg.workers > 0)
    std::printf("batch: supervised with %d worker(s): %d worker death(s), "
                "%d clip(s) quarantined\n",
                bcfg.workers, summary.worker_deaths, summary.quarantined);
  if (summary.drained) {
    // A drained run exits 0 when everything that actually ran succeeded;
    // the cancelled remainder is not a failure — it is resumable work.
    std::printf("batch: drained on SIGTERM/SIGINT; %d clip(s) cancelled%s\n",
                summary.cancelled,
                bcfg.journal_path.empty()
                    ? ""
                    : " (rerun with --resume to finish them)");
    return summary.failed == summary.cancelled ? 0 : 3;
  }
  return summary.failed == 0 ? 0 : 3;
}

// Fault-tolerant mask-optimization daemon (DESIGN.md §14): HTTP/1.1 over TCP
// or a Unix socket, bounded-queue admission control with deadline-aware
// shedding, per-request degradation (GAN+ILT -> ILT -> MB-OPC) across
// sandboxed workers, a circuit breaker after consecutive worker deaths, and
// graceful SIGTERM drain (exit 0).
int cmd_serve(const Args& args) {
  // The daemon always collects metrics: /metrics must reflect the whole
  // fleet (worker deltas merge into this registry) whether or not the
  // operator also asked for a --metrics-out exit snapshot.
  obs::set_metrics_enabled(true);
  const engine::Engine eng(engine_options_from_args(args));

  serve::ServeConfig scfg;
  scfg.host = args.get("host", "127.0.0.1");
  scfg.port = args.get_int("port", 8347);
  scfg.unix_socket = args.get("socket", "");
  scfg.port_file = args.get("port-file", "");
  scfg.max_conns = args.get_int("max-conns", scfg.max_conns);
  scfg.max_queue = args.get_int("max-queue", scfg.max_queue);
  scfg.default_deadline_s =
      args.get_double("default-deadline-s", scfg.default_deadline_s);
  scfg.max_deadline_s = args.get_double("max-deadline-s", scfg.max_deadline_s);
  scfg.read_timeout_s = args.get_double("read-timeout-s", scfg.read_timeout_s);
  scfg.write_timeout_s =
      args.get_double("write-timeout-s", scfg.write_timeout_s);
  scfg.max_body_bytes =
      static_cast<std::size_t>(args.get_int("max-body-mb", 64)) << 20;
  scfg.breaker_kills = args.get_int("breaker-kills", scfg.breaker_kills);
  scfg.breaker_cooldown_s =
      args.get_double("breaker-cooldown-s", scfg.breaker_cooldown_s);
  scfg.drain_grace_s = args.get_double("drain-grace-s", scfg.drain_grace_s);
  scfg.spool_dir = args.get("spool-dir", "");
  scfg.workers = args.get_int("workers", 1);
  scfg.quarantine_kills = args.get_int("quarantine-kills", scfg.quarantine_kills);
  scfg.heartbeat_timeout_s =
      args.get_double("heartbeat-timeout-s", scfg.heartbeat_timeout_s);
  scfg.worker_mem_mb = args.get_int("worker-mem-mb", 0);
  scfg.worker_cpu_s = args.get_int("worker-cpu-s", 0);
  scfg.seed = eng.policy().seed;
  scfg.stop = &g_stop;
  std::signal(SIGINT, handle_sigint);
  std::signal(SIGTERM, handle_sigint);

  serve::Server server(eng, scfg);
  return server.run();
}

int cmd_txt2gds(const Args& args) {
  const geom::Layout clip = geom::Layout::load(args.require("layout"));
  const std::string out = args.get("out", "layout.gds");
  gds::write_gds(out, gds::layout_to_gds(clip, args.get("cell", "CLIP"),
                                         static_cast<std::int16_t>(args.get_int("layer", 1))));
  std::printf("wrote %s (%zu boundaries)\n", out.c_str(), clip.size());
  return 0;
}

int cmd_gds2txt(const Args& args) {
  const std::int32_t clip_nm = args.get_int("clipsize", 2048);
  const geom::Layout clip = gds::gds_to_layout(
      gds::read_gds(args.require("gds")), geom::Rect{0, 0, clip_nm, clip_nm},
      args.get("cell", ""), static_cast<std::int16_t>(args.get_int("layer", 1)));
  const std::string out = args.get("out", "layout.txt");
  clip.save(out);
  std::printf("wrote %s (%zu rects, %ld nm^2)\n", out.c_str(), clip.size(),
              static_cast<long>(clip.union_area()));
  return 0;
}

void usage(std::FILE* out = stderr) {
  std::fprintf(out,
               "usage: ganopc <synth|sraf|eval|train|optimize|batch|serve|txt2gds|gds2txt>\n"
               "              [--flag value ...]\n"
               "global flags: --metrics-out FILE (Prometheus text, or JSON when\n"
               "FILE ends in .json), --trace-out FILE (chrome://tracing JSON)\n"
               "and --ledger-out FILE (JSONL run ledger + flight recorder);\n"
               "litho commands accept --litho-backend abbe|tcc|tcc:K;\n"
               "optimize --rung gan+ilt|ilt|mbopc runs exactly one rung\n"
               "see tools/cli.cpp header for per-command flags\n");
}

// Observability sink (DESIGN.md §10): --metrics-out / --trace-out work on
// every command. Flags are enabled before dispatch and the files are written
// on the way out — also after a command error, so a failed run still leaves
// its counters and spans behind for diagnosis.
class ObsSink {
 public:
  explicit ObsSink(const Args& args)
      : metrics_path_(args.get("metrics-out", "")),
        trace_path_(args.get("trace-out", "")) {
    if (!metrics_path_.empty()) obs::set_metrics_enabled(true);
    if (!trace_path_.empty()) obs::set_trace_enabled(true);
  }

  ~ObsSink() {
    if (!metrics_path_.empty()) {
      const obs::Snapshot snap = obs::snapshot();
      write_file(metrics_path_, ends_with(metrics_path_, ".json")
                                    ? obs::to_json(snap)
                                    : obs::to_prometheus(snap));
    }
    if (!trace_path_.empty())
      write_file(trace_path_, obs::trace_to_chrome_json(obs::trace_events()));
  }

 private:
  static void write_file(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
    if (out.good())
      std::printf("wrote %s (%zu bytes)\n", path.c_str(), content.size());
    else
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
  }

  std::string metrics_path_;
  std::string trace_path_;
};

// Run ledger sink (DESIGN.md §11): --ledger-out opens the JSONL ledger in
// append mode before dispatch and writes the run_start header — build
// version, full command line and its FNV-1a config fingerprint — so every
// run in the file is self-identifying. finish()/fail() append the run_end
// record (exit code + embedded metrics snapshot); a fatal error additionally
// dumps the flight-recorder ring to FILE.crash.json before the process dies.
class LedgerSink {
 public:
  LedgerSink(const std::string& cmd, const Args& args, int argc, char** argv)
      : path_(args.get("ledger-out", "")) {
    if (path_.empty()) return;
    obs::ledger_open(path_);
    // The run_end record embeds a metrics snapshot; without the registry
    // collecting it would be all zeros, so the ledger implies --metrics.
    obs::set_metrics_enabled(true);
    std::string cmdline;
    for (int i = 1; i < argc; ++i) {
      if (i > 1) cmdline += ' ';
      cmdline += argv[i];
    }
    obs::LedgerRecord rec("run_start");
    rec.field("cmd", cmd)
        .field("cmdline", cmdline)
        .field("version", build_version())
        .field("config_fingerprint", obs::fingerprint64(cmdline));
    obs::ledger_emit(rec);
  }

  ~LedgerSink() { obs::ledger_close(); }

  void finish(int exit_code) { run_end(exit_code, ""); }

  void fail(const std::exception& e) {
    if (path_.empty()) return;
    obs::flight_dump(std::string("fatal.") +
                     status_code_name(status_from_exception(e).code()));
    run_end(1, e.what());
  }

 private:
  void run_end(int exit_code, const std::string& error) {
    if (path_.empty()) return;
    obs::LedgerRecord rec("run_end");
    rec.field("exit_code", exit_code).field("ok", exit_code == 0);
    if (!error.empty()) rec.field("error", error);
    rec.raw("metrics", obs::to_json(obs::snapshot()));
    obs::ledger_emit(rec);
    std::printf("wrote ledger %s\n", path_.c_str());
  }

  std::string path_;
};

int dispatch(const std::string& cmd, const Args& args) {
  if (cmd == "synth") return cmd_synth(args);
  if (cmd == "sraf") return cmd_sraf(args);
  if (cmd == "eval") return cmd_eval(args);
  if (cmd == "train") return cmd_train(args);
  if (cmd == "optimize") return cmd_optimize(args);
  if (cmd == "batch") return cmd_batch(args);
  if (cmd == "serve") return cmd_serve(args);
  if (cmd == "txt2gds") return cmd_txt2gds(args);
  if (cmd == "gds2txt") return cmd_gds2txt(args);
  usage();
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (is_help_flag(cmd)) {
    usage(stdout);
    return 0;
  }
  try {
    const Args args(argc, argv, 2);
    if (args.help()) {
      usage(stdout);
      return 0;
    }
    const ObsSink obs_sink(args);
    LedgerSink ledger(cmd, args, argc, argv);
    try {
      const int rc = dispatch(cmd, args);
      ledger.finish(rc);
      return rc;
    } catch (const std::exception& e) {
      ledger.fail(e);
      throw;
    }
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
