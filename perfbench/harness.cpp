// perfbench_harness — the in-process half of the end-to-end benchmark.
//
// run.py owns the workloads' orchestration (processes, HTTP load, statistics)
// and calls this binary for everything that needs the ganopc libraries:
//
//   train --out FILE                    the quick-scale generator (fixed seed)
//   session --seed N --seconds S        the warm-session workload, in-process
//   oneshot --seed N --index I          one cold process: construct, submit
//   clips --seed N --count K --out-dir D   workload clips as layout text files
//   verify-serve --manifest FILE        re-score / byte-compare serve answers
//
// Every subcommand but `train` writes one JSON document (--out FILE, else
// stdout). Only
// public APIs are called; each call into a layer is timed from outside and,
// with --trace 1, recorded as a span (name, start, end, parent, trace id)
// that the program's own obs spans nest under. Traced runs also switch on
// the obs registry and report its exact counts and sums, never its
// histogram-bucket quantiles.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/cpu.hpp"
#include "common/crc32.hpp"
#include "common/json.hpp"
#include "common/prng.hpp"
#include "common/version.hpp"
#include "core/config.hpp"
#include "core/dataset.hpp"
#include "core/discriminator.hpp"
#include "core/generator.hpp"
#include "core/trainer.hpp"
#include "engine/clip_io.hpp"
#include "engine/engine.hpp"
#include "geometry/raster.hpp"
#include "layout/benchmark_suite.hpp"
#include "layout/synthesizer.hpp"
#include "litho/backend.hpp"
#include "litho/lithosim.hpp"
#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace {

using namespace ganopc;
using json::Value;

// ------------------------------------------------------------------ basics

struct Args {
  std::map<std::string, std::string> kv;

  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0 || i + 1 >= argc)
        throw std::runtime_error("expected --key value, got '" + key + "'");
      kv[key.substr(2)] = argv[++i];
    }
  }
  std::string get(const std::string& k, const std::string& def = "") const {
    const auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  }
  std::string require(const std::string& k) const {
    const auto it = kv.find(k);
    if (it == kv.end()) throw std::runtime_error("missing --" + k);
    return it->second;
  }
  long long get_int(const std::string& k, long long def) const {
    const auto it = kv.find(k);
    return it == kv.end() ? def : std::stoll(it->second);
  }
  double get_double(const std::string& k, double def) const {
    const auto it = kv.find(k);
    return it == kv.end() ? def : std::stod(it->second);
  }
};

double mono_s() { return static_cast<double>(obs::monotonic_ns()) * 1e-9; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Value num(double v) { return Value::number(v); }
Value str(std::string s) { return Value::string(std::move(s)); }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_out(const Args& a, const Value& doc) {
  const std::string out = a.get("out");
  if (out.empty()) {
    std::printf("%s\n", doc.dump().c_str());
    return;
  }
  std::ofstream f(out, std::ios::binary | std::ios::trunc);
  f << doc.dump() << '\n';
  if (!f.good()) throw std::runtime_error("cannot write " + out);
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llx", static_cast<unsigned long long>(v));
  return buf;
}

// ------------------------------------------------------------- fingerprint

Value fingerprint() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu = line.substr(line.find(':') + 2);
      break;
    }
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  const char* threads = std::getenv("GANOPC_THREADS");
  Value fp = Value::object();
  fp.set("cpu", str(cpu));
  fp.set("nproc", num(nproc));
  fp.set("ganopc_threads", str(threads != nullptr ? threads : "unset"));
  fp.set("simd", str(simd_level_name(simd_level())));
  fp.set("build_type", str(PERFBENCH_BUILD_TYPE));
#if defined(__clang__)
  fp.set("compiler", str(std::string("clang ") + __clang_version__));
#elif defined(__GNUC__)
  fp.set("compiler", str(std::string("g++ ") + __VERSION__));
#else
  fp.set("compiler", str("unknown"));
#endif
  fp.set("build_version", str(build_version()));
  return fp;
}

// ------------------------------------------------------------------- spans

/// The benchmark's own spans plus the program's obs spans recorded beneath
/// them. Kept in memory; written with the result document at the end.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) {
      obs::set_metrics_enabled(true);
      obs::set_trace_enabled(true);
    }
  }
  bool on() const { return on_; }

  void add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
           std::uint64_t id, std::uint64_t parent, std::uint64_t trace) {
    if (!on_) return;
    Value s = Value::object();
    s.set("name", str(name));
    s.set("start_ns", num(static_cast<double>(start_ns)));
    s.set("end_ns", num(static_cast<double>(end_ns)));
    // Ids are (pid << 32) | counter: too wide for a JSON double.
    s.set("id", str(hex64(id)));
    s.set("parent", str(hex64(parent)));
    s.set("trace", str(hex64(trace)));
    spans_.push_back(std::move(s));
  }

  /// Move the program's completed obs spans into the log.
  void absorb_program_spans() {
    if (!on_) return;
    for (const obs::TraceEvent& e : obs::trace_drain())
      add(e.name, e.start_ns, e.start_ns + e.dur_ns, e.span_id, e.parent_id,
          e.trace_id);
  }

  Value take() {
    Value arr = Value::array();
    for (Value& s : spans_) arr.push_back(std::move(s));
    spans_.clear();
    return arr;
  }

 private:
  bool on_;
  std::vector<Value> spans_;
};

/// RAII span around one public call. Ids come from obs::next_span_id so the
/// program's spans can parent under them (SubmitOptions::trace_id).
class Span {
 public:
  Span(Tracer& t, const char* name, std::uint64_t parent = 0,
       std::uint64_t trace = 0)
      : t_(t), name_(name), parent_(parent), trace_(trace) {
    id_ = obs::next_span_id();
    if (trace_ == 0) trace_ = id_;
    start_ns_ = obs::monotonic_ns();
  }
  ~Span() { close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// End the span now; returns its duration in seconds.
  double close() {
    if (end_ns_ == 0) {
      end_ns_ = obs::monotonic_ns();
      t_.add(name_, start_ns_, end_ns_, id_, parent_, trace_);
    }
    return static_cast<double>(end_ns_ - start_ns_) * 1e-9;
  }
  std::uint64_t id() const { return id_; }
  std::uint64_t trace() const { return trace_; }

 private:
  Tracer& t_;
  const char* name_;
  std::uint64_t parent_, trace_, id_ = 0, start_ns_ = 0, end_ns_ = 0;
};

/// Switches obs off for a scope, so the benchmark's own checking work never
/// lands in the registry or the trace it is measuring.
class ObsPause {
 public:
  ObsPause() : metrics_(obs::metrics_enabled()), trace_(obs::trace_enabled()) {
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
  }
  ~ObsPause() {
    obs::set_metrics_enabled(metrics_);
    obs::set_trace_enabled(trace_);
  }
  ObsPause(const ObsPause&) = delete;
  ObsPause& operator=(const ObsPause&) = delete;

 private:
  bool metrics_, trace_;
};

/// Exact counters and histogram sums/counts of the obs registry.
Value registry_json() {
  const obs::Snapshot snap = obs::snapshot();
  Value counters = Value::object();
  for (const auto& [name, v] : snap.counters)
    counters.set(name, num(static_cast<double>(v)));
  Value hists = Value::object();
  for (const auto& h : snap.histograms) {
    Value o = Value::object();
    o.set("sum", num(h.sum));
    o.set("count", num(static_cast<double>(h.count)));
    hists.set(h.name, std::move(o));
  }
  Value reg = Value::object();
  reg.set("counters", std::move(counters));
  reg.set("histograms", std::move(hists));
  return reg;
}

// ------------------------------------------------------------ clip stream

/// The workload clips for one seed. Every fourth clip (i % 4 == 3) is the
/// next Table 2 suite case (make_benchmark_suite) while cases last; the rest
/// are dense synthesized clips, whose high track fill keeps ILT from reaching
/// L2 = 0 and makes every solve run its full iteration budget. Suite cases
/// often converge early, so keeping them to a quarter of the stream keeps
/// the per-run median on full solves. Clip i is a pure function of (seed, i).
class ClipStream {
 public:
  ClipStream(const core::GanOpcConfig& cfg, std::uint64_t seed)
      : seed_(seed), suite_(layout::make_benchmark_suite(cfg.clip_nm, seed)) {
    dense_.clip_nm = cfg.clip_nm;
    dense_.track_fill_prob = 0.95;
  }

  geom::Layout layout(std::size_t i) const {
    if (i % 4 == 3 && i / 4 < suite_.size()) return suite_[i / 4].layout;
    Prng rng(seed_ * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL * (i + 1));
    return layout::synthesize_clip(dense_, rng);
  }
  std::string id(std::size_t i) const {
    return "s" + std::to_string(seed_) + "-c" + std::to_string(i);
  }
  engine::BatchClip clip(std::size_t i) const {
    return engine::BatchClip{id(i), "", layout(i)};
  }

 private:
  std::uint64_t seed_;
  std::vector<layout::BenchmarkCase> suite_;
  layout::SynthesisConfig dense_;
};

/// Odd positions start at the ILT rung (ILT from the target), so the two
/// flows of Table 2, GAN+ILT and plain ILT, each get half the submits; the
/// suite cases run plain ILT, the dense clips both.
int start_rung_for(std::size_t i) { return i % 2 == 1 ? 1 : 0; }

/// Quick-scale session options. The in-process workloads turn the L2
/// acceptance gate off (`one_solve`): every submit then runs exactly one
/// solve on its starting rung and reports the L2 it reaches, as Table 2
/// does, so per-clip time does not jump between one, two and three solves.
/// The daemon's defaults (gate on, retry, fallback) are what serve_closed
/// measures and what verify-serve must reproduce.
engine::EngineOptions make_options(const std::string& backend, int iters,
                                   const std::string& weights, bool one_solve) {
  engine::EngineOptions o;
  o.config = core::make_config(core::ReproScale::Quick);
  if (iters > 0) o.config.ilt.max_iterations = iters;
  o.backend = litho::parse_litho_backend(backend);
  o.generator_path = weights;
  if (one_solve) o.policy.l2_accept_factor = 0.0f;
  return o;
}

std::uint32_t kernels_crc(const litho::SocsKernels& k) {
  std::uint32_t crc = 0;
  for (int i = 0; i < k.count(); ++i) {
    const float w = k.weight(i);
    crc = crc32(&w, sizeof w, crc);
    const auto& f = k.freq_kernel(i);
    crc = crc32(f.data(), f.size() * sizeof f[0], crc);
  }
  return crc;
}

// ------------------------------------------------------------ correctness

/// Re-scores returned masks through a LithoSim of its own: the row must
/// agree exactly with l2_error + pv_band of the returned mask.
class Rescorer {
 public:
  Rescorer(litho::SocsKernels kernels, const core::GanOpcConfig& cfg)
      : sim_(std::move(kernels), litho::ResistConfig{}),
        pixel_nm_(cfg.litho_pixel_nm()) {}

  struct Score {
    double l2_px = 0.0;
    double l2_nm2 = 0.0;
    std::int64_t pvb_nm2 = 0;
  };

  Score score(const geom::Grid& mask, const geom::Layout& clip) const {
    const geom::Grid target = geom::rasterize(clip, pixel_nm_, true);
    Score s;
    s.l2_px = sim_.l2_error(mask, target);
    s.l2_nm2 = s.l2_px * static_cast<double>(pixel_nm_) * pixel_nm_;
    s.pvb_nm2 = sim_.pv_band(mask).area_nm2;
    return s;
  }

  /// "" when the accepted row matches its mask, else the disagreement.
  std::string check(const engine::MaskResult& r, const geom::Layout& clip) const {
    if (r.mask.data.empty()) return "accepted row carries no mask";
    const Score s = score(r.mask, clip);
    if (s.l2_px == r.row.l2_px && s.l2_nm2 == r.row.l2_nm2 &&
        s.pvb_nm2 == r.row.pvb_nm2)
      return "";
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "re-score l2_px %.17g pvb %lld != row l2_px %.17g pvb %lld",
                  s.l2_px, static_cast<long long>(s.pvb_nm2), r.row.l2_px,
                  static_cast<long long>(r.row.pvb_nm2));
    return buf;
  }

 private:
  litho::LithoSim sim_;
  std::int32_t pixel_nm_;
};

Value row_json(const engine::BatchClipResult& r) {
  Value o = Value::object();
  o.set("id", str(r.id));
  o.set("ok", Value::boolean(r.ok()));
  o.set("code", str(status_code_name(r.code)));
  o.set("stage", str(engine::batch_stage_name(r.stage)));
  o.set("retries", num(r.retries));
  o.set("fallbacks", num(r.fallbacks));
  o.set("ilt_iterations", num(r.ilt_iterations));
  o.set("l2_px", num(r.l2_px));
  o.set("l2_nm2", num(r.l2_nm2));
  o.set("pvb_nm2", num(static_cast<double>(r.pvb_nm2)));
  if (!r.error.empty()) o.set("error", str(r.error));
  return o;
}

/// One submit, timed and (when tracing) spanned, with the program's spans
/// nested under it. Returns the clip record for the result document.
Value timed_submit(const engine::Engine& eng, const engine::BatchClip& clip,
                   int start_rung, const Rescorer& rescorer, Tracer& tracer,
                   const char* phase, std::uint64_t parent = 0) {
  engine::SubmitOptions so;
  so.start_rung = start_rung;
  so.want_mask = true;
  Span span(tracer, "engine.submit", parent);
  if (tracer.on()) {
    so.trace_id = span.trace();
    so.parent_span = span.id();
  }
  const double t0 = mono_s();
  const engine::MaskResult r = eng.submit(clip, so);
  const double t1 = mono_s();
  span.close();
  tracer.absorb_program_spans();
  Value rec = row_json(r.row);
  rec.set("phase", str(phase));
  rec.set("start_rung", num(start_rung));
  rec.set("latency_s", num(t1 - t0));
  rec.set("t_end", num(t1));
  if (r.row.ok()) {
    const ObsPause pause;
    const std::string wrong = rescorer.check(r, *clip.layout);
    rec.set("verified", Value::boolean(wrong.empty()));
    if (!wrong.empty()) rec.set("wrong", str(wrong));
  }
  return rec;
}

/// Kernel build through the public backend, timed on its own.
Value kernels_probe(const engine::EngineOptions& opts, Tracer& tracer) {
  const auto backend = litho::make_litho_backend(opts.backend);
  Span span(tracer, "litho.kernels.build");
  const litho::SocsKernels k = backend->build(
      opts.config.optics, opts.config.litho_grid, opts.config.litho_pixel_nm());
  const double build_s = span.close();
  Value o = Value::object();
  o.set("build_s", num(build_s));
  o.set("count", num(k.count()));
  o.set("captured_energy", num(k.captured_energy()));
  o.set("crc", str(hex32(kernels_crc(k))));
  return o;
}

/// FFT plan-cache lookups made by exactly one litho.gradient call.
double fft_lookups_per_gradient(const engine::Engine& eng, const geom::Layout& clip) {
  const geom::Grid target =
      geom::rasterize(clip, eng.config().litho_pixel_nm(), true);
  const auto lookups = [] {
    const obs::Snapshot s = obs::snapshot();
    return s.counter_value("fft.plan_cache.hits") +
           s.counter_value("fft.plan_cache.misses");
  };
  const std::uint64_t before = lookups();
  (void)eng.sim().gradient(target, target);
  return static_cast<double>(lookups() - before);
}

// ------------------------------------------------------------ subcommands

// The quick-scale PGAN generator: ILT-guided pre-training then adversarial
// training with fixed seeds, the recipe of bench/bench_util.hpp.
int cmd_train(const Args& a) {
  const core::GanOpcConfig cfg = core::make_config(core::ReproScale::Quick);
  const litho::LithoSim sim(cfg.optics, litho::ResistConfig{}, cfg.litho_grid,
                            cfg.litho_pixel_nm());
  const core::Dataset dataset = core::Dataset::generate(cfg, sim);
  Prng rng(cfg.seed + 100);
  core::Generator generator(cfg.gan_grid, cfg.base_channels, rng);
  core::Discriminator discriminator(cfg.gan_grid, cfg.base_channels, rng, true,
                                    cfg.d_dropout);
  Prng train_rng(cfg.seed + 300);
  core::GanOpcTrainer trainer(cfg, generator, discriminator, dataset, sim,
                              train_rng);
  trainer.pretrain(cfg.pretrain_iterations);
  trainer.train(cfg.gan_iterations);
  const std::string out = a.require("out");
  nn::save_parameters(generator.net(), out);
  const std::string bytes = read_file(out);
  std::printf("wrote %s (%zu bytes, crc32 %s)\n", out.c_str(), bytes.size(),
              hex32(crc32(bytes.data(), bytes.size())).c_str());
  return 0;
}

Value common_header(const std::string& weights) {
  Value doc = Value::object();
  doc.set("fingerprint", fingerprint());
  if (!weights.empty()) {
    const std::string bytes = read_file(weights);
    doc.set("weights_crc", str(hex32(crc32(bytes.data(), bytes.size()))));
  }
  return doc;
}

// session_abbe: one warm Engine on the Abbe backend, one closed-loop caller.
//   setup:   `constructs` bare constructions (setup_s samples), then
//            `setups` fresh sessions, each constructed then asked for its
//            first mask (setup_s and first_mask_s samples)
//   steady:  the last session submits fresh clips until `seconds` pass
//   traced:  (--trace 1) the steady phase runs for seconds/2 untraced, then
//            replays the same clips with spans and the obs registry on
int cmd_session(const Args& a) {
  const std::uint64_t seed = static_cast<std::uint64_t>(a.get_int("seed", 1));
  const double seconds = a.get_double("seconds", 10.0);
  const bool trace = a.get_int("trace", 0) != 0;
  const int setups = static_cast<int>(a.get_int("setups", 3));
  const int constructs = static_cast<int>(a.get_int("constructs", 31));
  const std::string weights = a.require("weights");
  const engine::EngineOptions opts = make_options("abbe", 0, weights, true);
  const ClipStream stream(opts.config, seed);
  Tracer tracer(false);

  Value doc = common_header(weights);
  Value setup_s = Value::array(), first_mask_s = Value::array();
  Value clips = Value::array();
  std::unique_ptr<engine::Engine> eng;
  std::unique_ptr<Rescorer> rescorer;
  std::size_t next = 0;
  // Construction alone is ~10 ms on Abbe: sample it many times.
  for (int r = 0; r < constructs; ++r) {
    const double t0 = mono_s();
    { const engine::Engine e(opts); }
    setup_s.push_back(num(mono_s() - t0));
  }
  for (int r = 0; r < setups; ++r) {
    eng.reset();
    const double t0 = mono_s();
    eng = std::make_unique<engine::Engine>(opts);
    const double t1 = mono_s();
    if (!rescorer) {
      const auto backend = litho::make_litho_backend(opts.backend);
      rescorer = std::make_unique<Rescorer>(
          backend->build(opts.config.optics, opts.config.litho_grid,
                         opts.config.litho_pixel_nm()),
          opts.config);
    }
    const std::size_t i = next++;
    Value rec = timed_submit(*eng, stream.clip(i), start_rung_for(i), *rescorer,
                             tracer, "first");
    setup_s.push_back(num(t1 - t0));
    first_mask_s.push_back(num(rec.number_or("t_end", 0.0) - t0));
    clips.push_back(std::move(rec));
  }

  const double budget = trace ? seconds / 2.0 : seconds;
  std::vector<std::size_t> steady;
  double untraced_wall = 0.0;
  const double start = mono_s();
  while (mono_s() - start < budget) {
    const std::size_t i = next++;
    Value rec = timed_submit(*eng, stream.clip(i), start_rung_for(i), *rescorer,
                             tracer, "steady");
    untraced_wall += rec.number_or("latency_s", 0.0);
    clips.push_back(std::move(rec));
    steady.push_back(i);
  }
  doc.set("peak_rss_mb", num(peak_rss_mb()));

  if (trace) {
    Tracer traced(true);
    Value layers = Value::object();
    {
      eng.reset();
      Span span(traced, "engine.construct");
      eng = std::make_unique<engine::Engine>(opts);
      layers.set("engine.construct_s", num(span.close()));
    }
    layers.set("kernels", kernels_probe(opts, traced));
    obs::reset_values();
    layers.set("fft.lookups_per_gradient",
               num(fft_lookups_per_gradient(*eng, stream.layout(0))));
    // Warm the fresh session's workspace, then measure the replay only.
    (void)eng->submit(stream.clip(0));
    obs::reset_values();
    double traced_wall = 0.0;
    for (const std::size_t i : steady) {
      Value rec = timed_submit(*eng, stream.clip(i), start_rung_for(i),
                               *rescorer, traced, "traced");
      traced_wall += rec.number_or("latency_s", 0.0);
      clips.push_back(std::move(rec));
    }
    layers.set("registry", registry_json());
    layers.set("trace_overhead_ratio",
               num(untraced_wall > 0.0 ? traced_wall / untraced_wall : 0.0));
    doc.set("layers", std::move(layers));
    doc.set("spans", traced.take());
  }
  doc.set("setup_s", std::move(setup_s));
  doc.set("first_mask_s", std::move(first_mask_s));
  doc.set("clips", std::move(clips));
  write_out(a, doc);
  return 0;
}

// oneshot_tcc child: what `ganopc optimize` pays — a fresh process builds an
// Engine (TCC, auto k), submits one clip and exits. run.py spawns one per
// sample and times the process from outside; the stamps below are
// CLOCK_MONOTONIC, comparable with the parent's clock.
int cmd_oneshot(const Args& a) {
  const std::uint64_t seed = static_cast<std::uint64_t>(a.get_int("seed", 1));
  const std::size_t index = static_cast<std::size_t>(a.get_int("index", 0));
  const bool trace = a.get_int("trace", 0) != 0;
  const std::string weights = a.require("weights");
  Tracer tracer(trace);
  const double t_main = mono_s();
  const engine::EngineOptions opts =
      make_options(a.get("backend", "tcc"), 0, weights, true);
  const ClipStream stream(opts.config, seed);
  const engine::BatchClip clip = stream.clip(index);

  Value doc = common_header(weights);
  doc.set("t_main", num(t_main));
  const double t_construct = mono_s();
  double construct_s = 0.0;
  std::unique_ptr<engine::Engine> eng;
  {
    Span span(tracer, "engine.construct");
    eng = std::make_unique<engine::Engine>(opts);
    construct_s = span.close();
  }
  doc.set("t_construct", num(t_construct));
  doc.set("t_ready", num(mono_s()));
  Rescorer rescorer(eng->sim().kernels(), opts.config);
  // A one-shot `ganopc optimize` always enters the chain at its first rung.
  Value rec = timed_submit(*eng, clip, 0, rescorer, tracer, "oneshot");
  doc.set("peak_rss_mb", num(peak_rss_mb()));
  doc.set("kernels_crc", str(hex32(kernels_crc(eng->sim().kernels()))));
  doc.set("kernels_count", num(eng->sim().kernels().count()));
  if (trace) {
    Value layers = Value::object();
    layers.set("engine.construct_s", num(construct_s));
    layers.set("registry", registry_json());
    layers.set("kernels", kernels_probe(opts, tracer));
    layers.set("fft.lookups_per_gradient",
               num(fft_lookups_per_gradient(*eng, clip.layout.value())));
    doc.set("layers", std::move(layers));
    doc.set("spans", tracer.take());
  }
  Value clips = Value::array();
  clips.push_back(std::move(rec));
  doc.set("clips", std::move(clips));
  write_out(a, doc);
  return 0;
}

// Workload clips as layout text files (the serve request bodies).
int cmd_clips(const Args& a) {
  const std::uint64_t seed = static_cast<std::uint64_t>(a.get_int("seed", 1));
  const std::size_t count = static_cast<std::size_t>(a.get_int("count", 8));
  const std::string dir = a.require("out-dir");
  const ClipStream stream(core::make_config(core::ReproScale::Quick), seed);
  Value files = Value::array();
  for (std::size_t i = 0; i < count; ++i) {
    const std::string path = dir + "/" + stream.id(i) + ".txt";
    stream.layout(i).save(path);
    Value f = Value::object();
    f.set("id", str(stream.id(i)));
    f.set("path", str(path));
    f.set("start_rung", num(start_rung_for(i)));
    files.push_back(std::move(f));
  }
  write_out(a, files);
  return 0;
}

// Serve correctness, after the daemon has drained. The manifest lists every
// accepted response: {request_id, clip_path, kind: "pgm"|"json", body_path |
// row, l2_header, compare}. Every returned PGM mask is re-scored through an
// independently built LithoSim against its X-Ganopc-L2-Nm2 header; entries
// flagged `compare` are recomputed by an in-process Engine built with the
// daemon's options, which must reproduce the PGM bytes or the JSON row.
int cmd_verify_serve(const Args& a) {
  const bool trace = a.get_int("trace", 0) != 0;
  const std::string weights = a.require("weights");
  const engine::EngineOptions opts = make_options(
      a.require("backend"), static_cast<int>(a.get_int("iters", 0)), weights,
      false);
  const Value manifest = json::parse(read_file(a.require("manifest")));
  Tracer tracer(trace);
  Value doc = common_header(weights);

  std::unique_ptr<engine::Engine> eng;
  double construct_s = 0.0;
  {
    Span span(tracer, "engine.construct");
    eng = std::make_unique<engine::Engine>(opts);
    construct_s = span.close();
  }
  const auto backend = litho::make_litho_backend(opts.backend);
  const Rescorer rescorer(
      backend->build(opts.config.optics, opts.config.litho_grid,
                     opts.config.litho_pixel_nm()),
      opts.config);
  const std::int32_t grid = opts.config.litho_grid;
  const std::int32_t px = opts.config.litho_pixel_nm();

  Value wrong = Value::array();
  Value pvb = Value::object();  // re-scored PV band of every PGM mask
  int rescored = 0, compared = 0;
  auto fail = [&](const std::string& rid, const std::string& why) {
    Value w = Value::object();
    w.set("request_id", str(rid));
    w.set("why", str(why));
    wrong.push_back(std::move(w));
  };
  for (const Value& e : manifest.items()) {
    const std::string rid = e.string_or("request_id", "");
    const std::string clip_path = e.string_or("clip_path", "");
    const std::string kind = e.string_or("kind", "");
    const geom::Layout clip = geom::Layout::load(clip_path);
    std::string body;
    if (kind == "pgm") {
      body = read_file(e.string_or("body_path", ""));
      const geom::Grid mask =
          engine::load_mask_pgm(e.string_or("body_path", ""), grid, px);
      const Rescorer::Score s = rescorer.score(mask, clip);
      ++rescored;
      pvb.set(rid, num(static_cast<double>(s.pvb_nm2)));
      if (std::to_string(s.l2_nm2) != e.string_or("l2_header", ""))
        fail(rid, "re-scored l2_nm2 " + std::to_string(s.l2_nm2) +
                      " != X-Ganopc-L2-Nm2 " + e.string_or("l2_header", ""));
    }
    if (e.find("compare") == nullptr || !e.find("compare")->as_bool()) continue;
    engine::SubmitOptions so;
    so.want_mask = true;
    const engine::MaskResult r = eng->submit(engine::BatchClip{rid, clip_path, {}}, so);
    ++compared;
    if (!r.row.ok()) {
      fail(rid, "in-process engine did not accept the clip: " + r.row.error);
      continue;
    }
    const std::string mismatch = rescorer.check(r, clip);
    if (!mismatch.empty()) fail(rid, "in-process " + mismatch);
    if (kind == "pgm") {
      if (engine::encode_mask_pgm(r.mask) != body)
        fail(rid, "PGM body differs from the in-process engine's mask");
      continue;
    }
    const Value* row = e.find("row");
    if (row == nullptr) {
      fail(rid, "manifest entry has no row");
      continue;
    }
    if (row->string_or("stage", "") != engine::batch_stage_name(r.row.stage) ||
        row->number_or("l2_px", -1.0) != r.row.l2_px ||
        row->number_or("l2_nm2", -1.0) != r.row.l2_nm2 ||
        row->number_or("pvb_nm2", -1.0) != static_cast<double>(r.row.pvb_nm2) ||
        row->number_or("ilt_iterations", -1.0) != r.row.ilt_iterations)
      fail(rid, "JSON row differs from the in-process engine: " +
                    row_json(r.row).dump());
  }
  doc.set("rescored", num(rescored));
  doc.set("compared", num(compared));
  doc.set("wrong", std::move(wrong));
  doc.set("pvb_nm2", std::move(pvb));
  if (trace) {
    Value layers = Value::object();
    layers.set("engine.construct_s", num(construct_s));
    layers.set("kernels", kernels_probe(opts, tracer));
    layers.set("fft.lookups_per_gradient",
               num(fft_lookups_per_gradient(*eng, geom::Layout::load(
                       manifest.items().at(0).string_or("clip_path", "")))));
    doc.set("layers", std::move(layers));
  }
  write_out(a, doc);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_harness train|session|oneshot|"
                 "clips|verify-serve [--key value ...]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const Args args(argc, argv);
    if (cmd == "train") return cmd_train(args);
    if (cmd == "session") return cmd_session(args);
    if (cmd == "oneshot") return cmd_oneshot(args);
    if (cmd == "clips") return cmd_clips(args);
    if (cmd == "verify-serve") return cmd_verify_serve(args);
    std::fprintf(stderr, "perfbench_harness: unknown subcommand '%s'\n", cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
