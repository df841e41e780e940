#include "serve/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/atomic_file.hpp"
#include "common/cpu.hpp"
#include "common/failpoint.hpp"
#include "common/net.hpp"
#include "common/sectioned_file.hpp"
#include "common/status.hpp"
#include "common/version.hpp"
#include "engine/clip_io.hpp"
#include "litho/kernels.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ganopc::serve {

namespace {

constexpr std::size_t kReadChunk = 64u << 10;
constexpr double kEwmaAlpha = 0.3;

bool valid_request_id(const std::string& id) {
  if (id.empty() || id.size() > 64 || id[0] == '.') return false;
  return std::all_of(id.begin(), id.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
  });
}

int http_code_for(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return 200;
    case StatusCode::kInvalidInput: return 400;
    case StatusCode::kDeadlineExceeded: return 504;
    case StatusCode::kCancelled: return 503;
    case StatusCode::kQuarantined: return 502;
    case StatusCode::kInternal: return 500;
    default: return 422;  // kLithoNumeric / kIltStalled / kIo: bad input data
  }
}

std::string error_body(const std::string& id, const std::string& error,
                       StatusCode code = StatusCode::kInternal) {
  json::Value obj = json::Value::object();
  if (!id.empty()) obj.set("id", json::Value::string(id));
  obj.set("ok", json::Value::boolean(false));
  obj.set("code", json::Value::string(status_code_name(code)));
  obj.set("error", json::Value::string(error));
  return obj.dump();
}

std::string retry_after(double seconds) {
  return std::to_string(
      std::max(1L, std::lround(std::ceil(std::max(0.0, seconds)))));
}

// ---- per-request stage attribution (DESIGN.md §16) ----

struct StageSeconds {
  double queue_s = 0.0;     ///< admission -> supervisor dispatch
  double dispatch_s = 0.0;  ///< dispatch -> worker pickup (pipe transit)
  double decode_s = 0.0;    ///< layout load/parse inside the worker
  double litho_s = 0.0;     ///< aerial/gradient/pv-band simulation
  double ilt_s = 0.0;       ///< ILT solver wall time
  double encode_s = 0.0;    ///< result row + mask PGM encoding
};

void encode_stages(ByteWriter& w, const StageSeconds& s) {
  w.pod<double>(s.queue_s);
  w.pod<double>(s.dispatch_s);
  w.pod<double>(s.decode_s);
  w.pod<double>(s.litho_s);
  w.pod<double>(s.ilt_s);
  w.pod<double>(s.encode_s);
}

StageSeconds decode_stages(ByteReader& r) {
  StageSeconds s;
  s.queue_s = r.pod<double>();
  s.dispatch_s = r.pod<double>();
  s.decode_s = r.pod<double>();
  s.litho_s = r.pod<double>();
  s.ilt_s = r.pod<double>();
  s.encode_s = r.pod<double>();
  return s;
}

/// Sum of a named histogram's observations, 0 when absent.
double hist_sum(const obs::Snapshot& snap, std::string_view name) {
  const obs::HistogramSnapshot* h = snap.find_histogram(name);
  return h != nullptr ? h->sum : 0.0;
}

/// Total litho seconds: every `litho.*.seconds` duration histogram.
double litho_seconds(const obs::Snapshot& snap) {
  double total = 0.0;
  for (const auto& h : snap.histograms) {
    if (h.name.rfind("litho.", 0) == 0 && h.name.size() > 8 &&
        h.name.compare(h.name.size() - 8, 8, ".seconds") == 0)
      total += h.sum;
  }
  return total;
}

std::string hex_id(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string format_seconds(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", s);
  return buf;
}

}  // namespace

Server::Server(const engine::Engine& engine, ServeConfig serve)
    : engine_(engine),
      serve_(std::move(serve)) {
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput, serve_.workers >= 1,
                     "serve: workers must be >= 1");
  GANOPC_TYPED_CHECK(StatusCode::kInvalidInput, serve_.max_queue >= 1,
                     "serve: max-queue must be >= 1");
}

Server::~Server() {
  for (auto& [fd, conn] : conns_) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

proc::SupervisorConfig Server::supervisor_config() {
  proc::SupervisorConfig cfg;
  cfg.workers = serve_.workers;
  cfg.quarantine_kills = serve_.quarantine_kills;
  cfg.heartbeat_timeout_s = serve_.heartbeat_timeout_s;
  cfg.limits.mem_mb = serve_.worker_mem_mb;
  cfg.limits.cpu_s = serve_.worker_cpu_s;
  cfg.seed = serve_.seed;
  // Workers fork while connections are live; a child holding a dup of a
  // client socket would keep the connection half-open after the daemon hangs
  // up, so every inherited serve fd is closed right after fork.
  cfg.child_setup = [this] {
    if (listen_fd_ >= 0) ::close(listen_fd_);
    for (auto& [fd, conn] : conns_) ::close(fd);
  };
  return cfg;
}

// ---------------------------------------------------------------- worker side

std::string Server::worker_entry(const std::string& payload, int crashes) const {
  const std::uint64_t recv_ns = obs::monotonic_ns();
  ByteReader r(payload.data(), payload.size(), "serve task payload");
  const std::string id = r.str(64);
  const std::string spool = r.str(4096);
  const double deadline_abs_s = r.pod<double>();
  const bool want_mask = r.pod<std::uint8_t>() != 0;
  const bool degraded = r.pod<std::uint8_t>() != 0;
  const std::uint64_t admit_ns = r.pod<std::uint64_t>();

  engine::maybe_inject_clip_fault(id, crashes);

  // Stage attribution (DESIGN.md §16): queue/dispatch from the wire-carried
  // clocks (workers are fork twins, CLOCK_MONOTONIC is shared), decode/
  // litho/ILT from per-task deltas of the engine's duration histograms.
  const proc::TaskHeader th = proc::current_task_header();
  StageSeconds stages;
  if (admit_ns != 0 && th.dispatch_ns >= admit_ns)
    stages.queue_s = static_cast<double>(th.dispatch_ns - admit_ns) * 1e-9;
  if (th.dispatch_ns != 0 && recv_ns >= th.dispatch_ns)
    stages.dispatch_s = static_cast<double>(recv_ns - th.dispatch_ns) * 1e-9;
  if (th.trace_id != 0 && admit_ns != 0 && th.dispatch_ns >= admit_ns) {
    // Trace-only (the supervisor owns the serve.stage.* histograms; a
    // metric here would double-count once the delta merges).
    static const obs::SpanSite& queue_site =
        obs::span_site("serve.stage.queue");
    obs::record_span(queue_site, admit_ns, th.dispatch_ns, th.trace_id,
                     obs::next_span_id(), th.parent_span,
                     /*with_metrics=*/false);
  }

  const bool track_stages = obs::metrics_enabled();
  obs::Snapshot before;
  if (track_stages) before = obs::snapshot();

  engine::MaskResult result;
  const double remaining_s = deadline_abs_s - net::now_s();
  if (remaining_s <= 0.0) {
    // The request's budget burned away in the queue; answer without paying
    // for an optimization nobody is waiting for.
    result.row.id = id;
    result.row.source = spool;
    result.row.code = StatusCode::kDeadlineExceeded;
    result.row.error = "deadline expired before the request reached a worker";
  } else {
    // The breaker sends degraded requests straight to MB-OPC; each crash a
    // request survives drops one more rung (the engine clamps at MB-OPC).
    engine::SubmitOptions opts;
    opts.deadline_s = remaining_s;
    opts.start_rung = (degraded ? engine_.rung_index("mbopc") : 0) + crashes;
    opts.want_mask = want_mask;
    // Thread the proc-installed request context through SubmitOptions so
    // the engine's spans nest under the proc.task span.
    const obs::TraceContext tc = obs::trace_context();
    opts.trace_id = tc.trace_id;
    opts.parent_span = tc.parent_span;
    result = engine_.submit(engine::BatchClip{id, spool, {}}, opts);
  }

  if (track_stages) {
    const obs::Snapshot after = obs::snapshot();
    stages.decode_s = hist_sum(after, "batch.load_clip.seconds") -
                      hist_sum(before, "batch.load_clip.seconds");
    stages.litho_s = litho_seconds(after) - litho_seconds(before);
    stages.ilt_s = hist_sum(after, "ilt.optimize.seconds") -
                   hist_sum(before, "ilt.optimize.seconds");
  }

  const std::uint64_t encode_start_ns = obs::monotonic_ns();
  ByteWriter w;
  engine::encode_clip_result(w, result.row);
  const bool has_mask =
      want_mask && result.row.ok() && !result.mask.data.empty();
  w.pod<std::uint8_t>(has_mask ? 1 : 0);
  if (has_mask) w.str(engine::encode_mask_pgm(result.mask));
  const std::uint64_t encode_end_ns = obs::monotonic_ns();
  stages.encode_s =
      static_cast<double>(encode_end_ns - encode_start_ns) * 1e-9;
  if (th.trace_id != 0) {
    static const obs::SpanSite& encode_site =
        obs::span_site("serve.stage.encode");
    obs::record_span(encode_site, encode_start_ns, encode_end_ns, th.trace_id,
                     obs::next_span_id(), obs::trace_context().parent_span,
                     /*with_metrics=*/false);
  }
  encode_stages(w, stages);
  return w.buffer();
}

// ------------------------------------------------------------------- startup

void Server::setup_spool() {
  spool_dir_ = serve_.spool_dir.empty()
                   ? "/tmp/ganopc-serve-" + std::to_string(::getpid())
                   : serve_.spool_dir;
  if (::mkdir(spool_dir_.c_str(), 0700) != 0 && errno != EEXIST)
    GANOPC_TYPED_CHECK(StatusCode::kIo, false,
                       "serve: cannot create spool dir " << spool_dir_ << ": "
                                                         << std::strerror(errno));
}

void Server::setup_listener() {
  if (!serve_.unix_socket.empty()) {
    listen_fd_ = net::listen_unix(serve_.unix_socket);
    std::printf("ganopc serve: listening on %s (%d workers)\n",
                serve_.unix_socket.c_str(), serve_.workers);
  } else {
    listen_fd_ = net::listen_tcp(serve_.host, serve_.port);
    const int port = net::bound_port(listen_fd_);
    std::printf("ganopc serve: listening on %s:%d (%d workers)\n",
                serve_.host.c_str(), port, serve_.workers);
    if (!serve_.port_file.empty())
      atomic_write_file(serve_.port_file,
                        [&](std::ostream& out) { out << port << "\n"; });
  }
  std::fflush(stdout);
}

// ----------------------------------------------------------------- main loop

int Server::run() {
  setup_spool();
  setup_listener();
  supervisor_ = std::make_unique<proc::Supervisor>(
      supervisor_config(),
      [this](const std::string& payload, int crashes) {
        return worker_entry(payload, crashes);
      });
  supervisor_->start([this](const proc::TaskResult& r) { on_result(r); });

  if (obs::ledger_enabled()) {
    obs::LedgerRecord rec("serve_start");
    rec.field("workers", serve_.workers)
        .field("max_queue", serve_.max_queue)
        .field("default_deadline_s", serve_.default_deadline_s);
    obs::ledger_emit(rec);
  }

  while (true) {
    double now = net::now_s();
    if (!draining_ && serve_.stop != nullptr &&
        serve_.stop->load(std::memory_order_relaxed))
      begin_drain();
    if (draining_) {
      const bool out_pending = std::any_of(
          conns_.begin(), conns_.end(),
          [](const auto& kv) { return kv.second.out.size() > kv.second.out_off; });
      if (pending_.empty() && !out_pending) break;
      if (now > drain_deadline_s_) {
        // Grace exhausted: cancel what never dispatched, deadline-out the
        // rest, and leave — every request still gets a typed answer.
        supervisor_->set_dispatch_enabled(false);
        supervisor_->cancel_queued("cancelled: serve drain grace expired");
        fail_all_pending(504, "serve drained before the request finished");
        break;
      }
    }

    std::vector<struct pollfd> fds;
    if (!draining_ && listen_fd_ >= 0 &&
        conns_.size() < static_cast<std::size_t>(serve_.max_conns))
      fds.push_back({listen_fd_, POLLIN, 0});
    const std::size_t conn_base = fds.size();
    std::vector<int> conn_fds;
    for (auto& [fd, conn] : conns_) {
      short events = 0;
      if (!conn.awaiting_result && conn.out.size() == conn.out_off &&
          conn.parser.state() == ParseState::NeedMore)
        events |= POLLIN;
      if (conn.out.size() > conn.out_off) events |= POLLOUT;
      if (events == 0) continue;
      fds.push_back({fd, events, 0});
      conn_fds.push_back(fd);
    }
    supervisor_->collect_poll_fds(fds);
    (void)::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);

    if (conn_base > 0 && (fds[0].revents & POLLIN) != 0) accept_clients();
    for (std::size_t i = 0; i < conn_fds.size(); ++i) {
      const auto it = conns_.find(conn_fds[i]);
      if (it == conns_.end()) continue;
      const short re = fds[conn_base + i].revents;
      if ((re & (POLLERR | POLLNVAL)) != 0) {
        close_conn(it->first);
        continue;
      }
      if ((re & (POLLIN | POLLHUP)) != 0) read_conn(it->second);
    }
    // Flush every connection with queued bytes (not just POLLOUT hits): the
    // trickle failpoint and freshly queued responses want a write attempt
    // even when the previous poll did not ask for writability.
    for (auto it = conns_.begin(); it != conns_.end();) {
      Conn& conn = (it++)->second;
      if (conn.out.size() > conn.out_off) flush_conn(conn);
    }

    try {
      supervisor_->pump(0.0);
    } catch (const StatusError& e) {
      // Every worker slot retired: the daemon survives in degraded form —
      // pending requests get typed 503s and /readyz reports unready.
      if (!pool_dead_) {
        pool_dead_ = true;
        std::fprintf(stderr, "ganopc serve: worker pool lost: %s\n", e.what());
        if (obs::ledger_enabled()) {
          obs::LedgerRecord rec("serve_pool_lost");
          rec.field("error", e.what());
          obs::ledger_emit(rec);
        }
        fail_all_pending(503, std::string("worker pool lost: ") + e.what());
      }
    }
    observe_deaths();
    now = net::now_s();
    sweep_timeouts(now);
    if (obs::metrics_enabled()) {
      obs::gauge("serve.queue.depth").set(static_cast<double>(queued_depth()));
      obs::gauge("serve.inflight")
          .set(static_cast<double>(supervisor_->inflight()));
    }
  }

  supervisor_->shutdown(2.0);
  for (auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!serve_.unix_socket.empty()) ::unlink(serve_.unix_socket.c_str());
  ::rmdir(spool_dir_.c_str());  // best effort; spool files are per-request
  if (obs::ledger_enabled()) {
    obs::LedgerRecord rec("serve_stop");
    rec.field("requests", requests_)
        .field("completed", completed_)
        .field("worker_deaths",
               static_cast<std::int64_t>(supervisor_->crash_reports().size()));
    obs::ledger_emit(rec);
  }
  std::printf("ganopc serve: drained (%lld request(s) answered, %zu worker death(s))\n",
              static_cast<long long>(completed_),
              supervisor_->crash_reports().size());
  return 0;
}

// -------------------------------------------------------------- connections

void Server::accept_clients() {
  for (;;) {
    const int fd = net::accept_client(listen_fd_);
    if (fd < 0) return;
    if (GANOPC_FAILPOINT("serve.accept_fault")) {
      // Simulated transient accept-path fault: the connection is dropped on
      // the floor and the daemon moves on.
      obs::counter("serve.conns.dropped").inc();
      ::close(fd);
      continue;
    }
    Conn conn;
    conn.fd = fd;
    conn.serial = next_serial_++;
    conn.parser = HttpRequestParser(
        HttpLimits{16u << 10, serve_.max_body_bytes});
    conn.io_deadline_s = net::now_s() + serve_.read_timeout_s;
    conn.slow_trickle = GANOPC_FAILPOINT("serve.slow_client");
    obs::counter("serve.conns.accepted").inc();
    conns_.emplace(fd, std::move(conn));
  }
}

void Server::close_conn(int fd) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  ::close(fd);
  conns_.erase(it);
}

void Server::read_conn(Conn& conn) {
  char buf[kReadChunk];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n == 0) {
      close_conn(conn.fd);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      close_conn(conn.fd);
      return;
    }
    const ParseState st = conn.parser.feed(buf, static_cast<std::size_t>(n));
    if (st == ParseState::Error) {
      obs::counter("serve.http.malformed").inc();
      conn.close_after_flush = true;
      respond(conn, conn.parser.error_code(),
              error_body("", conn.parser.error_reason(),
                         StatusCode::kInvalidInput));
      return;
    }
    if (st == ParseState::Complete) {
      const HttpRequest req = conn.parser.request();
      conn.parser.reset();
      handle_request(conn, req);
      return;
    }
  }
}

void Server::flush_conn(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    // serve.slow_client armed at accept: trickle one byte per loop tick so
    // the write path's partial-write handling and write deadline are
    // exercised deterministically.
    const std::size_t n =
        conn.slow_trickle ? 1 : conn.out.size() - conn.out_off;
    const ssize_t w = ::send(conn.fd, conn.out.data() + conn.out_off, n,
                             MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      close_conn(conn.fd);
      return;
    }
    conn.out_off += static_cast<std::size_t>(w);
    if (conn.slow_trickle) return;  // one byte per tick
  }
  conn.out.clear();
  conn.out_off = 0;
  if (conn.close_after_flush) {
    close_conn(conn.fd);
    return;
  }
  // Keep-alive: arm the idle/read deadline for the next request.
  conn.io_deadline_s = net::now_s() + serve_.read_timeout_s;
}

void Server::sweep_timeouts(double now) {
  std::vector<int> doomed;
  std::vector<int> loris;
  for (auto& [fd, conn] : conns_) {
    if (conn.awaiting_result || conn.io_deadline_s <= 0.0 ||
        now <= conn.io_deadline_s)
      continue;
    if (conn.out.size() > conn.out_off) {
      // Stalled reader: the response would not drain within write_timeout_s.
      obs::counter("serve.conns.write_timeout").inc();
      doomed.push_back(fd);
    } else if (conn.parser.started()) {
      loris.push_back(fd);
    } else {
      doomed.push_back(fd);  // idle keep-alive connection
    }
  }
  for (const int fd : doomed) close_conn(fd);
  for (const int fd : loris) {
    // Slow-loris: bytes arrived but never a full request. Answer 408 and
    // hang up (outside the sweep above — respond() may close + erase).
    const auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    obs::counter("serve.conns.read_timeout").inc();
    it->second.close_after_flush = true;
    respond(it->second, 408,
            error_body("", "request not received within timeout",
                       StatusCode::kDeadlineExceeded));
  }
}

void Server::respond(
    Conn& conn, int code, const std::string& body,
    std::string_view content_type,
    const std::vector<std::pair<std::string, std::string>>& extra) {
  conn.out = http_response(code, body, content_type, extra,
                           conn.close_after_flush);
  conn.out_off = 0;
  conn.awaiting_result = false;
  conn.io_deadline_s = net::now_s() + serve_.write_timeout_s;
  flush_conn(conn);
}

// ----------------------------------------------------------------- requests

void Server::handle_request(Conn& conn, const HttpRequest& req) {
  if (req.wants_close()) conn.close_after_flush = true;
  const std::string path = req.path();
  if (path == "/v1/optimize") {
    if (req.method != "POST") {
      respond(conn, 405, error_body("", "use POST", StatusCode::kInvalidInput));
      return;
    }
    handle_optimize(conn, req);
    return;
  }
  if (req.method != "GET" && req.method != "HEAD") {
    respond(conn, 405, error_body("", "use GET", StatusCode::kInvalidInput));
    return;
  }
  if (path == "/healthz") {
    respond(conn, 200, "{\"ok\":true}");
    return;
  }
  if (path == "/readyz") {
    const bool ready = !draining_ && !pool_dead_;
    json::Value obj = json::Value::object();
    obj.set("ready", json::Value::boolean(ready));
    obj.set("draining", json::Value::boolean(draining_));
    obj.set("breaker", json::Value::string(
                           breaker_open(net::now_s()) ? "open" : "closed"));
    obj.set("workers_lost",
            json::Value::number(
                static_cast<double>(supervisor_->crash_reports().size())));
    // Build/runtime identity: which binary, SIMD arm, and litho model this
    // fleet member actually runs (fleet-skew triage reads this first).
    obj.set("version", json::Value::string(std::string(build_version())));
    obj.set("simd", json::Value::string(simd_level_name(simd_level())));
    obj.set("litho_backend", json::Value::string(engine_.backend_name()));
    obj.set("tcc_kernels",
            json::Value::number(
                static_cast<double>(engine_.sim().kernels().count())));
    obj.set("captured_energy",
            json::Value::number(engine_.sim().kernels().captured_energy()));
    obj.set("workers", json::Value::number(static_cast<double>(serve_.workers)));
    respond(conn, ready ? 200 : 503, obj.dump());
    return;
  }
  if (path == "/metrics") {
    respond(conn, 200, obs::to_prometheus(obs::snapshot()),
            "text/plain; version=0.0.4");
    return;
  }
  respond(conn, 404, error_body("", "no such endpoint: " + path,
                                StatusCode::kInvalidInput));
}

void Server::handle_optimize(Conn& conn, const HttpRequest& req) {
  obs::counter("serve.requests.total").inc();
  ++requests_;
  const double now = net::now_s();

  if (draining_ || pool_dead_) {
    obs::counter("serve.rejected.unavailable").inc();
    respond(conn, 503,
            error_body("", draining_ ? "draining" : "worker pool lost",
                       StatusCode::kCancelled),
            "application/json", {{"Retry-After", "1"}});
    return;
  }
  const std::size_t queued = queued_depth();
  if (queued >= static_cast<std::size_t>(serve_.max_queue)) {
    obs::counter("serve.rejected.queue_full").inc();
    respond(conn, 503,
            error_body("", "request queue full", StatusCode::kCancelled),
            "application/json",
            {{"Retry-After", retry_after(std::max(1.0, ewma_task_s_))}});
    return;
  }

  // ---- decode the request body into (id, deadline, spooled clip) ----
  std::string id;
  double deadline_s = 0.0;
  std::string clip_bytes;
  std::string ext = ".txt";

  const std::string* ctype = req.header("Content-Type");
  const bool is_json =
      ctype != nullptr && ctype->rfind("application/json", 0) == 0;
  const bool is_gds =
      req.query_param("format") == "gds" ||
      (ctype != nullptr && ctype->rfind("application/octet-stream", 0) == 0);
  if (is_json) {
    json::Value doc;
    if (!json::try_parse(req.body, doc) || !doc.is_object()) {
      respond(conn, 400,
              error_body("", "request body is not valid JSON",
                         StatusCode::kInvalidInput));
      return;
    }
    id = doc.string_or("id", "");
    deadline_s = doc.number_or("deadline_s", 0.0);
    const json::Value* layout = doc.find("layout");
    if (layout == nullptr || !layout->is_string()) {
      respond(conn, 400,
              error_body(id, "JSON requests need a \"layout\" text field",
                         StatusCode::kInvalidInput));
      return;
    }
    clip_bytes = layout->as_string();
  } else {
    clip_bytes = req.body;
    if (is_gds) ext = ".gds";
  }
  if (clip_bytes.empty()) {
    respond(conn, 400,
            error_body(id, "empty request body", StatusCode::kInvalidInput));
    return;
  }
  if (id.empty()) {
    if (const std::string* h = req.header("X-Request-Id")) id = *h;
  }
  if (id.empty()) id = "req-" + std::to_string(requests_);
  if (!valid_request_id(id)) {
    respond(conn, 400,
            error_body("", "request id must match [A-Za-z0-9._-]{1,64}",
                       StatusCode::kInvalidInput));
    return;
  }
  if (pending_.count(id) != 0) {
    respond(conn, 400,
            error_body(id, "a request with this id is already in flight",
                       StatusCode::kInvalidInput));
    return;
  }
  if (deadline_s <= 0.0) {
    const std::string q = req.query_param("deadline_s");
    if (!q.empty()) deadline_s = std::atof(q.c_str());
  }
  if (deadline_s <= 0.0) {
    if (const std::string* h = req.header("X-Deadline-S"))
      deadline_s = std::atof(h->c_str());
  }
  if (deadline_s <= 0.0) deadline_s = serve_.default_deadline_s;
  deadline_s = std::min(deadline_s, serve_.max_deadline_s);

  // Deadline-aware admission: if the queue's expected service time already
  // exceeds the request's budget, shed now with honest Retry-After instead
  // of burning a worker on a doomed request.
  if (ewma_task_s_ > 0.0 && serve_.workers > 0) {
    const double est_wait_s =
        ewma_task_s_ * static_cast<double>(supervisor_->pending()) /
        static_cast<double>(serve_.workers);
    if (est_wait_s > deadline_s) {
      obs::counter("serve.rejected.deadline").inc();
      respond(conn, 429,
              error_body(id,
                         "deadline unmeetable: estimated queue wait " +
                             std::to_string(est_wait_s) + "s exceeds budget",
                         StatusCode::kDeadlineExceeded),
              "application/json",
              {{"Retry-After", retry_after(est_wait_s - deadline_s)}});
      return;
    }
  }

  // ---- spool + submit ----
  const std::string spool =
      spool_dir_ + "/r" + std::to_string(requests_) + "-" + id + ext;
  {
    std::ofstream out(spool, std::ios::binary | std::ios::trunc);
    out.write(clip_bytes.data(),
              static_cast<std::streamsize>(clip_bytes.size()));
    if (!out.good()) {
      respond(conn, 500,
              error_body(id, "cannot spool request body", StatusCode::kIo));
      return;
    }
  }

  const bool want_mask = req.query_param("mask") == "pgm";
  const bool degraded = breaker_open(now);

  // Mint the request's trace identity at admission (DESIGN.md §16): one
  // trace id for the whole request, one span id for its root. Both travel
  // in the kTask frame header so worker spans nest under the root.
  const std::uint64_t trace_id = obs::next_span_id();
  const std::uint64_t root_span = obs::next_span_id();
  const std::uint64_t admit_ns = obs::monotonic_ns();

  ByteWriter w;
  w.str(id);
  w.str(spool);
  w.pod<double>(now + deadline_s);
  w.pod<std::uint8_t>(want_mask ? 1 : 0);
  w.pod<std::uint8_t>(degraded ? 1 : 0);
  w.pod<std::uint64_t>(admit_ns);

  proc::Task task;
  task.id = id;
  task.payload = w.buffer();
  // SIGKILL backstop just above the cooperative budget: the watchdog inside
  // the worker should win; this catches a worker that stopped checking.
  task.deadline_s = deadline_s + std::max(5.0, 0.25 * deadline_s);
  task.trace_id = trace_id;
  task.parent_span = root_span;

  PendingReq pr;
  pr.conn_fd = conn.fd;
  pr.conn_serial = conn.serial;
  pr.want_mask = want_mask;
  pr.degraded = degraded;
  pr.deadline_s = deadline_s;
  pr.submit_s = now;
  pr.spool_path = spool;
  pr.trace_id = trace_id;
  pr.span_id = root_span;
  pr.admit_ns = admit_ns;
  pending_.emplace(id, std::move(pr));
  conn.awaiting_result = true;
  conn.io_deadline_s = 0.0;  // the worker pipeline owns the deadline now

  if (obs::ledger_enabled()) {
    obs::LedgerRecord rec("request_start");
    rec.field("id", id)
        .field("deadline_s", deadline_s)
        .field("queued", static_cast<std::int64_t>(queued))
        .field("degraded", degraded)
        .field("trace", hex_id(trace_id));
    obs::ledger_emit(rec);
  }
  supervisor_->submit(std::move(task));
}

// ------------------------------------------------------------------ results

void Server::on_result(const proc::TaskResult& tr) {
  const auto it = pending_.find(tr.id);
  if (it == pending_.end()) return;  // already failed out (pool loss, drain)
  const PendingReq pr = std::move(it->second);
  pending_.erase(it);
  ::unlink(pr.spool_path.c_str());
  const double wall_s = net::now_s() - pr.submit_s;

  int http = 500;
  std::string body;
  std::string mask_pgm;
  engine::BatchClipResult res;
  StageSeconds stages;
  bool decoded = false;

  if (tr.cancelled) {
    http = 503;
    body = error_body(tr.id, tr.error, StatusCode::kCancelled);
  } else if (tr.quarantined) {
    http = 502;
    body = error_body(tr.id,
                      tr.error.empty()
                          ? "request crashed " +
                                std::to_string(serve_.quarantine_kills) +
                                " workers and was quarantined"
                          : tr.error,
                      StatusCode::kQuarantined);
  } else if (!tr.error.empty()) {
    http = 500;
    body = error_body(tr.id, tr.error, StatusCode::kInternal);
  } else {
    try {
      ByteReader r(tr.payload.data(), tr.payload.size(), "serve result");
      res = engine::decode_clip_result(r, tr.id, "serve result");
      if (r.pod<std::uint8_t>() != 0) mask_pgm = r.str((64u << 20) + 64);
      stages = decode_stages(r);
      decoded = true;
    } catch (const std::exception& e) {
      http = 500;
      body = error_body(tr.id, std::string("undecodable worker response: ") +
                                   e.what());
    }
  }

  if (decoded) {
    http = http_code_for(res.code);
    consecutive_deaths_ = 0;  // a surviving worker closes the breaker window
    const double sample = res.runtime_s > 0.0 ? res.runtime_s : wall_s;
    ewma_task_s_ = ewma_task_s_ <= 0.0
                       ? sample
                       : kEwmaAlpha * sample + (1.0 - kEwmaAlpha) * ewma_task_s_;
    json::Value obj = json::Value::object();
    obj.set("id", json::Value::string(tr.id));
    obj.set("ok", json::Value::boolean(res.ok()));
    obj.set("code", json::Value::string(status_code_name(res.code)));
    obj.set("stage", json::Value::string(engine::batch_stage_name(res.stage)));
    obj.set("degraded", json::Value::boolean(pr.degraded));
    obj.set("crashes", json::Value::number(tr.crashes));
    obj.set("retries", json::Value::number(res.retries));
    obj.set("fallbacks", json::Value::number(res.fallbacks));
    obj.set("ilt_iterations", json::Value::number(res.ilt_iterations));
    obj.set("l2_px", json::Value::number(res.l2_px));
    obj.set("l2_nm2", json::Value::number(res.l2_nm2));
    obj.set("pvb_nm2", json::Value::number(static_cast<double>(res.pvb_nm2)));
    obj.set("runtime_s", json::Value::number(res.runtime_s));
    obj.set("wall_s", json::Value::number(wall_s));
    obj.set("trace", json::Value::string(hex_id(pr.trace_id)));
    if (!res.ok()) obj.set("error", json::Value::string(res.error));
    body = obj.dump();
  }

  ++completed_;
  obs::counter(http < 400 ? "serve.requests.ok" : "serve.requests.error").inc();
  if (obs::metrics_enabled()) {
    obs::histogram("serve.request_s", obs::time_buckets()).observe(wall_s);
    if (decoded) {
      // The supervisor owns the fleet-visible stage histograms; the worker
      // ships raw seconds and records trace-only spans (no double count).
      obs::histogram("serve.stage.queue_s", obs::time_buckets())
          .observe(stages.queue_s);
      obs::histogram("serve.stage.dispatch_s", obs::time_buckets())
          .observe(stages.dispatch_s);
      obs::histogram("serve.stage.decode_s", obs::time_buckets())
          .observe(stages.decode_s);
      obs::histogram("serve.stage.litho_s", obs::time_buckets())
          .observe(stages.litho_s);
      obs::histogram("serve.stage.ilt_s", obs::time_buckets())
          .observe(stages.ilt_s);
      obs::histogram("serve.stage.encode_s", obs::time_buckets())
          .observe(stages.encode_s);
    }
  }
  // The request root span: admission to delivery, recorded explicitly since
  // it crosses many event-loop iterations. Worker spans parent under it.
  {
    static const obs::SpanSite& request_site = obs::span_site("serve.request");
    obs::record_span(request_site, pr.admit_ns, obs::monotonic_ns(),
                     pr.trace_id, pr.span_id, 0);
  }
  if (obs::ledger_enabled()) {
    obs::LedgerRecord rec("request_end");
    rec.field("id", tr.id)
        .field("http", http)
        .field("code", status_code_name(decoded ? res.code
                                        : tr.cancelled
                                            ? StatusCode::kCancelled
                                        : tr.quarantined
                                            ? StatusCode::kQuarantined
                                            : StatusCode::kInternal))
        .field("stage", decoded ? engine::batch_stage_name(res.stage) : "Failed")
        .field("crashes", tr.crashes)
        .field("degraded", pr.degraded)
        .field("wall_s", wall_s)
        .field("trace", hex_id(pr.trace_id));
    if (decoded) {
      rec.field("queue_s", stages.queue_s)
          .field("dispatch_s", stages.dispatch_s)
          .field("decode_s", stages.decode_s)
          .field("litho_s", stages.litho_s)
          .field("ilt_s", stages.ilt_s)
          .field("encode_s", stages.encode_s);
    }
    obs::ledger_emit(rec);
  }

  std::vector<std::pair<std::string, std::string>> extra;
  extra.emplace_back("X-Ganopc-Trace", hex_id(pr.trace_id));
  if (decoded) {
    extra.emplace_back("X-Ganopc-Stage-Queue-S", format_seconds(stages.queue_s));
    extra.emplace_back("X-Ganopc-Stage-Dispatch-S",
                       format_seconds(stages.dispatch_s));
    extra.emplace_back("X-Ganopc-Stage-Decode-S",
                       format_seconds(stages.decode_s));
    extra.emplace_back("X-Ganopc-Stage-Litho-S", format_seconds(stages.litho_s));
    extra.emplace_back("X-Ganopc-Stage-Ilt-S", format_seconds(stages.ilt_s));
    extra.emplace_back("X-Ganopc-Stage-Encode-S",
                       format_seconds(stages.encode_s));
  }
  if (decoded && pr.want_mask && http == 200 && !mask_pgm.empty()) {
    extra.emplace_back("X-Ganopc-Id", tr.id);
    extra.emplace_back("X-Ganopc-Stage", engine::batch_stage_name(res.stage));
    extra.emplace_back("X-Ganopc-L2-Nm2", std::to_string(res.l2_nm2));
    extra.emplace_back("X-Ganopc-Crashes", std::to_string(tr.crashes));
    deliver(pr, 200, mask_pgm, "image/x-portable-graymap", extra);
  } else {
    deliver(pr, http, body, "application/json", extra);
  }
}

void Server::deliver(
    const PendingReq& pr, int code, const std::string& body,
    std::string_view content_type,
    const std::vector<std::pair<std::string, std::string>>& extra) {
  const auto it = conns_.find(pr.conn_fd);
  if (it == conns_.end() || it->second.serial != pr.conn_serial)
    return;  // the client hung up; the ledger already has the outcome
  Conn& conn = it->second;
  conn.out = http_response(code, body, content_type, extra,
                           conn.close_after_flush);
  conn.out_off = 0;
  conn.awaiting_result = false;
  conn.io_deadline_s = net::now_s() + serve_.write_timeout_s;
  flush_conn(conn);
}

void Server::fail_all_pending(int http_code, const std::string& error) {
  std::vector<std::string> ids;
  ids.reserve(pending_.size());
  for (const auto& [id, pr] : pending_) ids.push_back(id);
  for (const std::string& id : ids) {
    const auto it = pending_.find(id);
    if (it == pending_.end()) continue;
    const PendingReq pr = std::move(it->second);
    pending_.erase(it);
    ::unlink(pr.spool_path.c_str());
    ++completed_;
    obs::counter("serve.requests.error").inc();
    if (obs::ledger_enabled()) {
      obs::LedgerRecord rec("request_end");
      rec.field("id", id)
          .field("http", http_code)
          .field("code", status_code_name(StatusCode::kCancelled))
          .field("stage", "Failed")
          .field("wall_s", net::now_s() - pr.submit_s);
      obs::ledger_emit(rec);
    }
    deliver(pr, http_code, error_body(id, error, StatusCode::kCancelled),
            "application/json", {});
  }
}

// ---------------------------------------------------------- breaker / drain

void Server::observe_deaths() {
  const auto& reports = supervisor_->crash_reports();
  const double now = net::now_s();
  for (; seen_deaths_ < reports.size(); ++seen_deaths_) ++consecutive_deaths_;
  if (!breaker_open(now) && consecutive_deaths_ >= serve_.breaker_kills) {
    breaker_until_s_ = now + serve_.breaker_cooldown_s;
    consecutive_deaths_ = 0;
    obs::counter("serve.breaker.trips").inc();
    if (obs::ledger_enabled()) {
      obs::LedgerRecord rec("breaker_open");
      rec.field("cooldown_s", serve_.breaker_cooldown_s)
          .field("worker_deaths", static_cast<std::int64_t>(reports.size()));
      obs::ledger_emit(rec);
    }
    std::fprintf(stderr,
                 "ganopc serve: circuit breaker open for %.0fs "
                 "(%d consecutive worker deaths) — degraded MB-OPC-only mode\n",
                 serve_.breaker_cooldown_s, serve_.breaker_kills);
  }
}

bool Server::breaker_open(double now) const { return now < breaker_until_s_; }

std::size_t Server::queued_depth() const {
  const std::size_t pending = supervisor_->pending();
  const std::size_t inflight = supervisor_->inflight();
  return pending > inflight ? pending - inflight : 0;
}

void Server::begin_drain() {
  draining_ = true;
  drain_deadline_s_ = net::now_s() + serve_.drain_grace_s;
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!serve_.unix_socket.empty()) ::unlink(serve_.unix_socket.c_str());
  if (obs::ledger_enabled()) {
    obs::LedgerRecord rec("serve_drain");
    rec.field("inflight", static_cast<std::int64_t>(supervisor_->inflight()))
        .field("queued", static_cast<std::int64_t>(queued_depth()));
    obs::ledger_emit(rec);
  }
  std::printf("ganopc serve: drain requested — finishing %zu request(s)\n",
              pending_.size());
  std::fflush(stdout);
}

}  // namespace ganopc::serve
