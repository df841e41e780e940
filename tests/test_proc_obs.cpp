// Cross-process observability under fault injection (DESIGN.md §16): worker
// registry deltas and span batches shipped over the proc wire must merge
// into the supervisor's registry exactly for clean tasks, stay monotonic
// and all-or-nothing when a worker is SIGKILLed mid-task, and worker spans
// must arrive carrying the dispatched trace context.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <chrono>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "proc/supervisor.hpp"

namespace ganopc::proc {
namespace {

struct ObsOn {
  ObsOn(bool metrics, bool trace) {
    obs::set_metrics_enabled(metrics);
    obs::set_trace_enabled(trace);
    obs::trace_clear();
  }
  ~ObsOn() {
    obs::set_metrics_enabled(false);
    obs::set_trace_enabled(false);
    obs::trace_clear();
  }
};

TEST(ProcObs, CleanTasksMergeExactCountersIntoSupervisor) {
  ObsOn on(true, false);
  obs::Counter& work = obs::counter("test.procobs.clean.work");
  obs::Histogram& h =
      obs::histogram("test.procobs.clean.seconds", obs::time_buckets());
  work.reset();
  h.reset();

  SupervisorConfig cfg;
  cfg.workers = 2;
  const WorkerFn fn = [](const std::string& payload, int) {
    obs::counter("test.procobs.clean.work").inc(10);
    obs::histogram("test.procobs.clean.seconds", obs::time_buckets())
        .observe(0.001);
    return payload;
  };

  std::vector<Task> tasks;
  for (int i = 0; i < 6; ++i)
    tasks.push_back(Task{"t" + std::to_string(i), "p", 0.0, 0, 0});

  // Deltas ship on the result pipe *before* each kResult frame, so by the
  // time the k-th on_result fires the supervisor registry already reflects
  // that task and every earlier one: >= 10 k — and the counter only ever
  // grows. It may run ahead of k: with two workers, a later task's delta can
  // be merged while an earlier task's kResult frame is still in flight on
  // the other worker's pipe; nothing orders frames across workers.
  std::uint64_t last_seen = 0, callbacks = 0;
  Supervisor sup(cfg, fn);
  const std::vector<TaskResult> results = sup.run(
      tasks, [&](const TaskResult& r) {
        ASSERT_EQ(r.error, "");
        const std::uint64_t now = work.value();
        ++callbacks;
        EXPECT_GE(now, 10 * callbacks);
        EXPECT_GE(now, last_seen);
        last_seen = now;
      });

  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(work.value(), 60u);  // exact: nothing lost, nothing doubled
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(obs::counter("proc.obs.delta_dropped").value(), 0u);
}

TEST(ProcObs, SigkilledWorkerDeltaIsAllOrNothingAndMonotonic) {
  ObsOn on(true, false);
  obs::Counter& work = obs::counter("test.procobs.kill.work");
  work.reset();

  SupervisorConfig cfg;
  cfg.workers = 2;
  cfg.quarantine_kills = 1;  // the poison task dies once, then quarantines
  cfg.heartbeat_interval_s = 0.1;
  const WorkerFn fn = [](const std::string& payload, int) {
    if (payload == "die") {
      // Increment, linger long enough for at least one heartbeat ship, then
      // die without ever writing a result: the increment arrives via the
      // heartbeat path (whole) or not at all — never torn.
      obs::counter("test.procobs.kill.work").inc(1000);
      std::this_thread::sleep_for(std::chrono::milliseconds(400));
      std::raise(SIGKILL);
    }
    obs::counter("test.procobs.kill.work").inc(10);
    return payload;
  };

  std::vector<Task> tasks;
  for (int i = 0; i < 4; ++i)
    tasks.push_back(Task{"clean" + std::to_string(i), "ok", 0.0, 0, 0});
  tasks.push_back(Task{"poison", "die", 0.0, 0, 0});

  std::uint64_t last_seen = 0;
  Supervisor sup(cfg, fn);
  const std::vector<TaskResult> results = sup.run(
      tasks, [&](const TaskResult&) {
        const std::uint64_t now = work.value();
        EXPECT_GE(now, last_seen);  // merged counters never move backwards
        last_seen = now;
      });

  ASSERT_EQ(results.size(), 5u);
  EXPECT_TRUE(results.back().quarantined);
  EXPECT_GE(sup.crash_reports().size(), 1u);

  // All four clean increments are guaranteed (shipped before their results);
  // the dying worker's +1000 lands whole via a pre-death heartbeat or is
  // dropped whole with its torn tail — fractional merges are impossible.
  const std::uint64_t v = work.value();
  EXPECT_GE(v, 40u);
  EXPECT_EQ((v - 40u) % 1000u, 0u) << "partial delta merged: " << v;
  EXPECT_LE(v, 1040u);
}

TEST(ProcObs, WorkerSpansArriveUnderTheDispatchedTraceContext) {
  ObsOn on(false, true);
  const std::uint64_t trace_id = obs::next_span_id();
  const std::uint64_t parent = obs::next_span_id();

  SupervisorConfig cfg;
  cfg.workers = 1;
  const WorkerFn fn = [](const std::string& payload, int) {
    GANOPC_OBS_SPAN("test.procobs.span.inner");
    return payload;
  };

  Supervisor sup(cfg, fn);
  const std::vector<TaskResult> results =
      sup.run({Task{"traced", "p", 0.0, trace_id, parent}});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].error, "");

  // The worker wrapped the task in a "proc.task" span parented under the
  // frame's trace context, and the WorkerFn's own span nests under that.
  std::uint64_t task_span = 0;
  bool saw_inner = false;
  for (const obs::TraceEvent& e : obs::trace_events()) {
    if (e.trace_id != trace_id) continue;
    EXPECT_NE(e.pid, 0u) << "worker span should carry its origin pid";
    if (std::string_view(e.name) == "proc.task") {
      EXPECT_EQ(e.parent_id, parent);
      task_span = e.span_id;
    }
  }
  for (const obs::TraceEvent& e : obs::trace_events()) {
    if (e.trace_id == trace_id &&
        std::string_view(e.name) == "test.procobs.span.inner") {
      saw_inner = true;
      EXPECT_EQ(e.parent_id, task_span);
    }
  }
  EXPECT_NE(task_span, 0u);
  EXPECT_TRUE(saw_inner);
}

}  // namespace
}  // namespace ganopc::proc
