// A small persistent thread pool with a deterministic parallel_for.
//
// Work is partitioned into contiguous index blocks so each worker touches a
// fixed slice regardless of scheduling; combined with per-slice accumulators
// this keeps floating-point reductions reproducible run-to-run.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ganopc {

/// Process-wide worker pool. Lazily constructed on first use.
class ThreadPool {
 public:
  /// The shared pool. Sized from the GANOPC_THREADS environment variable when
  /// set, else hardware_concurrency (at least 1).
  static ThreadPool& instance();

  /// Replace the shared pool with one of `num_threads` workers (>= 1).
  /// Must only be called while no parallel work is in flight — intended for
  /// tests (determinism at several thread counts) and thread-scaling benches.
  static void reset(std::size_t num_threads);

  /// Child-side repair after fork(): the parent's pool threads do not exist
  /// in this process, so the inherited pool object is abandoned (leaked — its
  /// threads cannot be joined) and a fresh pool of `num_threads` workers
  /// (0 = default_thread_count()) is installed. Must be the child's first
  /// interaction with the pool; the forking thread must not hold pool locks,
  /// i.e. no parallel work may be in flight in the parent at fork time.
  static void reinit_after_fork(std::size_t num_threads = 0);

  /// Worker count the shared pool starts with (GANOPC_THREADS or hardware).
  static std::size_t default_thread_count();

  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Run fn(block_index, begin, end) over [0, n) split into size() blocks,
  /// blocking until every block completes. Exceptions from workers are
  /// rethrown on the calling thread (first one wins).
  void parallel_blocks(std::size_t n,
                       const std::function<void(std::size_t, std::size_t, std::size_t)>& fn);

 private:
  struct Task {
    std::function<void(std::size_t, std::size_t, std::size_t)> fn;
    std::size_t begin = 0, end = 0, block = 0;
  };

  void worker_loop();

  std::vector<std::thread> workers_;
  std::vector<Task> queue_;
  std::mutex mutex_;
  std::condition_variable cv_task_, cv_done_;
  std::size_t pending_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

/// Blocks a parallel_blocks call from this thread fans out to: the shared
/// pool's size, or 1 inside a pool task, where nested calls run serially.
std::size_t parallel_width();

/// Parallel loop over [begin, end): body(i) for each index.
/// Falls back to serial execution for small ranges.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t serial_threshold = 256);

/// Chunk boundaries handed to parallel_for_chunks bodies are multiples of
/// this quantum (relative to `begin`, except the final chunk end). 16 covers
/// every SIMD group width in the kernels (8 f32 / 4 f64 / 4 c64 per 256-bit
/// vector, 4-row GEMM panels), so vectorized bodies that group elements from
/// the chunk start produce bit-identical floating-point results at any
/// thread count — the grouping matches a serial sweep exactly.
inline constexpr std::size_t kParallelChunkQuantum = 16;

/// Parallel loop over contiguous chunks: body(chunk_begin, chunk_end).
/// Use when per-index dispatch overhead matters (inner loops stay fused).
/// Chunk starts are kParallelChunkQuantum-aligned relative to `begin` so
/// SIMD grouping inside the body cannot depend on the worker count.
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& body,
                         std::size_t serial_threshold = 256);

}  // namespace ganopc
