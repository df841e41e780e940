#include "common/parallel.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>

namespace ganopc {

namespace {
// Set while a pool worker runs a task; nested parallel_blocks calls from
// inside a task run serially instead of deadlocking on the pool.
thread_local bool tls_in_worker = false;

std::mutex& instance_mutex() {
  static std::mutex m;
  return m;
}

std::unique_ptr<ThreadPool>& instance_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}
}  // namespace

std::size_t ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("GANOPC_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<std::size_t>(v);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool& ThreadPool::instance() {
  std::lock_guard lock(instance_mutex());
  auto& pool = instance_slot();
  if (!pool) pool = std::make_unique<ThreadPool>(default_thread_count());
  return *pool;
}

void ThreadPool::reset(std::size_t num_threads) {
  std::lock_guard lock(instance_mutex());
  auto& pool = instance_slot();
  pool.reset();  // join old workers before spawning the replacement pool
  pool = std::make_unique<ThreadPool>(std::max<std::size_t>(1, num_threads));
}

void ThreadPool::reinit_after_fork(std::size_t num_threads) {
  std::lock_guard lock(instance_mutex());
  auto& pool = instance_slot();
  // The worker std::threads died with the fork; ~ThreadPool would join them
  // and hang forever. Release the husk (one-time leak per forked worker) and
  // start a pool whose threads actually exist in this process.
  (void)pool.release();
  pool = std::make_unique<ThreadPool>(
      num_threads > 0 ? num_threads : default_thread_count());
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.back());
      queue_.pop_back();
    }
    std::exception_ptr err;
    try {
      tls_in_worker = true;
      task.fn(task.block, task.begin, task.end);
      tls_in_worker = false;
    } catch (...) {
      tls_in_worker = false;
      err = std::current_exception();
    }
    {
      std::lock_guard lock(mutex_);
      if (err && !first_error_) first_error_ = err;
      if (--pending_ == 0) cv_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_blocks(
    std::size_t n, const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  if (tls_in_worker) {
    fn(0, 0, n);
    return;
  }
  const std::size_t blocks = std::min(n, workers_.size());
  const std::size_t base = n / blocks, rem = n % blocks;
  {
    std::lock_guard lock(mutex_);
    std::size_t begin = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::size_t len = base + (b < rem ? 1 : 0);
      queue_.push_back(Task{fn, begin, begin + len, b});
      begin += len;
    }
    pending_ += blocks;
  }
  cv_task_.notify_all();
  std::unique_lock lock(mutex_);
  cv_done_.wait(lock, [this] { return pending_ == 0; });
  if (first_error_) {
    auto err = first_error_;
    first_error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

std::size_t parallel_width() {
  return tls_in_worker ? 1 : ThreadPool::instance().size();
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t serial_threshold) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  if (n < serial_threshold || ThreadPool::instance().size() == 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  ThreadPool::instance().parallel_blocks(
      n, [&](std::size_t /*block*/, std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) body(begin + i);
      });
}

void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& body,
                         std::size_t serial_threshold) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  if (n < serial_threshold || ThreadPool::instance().size() == 1) {
    body(begin, end);
    return;
  }
  // Chunk boundaries are snapped to a fixed quantum so every chunk start is a
  // multiple of all SIMD group widths used downstream (8 floats / 4 doubles /
  // 4 complex<float> per 256-bit vector, 4-row GEMM panels). Vectorized
  // bodies group elements from the chunk start; with unaligned boundaries the
  // vector-body/scalar-tail split — and therefore FMA rounding — would depend
  // on the thread count. Quantum alignment makes the grouping identical to
  // the serial sweep at any worker count (kParallelChunkQuantum, see header).
  const std::size_t quanta = (n + kParallelChunkQuantum - 1) / kParallelChunkQuantum;
  ThreadPool::instance().parallel_blocks(
      quanta, [&](std::size_t /*block*/, std::size_t qb, std::size_t qe) {
        body(begin + qb * kParallelChunkQuantum,
             begin + std::min(n, qe * kParallelChunkQuantum));
      });
}

}  // namespace ganopc
