// Fixed-size thread pool and data-parallel helpers for the pipeline hot
// path.
//
// Every parallel stage in this codebase follows one discipline: shard the
// work over contiguous index ranges, compute into per-index (or per-shard)
// slots, and merge the slots back in index order on the calling thread.
// With order-preserving merges the output is bit-identical to the serial
// run no matter how many workers execute the shards — the property the
// `pipeline_parallel_test` differential suite locks in.
//
// Thread-count resolution (`PL_THREADS`):
//   * unset or negative — one worker per hardware thread;
//   * 0                 — serial: no workers, every task runs inline on the
//                         calling thread (the historical single-thread path);
//   * N > 0             — exactly N workers.
//
// `parallel_for` called from inside a worker runs inline (serially) on that
// worker — nested parallelism degrades gracefully instead of deadlocking on
// a saturated queue.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pl::exec {

/// Worker count the process defaults to: `PL_THREADS` when set (see the
/// resolution table above), else one per hardware thread.
int default_threads();

/// max(1, std::thread::hardware_concurrency()).
int hardware_threads();

class ThreadPool {
 public:
  /// `threads` < 0 resolves to `hardware_threads()`; 0 builds a serial pool
  /// that executes everything inline on the calling thread.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads (0 for a serial pool).
  int size() const noexcept { return static_cast<int>(workers_.size()); }

  /// Body signature for range loops: [begin, end) over the item index space.
  using RangeBody = std::function<void(std::size_t, std::size_t)>;

  /// Split [0, count) into contiguous chunks of at least `grain` items and
  /// run `body` on each chunk. Blocks until every chunk finished. If any
  /// chunk threw, rethrows the exception of the lowest-indexed failing
  /// chunk (deterministic across thread counts). Reentrant calls from a
  /// worker thread run the whole range inline.
  void parallel_for(std::size_t count, const RangeBody& body,
                    std::size_t grain = 1);

 private:
  void post(std::function<void()> task);
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable ready_;
  bool stopping_ = false;
};

/// The process-wide pool, lazily built with `default_threads()` workers.
ThreadPool& global_pool();

/// Rebuild the global pool with `threads` workers (same resolution rules as
/// the ThreadPool constructor; pass -1 to re-read `PL_THREADS`). Joins the
/// old workers first. Not safe concurrently with running parallel sections —
/// it is a configuration knob for startup and tests, not a scheduler.
void set_global_threads(int threads);

/// Worker count of the global pool without forcing its construction twice.
int current_threads();

/// RAII thread-count override: constructor applies `threads`, destructor
/// restores the previous setting. Used by `pipeline::Config::threads` and
/// the differential tests that compare serial vs. parallel runs in-process.
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads);
  ~ScopedThreads();
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  int previous_;
};

/// `global_pool().parallel_for(...)`.
void parallel_for(std::size_t count, const ThreadPool::RangeBody& body,
                  std::size_t grain = 1);

}  // namespace pl::exec
