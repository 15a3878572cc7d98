#include "exec/pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>

namespace pl::exec {

namespace {

/// Set while a pool worker runs tasks; reentrant parallel_for detects it.
thread_local bool tl_in_worker = false;

/// Sentinel for "no override": resolve from PL_THREADS / hardware.
constexpr int kUseDefault = std::numeric_limits<int>::min();

int resolve(int requested) {
  if (requested == kUseDefault) return default_threads();
  if (requested < 0) return hardware_threads();
  return requested;
}

std::mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool;       // guarded by g_pool_mutex
int g_requested = kUseDefault;            // guarded by g_pool_mutex

}  // namespace

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int default_threads() {
  if (const char* env = std::getenv("PL_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && parsed >= 0)
      return static_cast<int>(std::min<long>(parsed, 4096));
  }
  return hardware_threads();
}

ThreadPool::ThreadPool(int threads) {
  const int count = resolve(threads == kUseDefault ? -1 : threads);
  workers_.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  tl_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::post(std::function<void()> task) {
  // Serial pool, or a worker feeding its own pool: run inline. The latter
  // keeps nested parallel_for deadlock-free when every worker is
  // already busy inside a parallel section.
  if (workers_.empty() || tl_in_worker) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  ready_.notify_one();
}

void ThreadPool::parallel_for(std::size_t count, const RangeBody& body,
                              std::size_t grain) {
  if (count == 0) return;
  grain = std::max<std::size_t>(grain, 1);
  const auto workers = static_cast<std::size_t>(size());
  // A single worker can never overlap with the calling thread, so chunking
  // plus queue/condvar hand-off is pure overhead — the t=1 bench leg used to
  // run ~4% slower than serial because of it. Route workers <= 1 through the
  // same inline path as the serial pool; output order is unaffected because
  // chunks were already merged in index order.
  if (workers <= 1 || tl_in_worker || count <= grain) {
    body(0, count);
    return;
  }

  // Mild oversubscription smooths uneven shard costs; the grain floor keeps
  // per-chunk overhead negligible for cheap bodies.
  const std::size_t target_chunks =
      std::min(workers * 4, (count + grain - 1) / grain);
  const std::size_t chunk =
      (count + target_chunks - 1) / std::max<std::size_t>(target_chunks, 1);

  struct Join {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining = 0;
    std::vector<std::exception_ptr> errors;
  } join;

  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  for (std::size_t begin = 0; begin < count; begin += chunk)
    ranges.emplace_back(begin, std::min(begin + chunk, count));
  join.remaining = ranges.size();
  join.errors.assign(ranges.size(), nullptr);

  const auto run_chunk = [&body, &join](std::size_t index, std::size_t begin,
                                        std::size_t end) {
    try {
      body(begin, end);
    } catch (...) {
      std::lock_guard<std::mutex> lock(join.mutex);
      join.errors[index] = std::current_exception();
    }
    {
      // Notify under the lock: the caller destroys `join` the moment it
      // observes remaining == 0, which it can only do once we release.
      std::lock_guard<std::mutex> lock(join.mutex);
      --join.remaining;
      join.done.notify_one();
    }
  };

  // Queue every chunk but the first, run the first on the calling thread —
  // the caller contributes instead of idling, which matters on small pools.
  for (std::size_t i = 1; i < ranges.size(); ++i)
    post([&run_chunk, &ranges, i] {
      run_chunk(i, ranges[i].first, ranges[i].second);
    });
  run_chunk(0, ranges[0].first, ranges[0].second);

  std::unique_lock<std::mutex> lock(join.mutex);
  join.done.wait(lock, [&join] { return join.remaining == 0; });

  // Deterministic propagation: the lowest-indexed failing chunk wins, so
  // the surfaced error does not depend on scheduling.
  for (const std::exception_ptr& error : join.errors)
    if (error) std::rethrow_exception(error);
}

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_pool_mutex);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(resolve(g_requested));
  return *g_pool;
}

namespace {

void rebuild_locked_free(int requested) {
  std::unique_ptr<ThreadPool> replacement;
  {
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    if (g_requested == requested && g_pool) return;
    g_requested = requested;
    replacement = std::make_unique<ThreadPool>(resolve(requested));
    g_pool.swap(replacement);
  }
  // Old pool (if any) joins its workers here, outside the lock.
}

}  // namespace

void set_global_threads(int threads) { rebuild_locked_free(threads); }

int current_threads() { return global_pool().size(); }

ScopedThreads::ScopedThreads(int threads) {
  {
    std::lock_guard<std::mutex> lock(g_pool_mutex);
    previous_ = g_requested;
  }
  set_global_threads(threads);
}

ScopedThreads::~ScopedThreads() { set_global_threads(previous_); }

void parallel_for(std::size_t count, const ThreadPool::RangeBody& body,
                  std::size_t grain) {
  global_pool().parallel_for(count, body, grain);
}

}  // namespace pl::exec
