// Tests for the exec concurrency subsystem: parallel_for coverage,
// deterministic exception propagation, nested sections, and the
// PL_THREADS=0 serial fallback.
#include "exec/pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace pl::exec {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  constexpr std::size_t kCount = 10000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForRethrowsLowestChunkException) {
  ThreadPool pool(4);
  // Every chunk throws its begin index; deterministic propagation promises
  // the lowest-indexed chunk's exception — always the one starting at 0.
  try {
    pool.parallel_for(5000, [](std::size_t begin, std::size_t) {
      throw std::runtime_error(std::to_string(begin));
    });
    FAIL() << "parallel_for should have thrown";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "0");
  }
  // The pool remains usable after a throwing section.
  std::atomic<int> sum{0};
  pool.parallel_for(100, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) sum.fetch_add(1);
  });
  EXPECT_EQ(sum.load(), 100);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 64;
  std::vector<std::atomic<int>> cells(kOuter * kInner);
  pool.parallel_for(kOuter, [&](std::size_t begin, std::size_t end) {
    for (std::size_t o = begin; o < end; ++o)
      pool.parallel_for(kInner, [&, o](std::size_t ib, std::size_t ie) {
        for (std::size_t i = ib; i < ie; ++i)
          cells[o * kInner + i].fetch_add(1);
      });
  });
  for (const auto& cell : cells) EXPECT_EQ(cell.load(), 1);
}

TEST(ThreadPool, SerialPoolRunsEverythingInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0);
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id loop_thread;
  pool.parallel_for(100, [&](std::size_t, std::size_t) {
    loop_thread = std::this_thread::get_id();
  });
  EXPECT_EQ(loop_thread, self);
}

TEST(ThreadPool, ParallelForIsDeterministicAcrossThreadCounts) {
  const auto compute = [](int threads) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> out(5000);
    pool.parallel_for(
        out.size(),
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i)
            out[i] = i * 0x9e3779b97f4a7c15ULL;
        },
        /*grain=*/7);
    return out;
  };
  const auto serial = compute(0);
  EXPECT_EQ(serial, compute(1));
  EXPECT_EQ(serial, compute(3));
  EXPECT_EQ(serial, compute(8));
}

TEST(GlobalPool, DirectKnobRebuildsTheSharedPool) {
  // Exercise the public knobs themselves, not just the ScopedThreads RAII
  // wrapper: set_global_threads swaps the worker set and global_pool() hands
  // back the rebuilt pool.
  const int before = current_threads();
  set_global_threads(2);
  EXPECT_EQ(global_pool().size(), 2);
  std::atomic<std::size_t> items{0};
  global_pool().parallel_for(64, [&](std::size_t begin, std::size_t end) {
    items += end - begin;
  });
  EXPECT_EQ(items.load(), 64u);
  set_global_threads(before);
  EXPECT_EQ(current_threads(), before);
}

TEST(GlobalPool, ScopedThreadsOverridesAndRestores) {
  const int before = current_threads();
  {
    ScopedThreads scoped(3);
    EXPECT_EQ(current_threads(), 3);
    {
      ScopedThreads inner(0);
      EXPECT_EQ(current_threads(), 0);
      // The serial global pool executes on the calling thread.
      std::thread::id loop_thread;
      parallel_for(10, [&](std::size_t, std::size_t) {
        loop_thread = std::this_thread::get_id();
      });
      EXPECT_EQ(loop_thread, std::this_thread::get_id());
    }
    EXPECT_EQ(current_threads(), 3);
  }
  EXPECT_EQ(current_threads(), before);
}

TEST(GlobalPool, DefaultThreadsHonoursEnvironment) {
  const char* saved = std::getenv("PL_THREADS");
  const std::string saved_value = saved ? saved : "";

  ::setenv("PL_THREADS", "3", 1);
  EXPECT_EQ(default_threads(), 3);
  ::setenv("PL_THREADS", "0", 1);
  EXPECT_EQ(default_threads(), 0);
  ::unsetenv("PL_THREADS");
  EXPECT_EQ(default_threads(), hardware_threads());

  if (saved)
    ::setenv("PL_THREADS", saved_value.c_str(), 1);
  else
    ::unsetenv("PL_THREADS");
}

}  // namespace
}  // namespace pl::exec
