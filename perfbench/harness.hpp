// Shared pieces of the benchmark harness: command-line arguments, timing
// and percentile helpers, the study output fingerprint, and the result the
// workloads hand back to main() for printing.
//
// Every workload is a single client driving the program's public API in a
// closed loop: the next request is issued only after the previous answer
// returned. Inputs come from `plbench gen` (a separate process, so input
// generation stays out of the measured process's set-up time and peak RSS).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "pipeline/pipeline.hpp"

namespace plbench {

/// Exec pool size for every workload: with 3 workers the pool plus the
/// blocked caller fit a 4-vCPU box.
inline constexpr int kWorkers = 3;

/// The world every workload simulates or serves: the reference world, whose
/// study fingerprint is pinned. A world drawn from another seed differs in
/// size, which moved advance_day by a quarter between seeds, so the workload
/// seed never picks the world (see README.md).
inline constexpr std::uint64_t kWorldSeed = 42;

/// Fingerprint of the study of the reference world at scale 1.0; the
/// study's outputs must not change.
inline constexpr std::uint64_t kWorldFingerprint = 0x27d029edaaa3d797ULL;

// serve_daily layout, relative to the base day B of the generated snapshot:
// the recovery WAL holds days B+1..B+kWalDays, the feed then advances to
// B+kWalDays+kAdvanceDays. The window reaches past the history store's
// second keyframe (see serve_daily.cpp).
inline constexpr int kWalDays = 4;
inline constexpr int kAdvanceDays = 13;
/// as_of batches target days B+1..B+kAsOfSpan, one round = each day once.
inline constexpr int kAsOfSpan = 4;
/// ASNs per as_of lookup batch.
inline constexpr std::size_t kAsOfBatch = 64;

struct Args {
  std::string mode;      ///< gen | run | cold-study
  std::string workload;  ///< study | serve_daily | serve_query
  std::string dir;       ///< per-run scratch directory (inputs, outputs)
  std::uint64_t seed = 42;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  /// study: expected fingerprint (kWorldFingerprint by default; required at
  /// any other scale, where no reference fingerprint is pinned).
  std::optional<std::uint64_t> expect_fingerprint;
  /// gen/serve_daily: write a deliberately wrong expected end state (the
  /// self-test uses it to prove the end-state check bites).
  bool corrupt_expected = false;
};

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Median of a sample (mean of the two middle values for even counts);
/// 0 for an empty sample.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// Nanosecond-resolution latency histogram for sub-microsecond operations:
/// 1 ns buckets below 64 µs, exact values above. Percentiles are exact.
class NsHistogram {
 public:
  NsHistogram() : buckets_(kBuckets, 0) {}

  void add(std::int64_t ns) {
    ++count_;
    if (ns < 0) ns = 0;
    if (ns < kBuckets)
      ++buckets_[static_cast<std::size_t>(ns)];
    else
      overflow_.push_back(ns);
  }

  std::int64_t count() const noexcept { return count_; }

  void merge(const NsHistogram& other) {
    for (std::size_t ns = 0; ns < buckets_.size(); ++ns)
      buckets_[ns] += other.buckets_[ns];
    overflow_.insert(overflow_.end(), other.overflow_.begin(),
                     other.overflow_.end());
    count_ += other.count_;
  }

  /// Nearest-rank percentile, q in (0, 1], in nanoseconds.
  double percentile(double q) const {
    if (count_ == 0) return 0;
    auto rank = static_cast<std::int64_t>(q * static_cast<double>(count_));
    if (static_cast<double>(rank) < q * static_cast<double>(count_)) ++rank;
    rank = std::clamp<std::int64_t>(rank, 1, count_);
    std::int64_t seen = 0;
    for (std::int64_t ns = 0; ns < kBuckets; ++ns) {
      seen += buckets_[static_cast<std::size_t>(ns)];
      if (seen >= rank) return static_cast<double>(ns);
    }
    std::vector<std::int64_t> rest = overflow_;
    std::sort(rest.begin(), rest.end());
    return static_cast<double>(rest[static_cast<std::size_t>(rank - seen - 1)]);
  }

 private:
  static constexpr std::int64_t kBuckets = 1 << 16;
  std::vector<std::int64_t> buckets_;
  std::vector<std::int64_t> overflow_;
  std::int64_t count_ = 0;
};

/// FNV-1a over the fields that define a study run's output — the same
/// fields, in the same order, as bench_pipeline_e2e's fingerprint, so the
/// two agree on 0x27d029edaaa3d797 at seed 42.
std::uint64_t fingerprint(const pl::pipeline::Result& result);

/// Peak resident set of this process so far (getrusage ru_maxrss), in MB.
double peak_rss_mb();

/// What a workload run hands back: correctness, operation counts, and the
/// metrics it measured (name -> value; units live in main.cpp's tables).
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> metrics;

  /// Record a failed operation or check: prints why, marks the run wrong.
  void fail(const std::string& why);
  /// Count one attempted operation; a false `ok` also records a failure.
  void attempt(bool ok, const std::string& what);
};

// Input generation (`plbench gen`): writes the workload's inputs into
// args.dir. Returns a process exit code.
int generate(const Args& args);

// The workloads (`plbench run`). Human-readable lines go to stdout; the
// machine-readable result is printed by main().
Outcome run_study(const Args& args);
Outcome run_serve_daily(const Args& args);
Outcome run_serve_query(const Args& args);

/// `plbench cold-study`: one study operation in a fresh process; prints
/// "saved <fingerprint-hex>" once the snapshot file is written.
int cold_study(const Args& args);

/// Pipeline configuration every workload and the generator share: the
/// reference world at args.scale, 3 workers, defaults otherwise.
pl::pipeline::Config study_config(const Args& args);

}  // namespace plbench
