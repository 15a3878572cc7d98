// The `serve_daily` workload: a serving node restarts, then runs its daily
// update. Writes (WAL append, fold, history append, periodic checkpoint)
// sit beside reads, in four steps:
//
//   1. cold recovery: DurableService::open over the generated snapshot plus
//      a kWalDays-day WAL, with a HistoryStore attached;
//   2. kAdvanceDays days, one DurableService::advance_day each;
//   3. after each day, that day's report reads: a census and one registry
//      scan;
//   4. rounds of as_of lookup batches: each round visits days B+1..B+4 once
//      in a seeded order, and before each timed batch one untimed as_of at
//      the second keyframe (B+16 under the default interval) parks the
//      history slot there, so every timed batch pays one keyframe decode
//      plus 1..4 delta folds whatever the order.
//
//   setup_s      median DurableService::open
//   op_p50_ms    median advance_day
//   read_p50_ms  median as_of lookup batch
//
// Checks: the end state equals the expected snapshot, health() is not
// degraded, and the as_of answers at two sampled days equal the answers of
// that day's rebuilt snapshot.

#include <filesystem>
#include <fstream>
#include <iostream>

#include "harness.hpp"
#include "history/store.hpp"
#include "serve/durable.hpp"
#include "serve/query.hpp"
#include "util/rng.hpp"

namespace plbench {
namespace {

namespace fs = std::filesystem;
using pl::serve::DayDelta;
using pl::serve::Query;
using pl::serve::QueryOptions;
using pl::serve::Snapshot;
using pl::util::Day;

/// The history store's second keyframe, relative to the base day. The
/// window must end after it so that day is served from the history store
/// rather than the live snapshot.
constexpr int kParkOffset = pl::history::HistoryConfig{}.keyframe_interval;
static_assert(kWalDays + kAdvanceDays > kParkOffset);
static_assert(kAsOfSpan < kParkOffset);

struct Manifest {
  Day base = 0;
  std::vector<Day> check_days;
};

std::optional<Manifest> read_manifest(const std::string& dir) {
  std::ifstream in(dir + "/manifest.txt");
  Manifest m;
  if (!(in >> m.base)) return std::nullopt;
  for (Day day = 0; in >> day;) m.check_days.push_back(day);
  return m;
}

/// HistoryBackend decorator that times every call into the store.
class TimedHistory final : public pl::serve::HistoryBackend {
 public:
  explicit TimedHistory(pl::history::HistoryStore& store) : store_(store) {}

  pl::StatusOr<const Snapshot*> at(Day day) override {
    const auto start = Clock::now();
    auto result = store_.at(day);
    at_ms.emplace_back(day, ms_since(start));
    return result;
  }
  pl::Status append_day(const DayDelta& delta, const Snapshot& after) override {
    const auto start = Clock::now();
    pl::Status status = store_.append_day(delta, after);
    append_ms.push_back(ms_since(start));
    return status;
  }
  pl::Status reset(const Snapshot& base) override {
    const auto start = Clock::now();
    pl::Status status = store_.reset(base);
    reset_ms.push_back(ms_since(start));
    return status;
  }
  bool empty() const noexcept override { return store_.empty(); }
  Day earliest_day() const noexcept override { return store_.earliest_day(); }
  Day latest_day() const noexcept override { return store_.latest_day(); }

  std::vector<std::pair<Day, double>> at_ms;
  std::vector<double> append_ms, reset_ms;

 private:
  pl::history::HistoryStore& store_;
};

/// ASNs whose row content (lives, classes, flags) differs between two
/// snapshots, ASNs present in only one included.
std::int64_t rows_changed(const Snapshot& a, const Snapshot& b) {
  const auto& ra = a.rows();
  const auto& rb = b.rows();
  std::int64_t changed = 0;
  std::size_t i = 0, j = 0;
  while (i < ra.size() || j < rb.size()) {
    if (j == rb.size() || (i < ra.size() && ra[i].asn < rb[j].asn)) {
      ++changed, ++i;
    } else if (i == ra.size() || rb[j].asn < ra[i].asn) {
      ++changed, ++j;
    } else {
      const bool same =
          ra[i].flags == rb[j].flags &&
          std::ranges::equal(a.admin_lives(ra[i]), b.admin_lives(rb[j])) &&
          std::ranges::equal(a.op_lives(ra[i]), b.op_lives(rb[j]));
      changed += same ? 0 : 1;
      ++i, ++j;
    }
  }
  return changed;
}

struct AsOfSample {
  Day day = 0;
  std::vector<pl::asn::Asn> asns;
  std::vector<pl::serve::AsnAnswer> answers;
};

struct Phase {
  std::vector<double> open_ms, advance_ms, census_ms, scan_ms, asof_ms;
  std::vector<double> wal_bytes;  ///< per day without a checkpoint
  // Traced runs only.
  std::vector<double> replay_wal_ms, append_wal_ms, fold_ms, rows_changed;
  std::vector<double> facts, active, touched_admin, touched_op, reclassified;
  double peak_rss_mb = 0;
  double checkpoint_ms = 0;
  std::vector<double> keyframe_decode_ms;
  pl::history::HistoryStats history;
  std::vector<double> history_at_ms, history_append_ms, history_reset_ms;
};

Phase run_phase(const Args& args, const Manifest& manifest,
                const std::vector<DayDelta>& feed, Outcome& outcome,
                bool traced) {
  Phase phase;
  const std::string work = args.dir + "/work";
  fs::remove_all(work);
  fs::copy(args.dir + "/durable", work, fs::copy_options::recursive);

  // 1. Cold recovery. The store is always reached through the timing
  // decorator (one clock read per call of several milliseconds); only the
  // traced run reads its timings.
  pl::history::HistoryStore store;
  TimedHistory timed(store);
  if (traced) {
    const auto start = Clock::now();
    const auto replay = pl::serve::replay_wal(work + "/days.plwal");
    phase.replay_wal_ms.push_back(ms_since(start));
    outcome.attempt(replay.ok() && replay->valid_records == kWalDays,
                    "replay_wal did not decode the recovery WAL");
  }
  pl::serve::DurableConfig config;
  config.dir = work;
  config.history = &timed;
  const auto open_start = Clock::now();
  auto opened = pl::serve::DurableService::open(Snapshot{}, config);
  phase.open_ms.push_back(ms_since(open_start));
  outcome.attempt(opened.ok() && !opened->health().degraded &&
                      opened->health().replayed_days == kWalDays &&
                      opened->archive_end() == manifest.base + kWalDays,
                  "DurableService::open did not recover cleanly");
  if (!opened.ok()) return phase;
  std::optional<pl::serve::DurableService> service(std::move(*opened));

  // 2-3. The days, each followed by its report reads.
  const std::string wal = work + "/days.plwal";
  const std::string scratch_wal = args.dir + "/scratch.plwal";
  const auto measure_start = Clock::now();
  for (std::size_t d = 0; d < feed.size(); ++d) {
    const DayDelta& delta = feed[d];
    std::optional<Snapshot> before;
    if (traced) before = service->snapshot();
    const auto wal_before = fs::file_size(wal);
    auto start = Clock::now();
    const pl::Status advanced = service->advance_day(delta);
    phase.advance_ms.push_back(ms_since(start));
    outcome.attempt(advanced.ok(), "advance_day: " + advanced.to_string());
    const auto wal_after = fs::file_size(wal);
    if (wal_after > wal_before)
      phase.wal_bytes.push_back(static_cast<double>(wal_after - wal_before));

    start = Clock::now();
    const auto census = service->queries().query(Query::census(delta.day));
    phase.census_ms.push_back(ms_since(start));
    outcome.attempt(census.ok() && census->census.has_value(),
                    "daily census failed");
    pl::serve::ScanQuery scan;
    scan.registry = pl::asn::kAllRirs[d % pl::asn::kAllRirs.size()];
    start = Clock::now();
    const auto rows = service->queries().query(Query::scan(scan));
    phase.scan_ms.push_back(ms_since(start));
    outcome.attempt(rows.ok(), "daily registry scan failed");

    if (!traced) continue;
    phase.rows_changed.push_back(
        static_cast<double>(rows_changed(*before, service->snapshot())));
    pl::serve::AdvanceStats stats;
    start = Clock::now();
    const pl::Status folded = before->advance_day(delta, &stats);
    phase.fold_ms.push_back(ms_since(start));
    outcome.attempt(folded.ok() && *before == service->snapshot(),
                    "Snapshot::advance_day on a copy differs from the service");
    phase.facts.push_back(static_cast<double>(stats.facts));
    phase.active.push_back(static_cast<double>(stats.active));
    phase.touched_admin.push_back(static_cast<double>(stats.touched_admin));
    phase.touched_op.push_back(static_cast<double>(stats.touched_op));
    phase.reclassified.push_back(static_cast<double>(stats.reclassified));
    start = Clock::now();
    const pl::Status appended = pl::serve::append_wal(scratch_wal, delta);
    phase.append_wal_ms.push_back(ms_since(start));
    outcome.attempt(appended.ok(), "append_wal into a scratch file failed");
  }

  // 4. as_of lookup batches, in rounds, until the run's time is used (at
  // least one round).
  pl::util::Rng rng(args.seed ^ 0xA5A5);
  const auto& rows = service->snapshot().rows();
  const Day park = manifest.base + kParkOffset;
  std::vector<AsOfSample> samples;
  do {
    std::vector<int> order;
    for (int offset = 1; offset <= kAsOfSpan; ++offset)
      order.push_back(offset);
    for (std::size_t k = order.size(); k > 1; --k)
      std::swap(order[k - 1], order[static_cast<std::size_t>(
                                  rng.uniform(0, static_cast<std::int64_t>(k) - 1))]);
    for (const int offset : order) {
      const auto parked = service->queries().query(
          Query::lookup(rows.front().asn, QueryOptions{park, true}));
      outcome.attempt(parked.ok(), "as_of park query failed");
      AsOfSample sample;
      sample.day = manifest.base + offset;
      for (std::size_t k = 0; k < kAsOfBatch; ++k)
        sample.asns.push_back(rows[static_cast<std::size_t>(rng.uniform(
                                       0, static_cast<std::int64_t>(rows.size()) - 1))]
                                  .asn);
      const Query query = Query::lookup_batch(sample.asns,
                                              QueryOptions{sample.day, true});
      const auto start = Clock::now();
      auto answer = service->queries().query(query);
      phase.asof_ms.push_back(ms_since(start));
      outcome.attempt(answer.ok() && answer->lookups.size() == kAsOfBatch,
                      "as_of lookup batch failed");
      if (answer.ok() && std::ranges::count(manifest.check_days, sample.day)) {
        sample.answers = std::move(answer->lookups);
        samples.push_back(std::move(sample));
      }
    }
  } while (ms_since(measure_start) < 1000.0 * args.seconds);

  if (traced) {
    auto start = Clock::now();
    const pl::Status checkpointed = service->checkpoint();
    phase.checkpoint_ms = ms_since(start);
    outcome.attempt(checkpointed.ok(), "checkpoint failed");
    const std::string frame = pl::serve::encode_snapshot(service->snapshot());
    for (int i = 0; i < 3; ++i) {
      start = Clock::now();
      const auto decoded = pl::serve::decode_snapshot(frame);
      phase.keyframe_decode_ms.push_back(ms_since(start));
      outcome.attempt(decoded.ok(), "decode_snapshot of a keyframe failed");
    }
    phase.history = store.stats();
    for (const auto& [day, ms] : timed.at_ms)
      if (day != park) phase.history_at_ms.push_back(ms);
    phase.history_append_ms = timed.append_ms;
    phase.history_reset_ms = timed.reset_ms;
  }

  // Checks, after the peak RSS reading so the oracles' memory stays out.
  phase.peak_rss_mb = peak_rss_mb();
  outcome.attempt(!service->health().degraded,
                  "health() degraded: " + service->health().last_error);
  {
    const auto expected = pl::serve::open_snapshot(args.dir +
                                                   "/expected_end.plsnap");
    outcome.attempt(expected.ok() && service->snapshot() == *expected,
                    "end state differs from the expected snapshot");
  }
  service.reset();
  for (const Day day : manifest.check_days) {
    auto rebuilt = pl::serve::open_snapshot(args.dir + "/expected_" +
                                            std::to_string(day) + ".plsnap");
    if (!rebuilt.ok()) {
      outcome.fail("cannot open the rebuilt snapshot for day " +
                   std::to_string(day));
      continue;
    }
    pl::serve::QueryService oracle(std::move(*rebuilt));
    for (const AsOfSample& sample : samples) {
      if (sample.day != day) continue;
      const auto want = oracle.query(Query::lookup_batch(sample.asns));
      outcome.attempt(want.ok() && want->lookups == sample.answers,
                      "as_of answers differ from the rebuilt snapshot's");
    }
  }
  return phase;
}

}  // namespace

Outcome run_serve_daily(const Args& args) {
  Outcome outcome;
  const std::optional<Manifest> manifest = read_manifest(args.dir);
  auto feed = pl::serve::replay_wal(args.dir + "/feed.plwal");
  if (!manifest || !feed.ok() ||
      feed->deltas.size() != static_cast<std::size_t>(kAdvanceDays)) {
    outcome.fail("generated inputs missing; run `plbench gen` first");
    return outcome;
  }

  const Phase plain = run_phase(args, *manifest, feed->deltas, outcome, false);
  const double advance_p50 = median(plain.advance_ms);
  outcome.metrics["setup_s"] = median(plain.open_ms) / 1000.0;
  outcome.metrics["op_p50_ms"] = advance_p50;
  outcome.metrics["read_p50_ms"] = median(plain.asof_ms);
  outcome.metrics["peak_rss_mb"] = plain.peak_rss_mb;
  const double wal_kb = median(plain.wal_bytes) / 1000.0;
  std::cout << "serve_daily seed=" << args.seed << " workers=" << kWorkers
            << " base_day=" << manifest->base << " wal_days=" << kWalDays
            << " advance_days=" << kAdvanceDays << "\n"
            << "  setup_s = " << outcome.metrics["setup_s"]
            << " s (DurableService::open)\n"
            << "  advance_p50_ms = " << advance_p50 << " ms ("
            << plain.advance_ms.size() << " days)\n"
            << "  asof_p50_ms = " << outcome.metrics["read_p50_ms"] << " ms ("
            << plain.asof_ms.size() << " batches of " << kAsOfBatch << ")\n"
            << "  wal_kb_per_day = " << wal_kb << " KB\n"
            << "  census_p50_ms = " << median(plain.census_ms)
            << " ms, scan_p50_ms = " << median(plain.scan_ms)
            << " ms (report reads)\n"
            << "  peak_rss_mb = " << outcome.metrics["peak_rss_mb"] << " MB\n";
  if (!args.trace) return outcome;

  const Phase traced = run_phase(args, *manifest, feed->deltas, outcome, true);
  auto& m = outcome.metrics;
  m["durable.replay_wal_ms"] = median(traced.replay_wal_ms);
  m["durable.replay_fold_ms"] =
      median(traced.open_ms) - median(traced.replay_wal_ms);
  m["durable.append_wal_ms"] = median(traced.append_wal_ms);
  m["durable.checkpoint_ms"] = traced.checkpoint_ms;
  m["durable.wal_kb_per_day"] = median(traced.wal_bytes) / 1000.0;
  m["serve.fold_ms"] = median(traced.fold_ms);
  m["advance.facts"] = median(traced.facts);
  m["advance.active"] = median(traced.active);
  m["advance.touched_admin"] = median(traced.touched_admin);
  m["advance.touched_op"] = median(traced.touched_op);
  m["advance.reclassified"] = median(traced.reclassified);
  m["advance.rows_changed"] = median(traced.rows_changed);
  double changed = 0, reclassified = 0;
  for (const double v : traced.rows_changed) changed += v;
  for (const double v : traced.reclassified) reclassified += v;
  m["advance.useful_ratio"] = reclassified > 0 ? changed / reclassified : 0;
  m["history.append_ms"] = median(traced.history_append_ms);
  m["history.reset_ms"] = median(traced.history_reset_ms);
  m["history.at_ms"] = median(traced.history_at_ms);
  m["history.folds_per_at"] =
      traced.history.reconstructs > 0
          ? static_cast<double>(traced.history.delta_folds) /
                static_cast<double>(traced.history.reconstructs)
          : 0;
  m["history.keyframe_decode_ms"] = median(traced.keyframe_decode_ms);
  m["history.delta_bytes_per_day"] = traced.history.mean_delta_bytes();
  m["history.keyframe_bytes"] = traced.history.mean_keyframe_bytes();
  m["trace.overhead_pct"] =
      100.0 * (median(traced.advance_ms) / advance_p50 - 1.0);
  return outcome;
}

}  // namespace plbench
