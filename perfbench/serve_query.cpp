// The `serve_query` workload: a read-only node. It is opened from a
// checkpointed directory (snapshot only, empty WAL) and answers a seeded
// QueryService::query stream, in cycles of kCycle requests:
//
//   lookups  ~half   single-ASN lookups
//   alive    ~half   single-ASN alive checks on a random day of 17 years
//   census   1       whole-snapshot census on a random day
//   scan     1       cycling the five registries and the three largest
//                    countries
//
// Keys of lookups and alive checks come from two pools in equal shares: a
// skewed hot pool of kHotSet ASNs that fits the 4,096-entry answer cache,
// and bench_serve's query_mix rule (3 in 4 uniform over the study's ~106k
// ASNs, 1 in 4 uniform over 1..500,000, mostly never seen), a working set
// many times the cache.
//
// No caller in the repository sets a traffic mix, so these proportions are
// not measured traffic: equal numbers of lookups and alive checks with one
// scan and one census per 20,000 of each follow bench_serve's query pass,
// and the uniform pool is the query_mix rule bench_serve and the serve
// oracle test share.
//
// The first kWarmup requests of a phase are answered and checked but not
// measured: they fill the answer cache and fault in the snapshot's pages.
//
//   setup_s      median DurableService::open (kOpens opens)
//   op_p50_ms    median lookup of a uniform-pool key (the index path; the
//                cache rarely holds these keys)
//   read_p50_ms  median scan: the mean over the eight scan queries of each
//                one's median. They differ in size by an order of
//                magnitude, and in equal shares the median of all scans
//                would sit in the gap between the fourth and fifth.
//
// The hot pool's median lookup (the cache-hit path) is the per-layer
// query.lookup_hot_p50_us. The median of all lookups is not a metric: with
// the two pools in equal shares it sits between the hit and miss modes, where
// any small change in hit ratio moves it.
//
// Check: every kCheckEvery-th lookup or alive answer equals its
// use_cache=false answer.

#include <filesystem>
#include <iostream>

#include "harness.hpp"
#include "serve/durable.hpp"
#include "serve/query.hpp"
#include "util/rng.hpp"

namespace plbench {
namespace {

namespace fs = std::filesystem;
using pl::serve::Query;
using pl::serve::QueryKind;
using pl::util::Day;

constexpr int kOpens = 8;
constexpr std::size_t kHotSet = 2048;
/// Requests per cycle: one scan, one census, the rest lookups and alive
/// checks in equal shares.
constexpr std::int64_t kCycle = 40000;
constexpr std::int64_t kWarmup = 5 * kCycle;
constexpr std::int64_t kCheckEvery = 997;
/// History the random days are drawn from (the paper's 17 years).
constexpr Day kDaySpan = 17 * 365;

struct Request {
  Query query;
  bool hot = false;  ///< the key came from the hot pool
  std::size_t scan = 0;  ///< which scan query, for scans
};

/// The seeded request stream; the same seed replays the same requests.
class Stream {
 public:
  Stream(std::uint64_t seed, const pl::serve::Snapshot& snapshot)
      : rng_(seed ^ 0x9E3779B97F4A7C15ULL), end_(snapshot.archive_end()) {
    for (const pl::serve::AsnRow& row : snapshot.rows())
      all_.push_back(row.asn);
    for (std::size_t i = 0; i < kHotSet; ++i) hot_.push_back(pick(all_));
    for (const pl::asn::Rir rir : pl::asn::kAllRirs) {
      scans_.emplace_back();
      scans_.back().registry = rir;
    }
    std::vector<std::pair<std::size_t, pl::asn::CountryCode>> countries;
    for (const auto& [country, rows] : snapshot.rows_by_country())
      countries.emplace_back(rows.size(), country);
    std::sort(countries.rbegin(), countries.rend());
    for (std::size_t i = 0; i < 3 && i < countries.size(); ++i) {
      scans_.emplace_back();
      scans_.back().country = countries[i].second;
    }
    scan_next_ = static_cast<std::size_t>(
        rng_.uniform(0, static_cast<std::int64_t>(scans_.size()) - 1));
  }

  Request next() {
    const std::int64_t slot = issued_++ % kCycle;
    if (slot == 0) {
      const std::size_t scan = scan_next_++ % scans_.size();
      return {Query::scan(scans_[scan]), false, scan};
    }
    if (slot == kCycle / 2) return {Query::census(day())};
    const bool hot = rng_.chance(0.5);
    const pl::asn::Asn asn = hot ? hot_key() : uniform_key();
    if (rng_.chance(0.5)) return {Query::lookup(asn), hot};
    return {Query::alive(asn, day()), hot};
  }

  std::size_t scan_count() const { return scans_.size(); }

 private:
  pl::asn::Asn pick(const std::vector<pl::asn::Asn>& from) {
    return from[static_cast<std::size_t>(
        rng_.uniform(0, static_cast<std::int64_t>(from.size()) - 1))];
  }
  /// Skewed: rank ~ u^3 puts most draws on the first few hundred keys.
  pl::asn::Asn hot_key() {
    const double u = rng_.uniform01();
    return hot_[static_cast<std::size_t>(u * u * u *
                                         static_cast<double>(kHotSet))];
  }
  /// bench_serve's query_mix rule.
  pl::asn::Asn uniform_key() {
    if (rng_.uniform(0, 3) != 0) return pick(all_);
    return pl::asn::Asn{static_cast<std::uint32_t>(rng_.uniform(1, 500000))};
  }
  Day day() { return end_ - static_cast<Day>(rng_.uniform(0, kDaySpan)); }

  pl::util::Rng rng_;
  Day end_;
  std::vector<pl::asn::Asn> all_, hot_;
  std::vector<pl::serve::ScanQuery> scans_;
  std::size_t scan_next_ = 0;
  std::int64_t issued_ = 0;
};

struct Phase {
  std::vector<double> open_ms;
  std::vector<std::vector<double>> scan_ms;  ///< per scan query
  std::int64_t scans = 0;
  NsHistogram lookup_ns, lookup_hot_ns, alive_ns, census_ns;
  double scan_rows = 0;
  double cache_hit_ratio = 0;
  double peak_rss_mb = 0;
};

std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Cache hits and misses the service has counted so far.
std::pair<std::int64_t, std::int64_t> cache_counts(
    pl::serve::QueryService& queries) {
  const pl::obs::Snapshot metrics = queries.report().metrics;
  return {metrics.counter_value("pl_serve_cache_hits"),
          metrics.counter_value("pl_serve_cache_misses")};
}

/// Open the node `opens` times, then answer kWarmup requests unmeasured and
/// the stream for `seconds` measured. `lookups_uncached` replays only the
/// lookups, bypassing the answer cache.
Phase run_phase(const Args& args, Outcome& outcome, int opens,
                double seconds, bool lookups_uncached) {
  Phase phase;
  const std::string work = args.dir + "/work";
  fs::remove_all(work);
  fs::copy(args.dir + "/durable", work, fs::copy_options::recursive);
  std::optional<pl::serve::DurableService> service;
  for (int i = 0; i < opens; ++i) {
    service.reset();
    pl::serve::DurableConfig config;
    config.dir = work;
    const auto start = Clock::now();
    auto opened = pl::serve::DurableService::open(pl::serve::Snapshot{},
                                                  config);
    phase.open_ms.push_back(ms_since(start));
    outcome.attempt(opened.ok() && !opened->health().degraded,
                    "DurableService::open on the checkpointed node failed");
    if (!opened.ok()) return phase;
    service.emplace(std::move(*opened));
  }
  pl::serve::QueryService& queries = service->queries();

  Stream stream(args.seed, service->snapshot());
  phase.scan_ms.resize(stream.scan_count());
  std::int64_t scan_rows = 0, served = 0;
  std::pair<std::int64_t, std::int64_t> warm_counts;
  auto deadline = Clock::time_point::max();
  for (;;) {
    Request request = stream.next();
    Query& query = request.query;
    const QueryKind kind = query.subject.kind;
    if (lookups_uncached) {
      if (kind != QueryKind::kLookup) continue;
      query.options.use_cache = false;
    }
    if (served++ == kWarmup) {
      warm_counts = cache_counts(queries);
      deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
    }
    const bool measured = served > kWarmup;
    const auto start = Clock::now();
    auto answer = queries.query(query);
    const auto now = Clock::now();
    ++outcome.attempted;
    if (!answer.ok()) {
      outcome.fail("query failed: " + answer.status().to_string());
    } else if (measured) {
      const std::int64_t ns = ns_between(start, now);
      switch (kind) {
        case QueryKind::kLookup:
          (request.hot ? phase.lookup_hot_ns : phase.lookup_ns).add(ns);
          break;
        case QueryKind::kAlive:
          phase.alive_ns.add(ns);
          break;
        case QueryKind::kCensus:
          phase.census_ns.add(ns);
          break;
        default:
          phase.scan_ms[request.scan].push_back(static_cast<double>(ns) /
                                                1e6);
          ++phase.scans;
          scan_rows += static_cast<std::int64_t>(answer->lookups.size());
          break;
      }
    }
    if (answer.ok() && served % kCheckEvery == 0 && query.options.use_cache &&
        (kind == QueryKind::kLookup || kind == QueryKind::kAlive)) {
      query.options.use_cache = false;
      const auto fresh = queries.query(query);
      outcome.attempt(fresh.ok() && *fresh == *answer,
                      "cached answer differs from its use_cache=false answer");
    }
    if (now >= deadline) break;
  }
  phase.peak_rss_mb = peak_rss_mb();
  phase.scan_rows = phase.scans > 0 ? static_cast<double>(scan_rows) /
                                          static_cast<double>(phase.scans)
                                    : 0;
  const auto [hits_at_end, misses_at_end] = cache_counts(queries);
  const std::int64_t hits = hits_at_end - warm_counts.first;
  const std::int64_t misses = misses_at_end - warm_counts.second;
  phase.cache_hit_ratio =
      hits + misses > 0 ? static_cast<double>(hits) /
                              static_cast<double>(hits + misses)
                        : 0;
  return phase;
}

}  // namespace

Outcome run_serve_query(const Args& args) {
  Outcome outcome;
  if (!fs::exists(args.dir + "/durable/snapshot.plsnap")) {
    outcome.fail("generated inputs missing; run `plbench gen` first");
    return outcome;
  }
  const Phase phase = run_phase(args, outcome, kOpens, args.seconds, false);
  const double lookup_p50_us = phase.lookup_ns.percentile(0.50) / 1000.0;
  NsHistogram all_lookups = phase.lookup_ns;
  all_lookups.merge(phase.lookup_hot_ns);
  outcome.metrics["setup_s"] = median(phase.open_ms) / 1000.0;
  outcome.metrics["op_p50_ms"] = lookup_p50_us / 1000.0;
  double scan_p50_sum = 0;
  for (const std::vector<double>& times : phase.scan_ms)
    scan_p50_sum += median(times);
  outcome.metrics["read_p50_ms"] =
      scan_p50_sum / static_cast<double>(phase.scan_ms.size());
  outcome.metrics["peak_rss_mb"] = phase.peak_rss_mb;
  std::cout << "serve_query seed=" << args.seed << " workers=" << kWorkers
            << "\n"
            << "  setup_s = " << outcome.metrics["setup_s"]
            << " s (open, median of " << phase.open_ms.size() << ")\n"
            << "  lookup_p50_us = " << lookup_p50_us << " us ("
            << phase.lookup_ns.count() << " uniform-pool lookups)\n"
            << "  lookup_hot_p50_us = "
            << phase.lookup_hot_ns.percentile(0.50) / 1000.0 << " us ("
            << phase.lookup_hot_ns.count() << " hot-pool lookups)\n"
            << "  lookup_p99_us = " << all_lookups.percentile(0.99) / 1000.0
            << " us (" << all_lookups.count() << " lookups)\n"
            << "  scan_p50_ms = " << outcome.metrics["read_p50_ms"] << " ms ("
            << phase.scans << " scans)\n"
            << "  cache_hit_ratio = " << phase.cache_hit_ratio << "\n"
            << "  peak_rss_mb = " << phase.peak_rss_mb << " MB\n";
  if (!args.trace) return outcome;

  // Traced run: the per-layer figures come from the same per-request timers
  // the untraced run takes, so no span is added to the timed path and there
  // is no overhead to measure. The uncached replay is the one extra phase.
  const Phase uncached = run_phase(args, outcome, 1, args.seconds / 2, true);
  auto& m = outcome.metrics;
  m["query.cache_hit_ratio"] = phase.cache_hit_ratio;
  m["query.lookup_hot_p50_us"] = phase.lookup_hot_ns.percentile(0.50) / 1000.0;
  m["query.lookup_p99_us"] = all_lookups.percentile(0.99) / 1000.0;
  m["query.lookup_p999_us"] = all_lookups.percentile(0.999) / 1000.0;
  NsHistogram uncached_lookups = uncached.lookup_ns;
  uncached_lookups.merge(uncached.lookup_hot_ns);
  m["query.lookup_nocache_p50_us"] =
      uncached_lookups.percentile(0.50) / 1000.0;
  m["query.alive_p50_us"] = phase.alive_ns.percentile(0.50) / 1000.0;
  m["query.census_p50_us"] = phase.census_ns.percentile(0.50) / 1000.0;
  m["query.scan_rows"] = phase.scan_rows;
  m["trace.overhead_pct"] = 0.0;
  return outcome;
}

}  // namespace plbench
