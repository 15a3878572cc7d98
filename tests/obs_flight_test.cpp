// Flight recorder + per-query tracing suite (DESIGN.md §14).
//
// Covers the three layers of the observability tentpole:
//   * the ring mechanics — wrap/overwrite accounting, multi-threaded record
//     with deterministic attribution ordering;
//   * the pl-flight/1 file format — dump/load round trip, truncation and
//     bit-flip damage must salvage what survives as kDataLoss and NEVER
//     crash;
//   * the serving integration — every QueryService answer is attributable
//     via its deterministic RequestId, with cache/shard/status events
//     identical across cache on/off (and across PL_THREADS settings: the
//     _serial/_mt ctest variants rerun this binary under both extremes and
//     the golden RequestId assertions must hold in each).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.hpp"
#include "obs/latency.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/query.hpp"
#include "serve/snapshot.hpp"
#include "serve_ask.hpp"

namespace pl::obs {
namespace {

FlightEvent make_event(std::uint64_t request, EventKind kind,
                       std::uint32_t detail, std::int64_t a) {
  return FlightEvent{request, static_cast<std::uint32_t>(kind), detail, a, 0};
}

// Process-unique temp paths: the _serial/_mt ctest variants run this same
// binary concurrently under ctest -j, and a shared fixed filename would let
// one variant truncate a file another is mid-read on.
std::string temp_path(const std::string& name) {
  return testing::TempDir() + std::to_string(::getpid()) + "_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(FlightRing, WrapOverwritesOldestAndCountsExactly) {
  FlightRecorder recorder(4);
  for (std::int64_t i = 0; i < 10; ++i)
    recorder.record(make_event(100 + i, EventKind::kLookup, 0, i));

  if constexpr (kEnabled) {
    // Single-threaded: every record lands in one ring of capacity 4.
    EXPECT_EQ(recorder.total_recorded(), 10u);
    EXPECT_EQ(recorder.overwritten(), 6u);
    const std::vector<FlightEvent> events = recorder.events();
    ASSERT_EQ(events.size(), 4u);
    // The retained window is the most recent 4, in arrival order.
    for (std::size_t i = 0; i < events.size(); ++i)
      EXPECT_EQ(events[i].a, static_cast<std::int64_t>(6 + i));
  } else {
    EXPECT_EQ(recorder.total_recorded(), 0u);
    EXPECT_TRUE(recorder.events().empty());
  }
}

TEST(FlightRing, ConcurrentRecordLosesNothingBelowCapacity) {
  // 4 threads x 64 events, capacity far above the per-ring worst case:
  // every event must be retained, and attribution() must be bit-identical
  // to the same events recorded serially — the determinism contract.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  FlightRecorder concurrent(1024);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&concurrent, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const RequestId id = derive_request_id(
            kQueryStream, static_cast<std::uint64_t>(t),
            static_cast<std::uint64_t>(i));
        concurrent.record(
            make_event(id.value, EventKind::kAlive,
                       query_detail(kCacheNone, 0, 0, true), t * 1000 + i));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  FlightRecorder serial(1024);
  for (int t = 0; t < kThreads; ++t)
    for (int i = 0; i < kPerThread; ++i) {
      const RequestId id = derive_request_id(
          kQueryStream, static_cast<std::uint64_t>(t),
          static_cast<std::uint64_t>(i));
      serial.record(make_event(id.value, EventKind::kAlive,
                               query_detail(kCacheNone, 0, 0, true),
                               t * 1000 + i));
    }

  if constexpr (kEnabled) {
    EXPECT_EQ(concurrent.total_recorded(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(concurrent.overwritten(), 0u);
    EXPECT_EQ(concurrent.attribution(), serial.attribution());
    // The view honours the documented ordering contract, not arrival order.
    const std::vector<FlightEvent> view = concurrent.attribution();
    EXPECT_TRUE(std::is_sorted(view.begin(), view.end(), attribution_less));
  } else {
    EXPECT_TRUE(concurrent.attribution().empty());
  }
}

TEST(FlightIo, DumpLoadRoundTripsExactly) {
  const std::string path = temp_path("flight_roundtrip.plflight");
  const std::vector<FlightEvent> events = {
      {derive_request_id(kQueryStream, 0, 0).value,
       static_cast<std::uint32_t>(EventKind::kLookup),
       query_detail(kCacheMiss, 5, 0, true), 40, 0},
      {derive_request_id(kQueryStream, 1, 0).value,
       static_cast<std::uint32_t>(EventKind::kAlive),
       query_detail(kCacheHit, 2, 0, false), 41, 1},
      {0, static_cast<std::uint32_t>(EventKind::kCrash), 0xDEADBEEF, 42, 2},
  };
  ASSERT_EQ(write_flight_events(path, events, 17, 3), FlightIoStatus::kOk);

  const FlightRead read = read_flight(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.events, events);
  EXPECT_EQ(read.total_recorded, 17u);
  EXPECT_EQ(read.overwritten, 3u);

  const std::string text = render_flight_text(read);
  EXPECT_NE(text.find("lookup"), std::string::npos);
  EXPECT_NE(text.find("crash"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightIo, RecorderDumpIsReadableInEveryBuildMode) {
  FlightRecorder recorder;
  recorder.record(make_event(9, EventKind::kCensus, 0, 123));
  const std::string path = temp_path("flight_recorder_dump.plflight");
  ASSERT_EQ(write_flight(path, recorder), FlightIoStatus::kOk);
  const FlightRead read = read_flight(path);
  ASSERT_TRUE(read.ok());
  if constexpr (kEnabled) {
    ASSERT_EQ(read.events.size(), 1u);
    EXPECT_EQ(read.events[0].a, 123);
  } else {
    EXPECT_TRUE(read.events.empty());  // valid zero-event dump
  }
  std::remove(path.c_str());
}

TEST(FlightIo, MissingFileIsNotFound) {
  const FlightRead read = read_flight(temp_path("no_such.plflight"));
  EXPECT_EQ(read.status, FlightIoStatus::kNotFound);
  EXPECT_TRUE(read.events.empty());
}

TEST(FlightIo, EveryTruncationSalvagesAWholeEventPrefixAndNeverCrashes) {
  const std::string path = temp_path("flight_truncate.plflight");
  std::vector<FlightEvent> events;
  for (std::int64_t i = 0; i < 5; ++i)
    events.push_back(make_event(200 + i, EventKind::kScan, 0, i));
  ASSERT_EQ(write_flight_events(path, events, 5, 0), FlightIoStatus::kOk);
  const std::string intact = slurp(path);

  for (std::size_t keep = 0; keep < intact.size(); ++keep) {
    spill(path, intact.substr(0, keep));
    const FlightRead read = read_flight(path);
    EXPECT_NE(read.status, FlightIoStatus::kOk)
        << "truncation to " << keep << " bytes went unnoticed";
    EXPECT_LE(read.events.size(), events.size());
    for (std::size_t i = 0; i < read.events.size(); ++i)
      EXPECT_EQ(read.events[i], events[i])
          << "salvage at " << keep << " bytes is not a prefix";
  }
  std::remove(path.c_str());
}

TEST(FlightIo, EveryBitFlipIsDataLossNeverACrash) {
  const std::string path = temp_path("flight_bitflip.plflight");
  const std::vector<FlightEvent> events = {
      make_event(300, EventKind::kCheckpoint, 0, 5),
      make_event(301, EventKind::kQuarantine, 7, 6),
  };
  ASSERT_EQ(write_flight_events(path, events, 2, 0), FlightIoStatus::kOk);
  const std::string intact = slurp(path);

  for (std::size_t at = 0; at < intact.size(); ++at) {
    std::string damaged = intact;
    damaged[at] = static_cast<char>(damaged[at] ^ 0x40);
    spill(path, damaged);
    const FlightRead read = read_flight(path);
    // CRC32 detects any single-byte flip in the payload; flips in the
    // header fail the frame checks. Either way the reader reports damage
    // (and salvages whole events) instead of trusting the bytes.
    EXPECT_EQ(read.status, FlightIoStatus::kDataLoss)
        << "bit flip at byte " << at << " went unnoticed";
    EXPECT_LE(read.events.size(),
              events.size() + 1);  // a flipped count can over-promise
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Serving integration: attributable queries.

serve::Snapshot small_snapshot() {
  pipeline::Config config;
  config.seed = 77;
  config.scale = 0.01;
  const pipeline::Result result = pipeline::run_simulated(config);
  return serve::Snapshot::build(result.restored, result.op_world.activity,
                                result.truth.archive_end);
}

/// The full query workload both services run: points, batches, census,
/// scan, each asked with `options`. Returns the ASNs used so expectations
/// can be derived.
std::vector<asn::Asn> run_workload(serve::QueryService& service,
                                   serve::QueryOptions options = {}) {
  using serve::Query;
  std::vector<asn::Asn> asns;
  for (std::uint32_t v = 1; v <= 8; ++v) asns.push_back(asn::Asn{v * 1000});
  for (const asn::Asn asn : asns) ask(service, Query::lookup(asn, options));
  ask(service, Query::lookup_batch(asns, options));
  // Second pass: all hits where caching is on.
  ask(service, Query::lookup_batch(asns, options));
  const util::Day day = service.snapshot().archive_end();
  for (const asn::Asn asn : asns)
    ask(service, Query::alive(asn, day, options));
  ask(service, Query::alive_batch(asns, day, options));
  ask(service, Query::census(day, options));
  serve::ScanQuery scan;
  scan.first = asn::Asn{0};
  scan.last = asn::Asn{50000};
  scan.limit = 10;
  ask(service, Query::scan(scan, options));
  return asns;
}

TEST(QueryAttribution, EveryQueryIsAttributableAndCacheInvariant) {
  const serve::Snapshot snapshot = small_snapshot();

  serve::QueryService with_cache(snapshot);
  serve::QueryService without_cache(snapshot);
  serve::QueryOptions uncached;
  uncached.use_cache = false;

  run_workload(with_cache);
  run_workload(without_cache, uncached);

  std::vector<FlightEvent> a = with_cache.flight().attribution();
  std::vector<FlightEvent> b = without_cache.flight().attribution();

  if constexpr (!kEnabled) {
    EXPECT_TRUE(a.empty());
    EXPECT_TRUE(b.empty());
    return;
  }

  // One event per query answer, no overwrites at this volume.
  EXPECT_EQ(with_cache.flight().overwritten(), 0u);
  ASSERT_EQ(a.size(), b.size());

  // Masking the cache/shard bits, the two timelines are bit-identical:
  // what was answered (and whether it was found) cannot depend on caching.
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].request, b[i].request);
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].a, b[i].a);
    EXPECT_EQ(a[i].detail & kQueryDetailCacheMask,
              b[i].detail & kQueryDetailCacheMask)
        << "status/found bits diverged at attribution index " << i;
  }

  // The cached run must actually exercise the cache: the second identical
  // batch is all hits, the uncached run records kCacheNone everywhere.
  const auto cache_of = [](const FlightEvent& event) {
    return detail_cache(event.detail);
  };
  EXPECT_TRUE(std::any_of(a.begin(), a.end(), [&](const FlightEvent& e) {
    return cache_of(e) == kCacheHit;
  }));
  EXPECT_TRUE(std::all_of(b.begin(), b.end(), [&](const FlightEvent& e) {
    return e.kind != static_cast<std::uint32_t>(EventKind::kLookup) ||
           cache_of(e) == kCacheNone;
  }));

  // Golden request-id check: the very first lookup of the run is sequence
  // 0, item 0 on the query stream — reproducible from the call order alone,
  // under any PL_THREADS setting (the _serial/_mt variants rerun this).
  const std::uint64_t first_id = derive_request_id(kQueryStream, 0, 0).value;
  EXPECT_TRUE(std::any_of(a.begin(), a.end(), [&](const FlightEvent& e) {
    return e.request == first_id;
  }));

  // Every event is attributable: a nonzero request id on every query event.
  for (const FlightEvent& event : a)
    EXPECT_NE(event.request, 0u);
}

TEST(QueryAttribution, BatchItemsGetDistinctRequestIds) {
  const serve::Snapshot snapshot = small_snapshot();
  serve::QueryService service(snapshot, {});
  std::vector<asn::Asn> asns;
  for (std::uint32_t v = 1; v <= 16; ++v) asns.push_back(asn::Asn{v * 500});
  ask(service, serve::Query::lookup_batch(asns));

  if constexpr (!kEnabled) {
    EXPECT_TRUE(service.flight().events().empty());
    return;
  }
  const std::vector<FlightEvent> events = service.flight().events();
  ASSERT_EQ(events.size(), asns.size());
  std::set<std::uint64_t> ids;
  for (const FlightEvent& event : events) ids.insert(event.request);
  EXPECT_EQ(ids.size(), asns.size()) << "request ids collide within a batch";
  // And they are exactly the derived ids for sequence 0, items 0..15.
  for (std::size_t i = 0; i < asns.size(); ++i)
    EXPECT_TRUE(ids.contains(
        derive_request_id(kQueryStream, 0, static_cast<std::uint64_t>(i))
            .value));
}

TEST(QueryAttribution, LatencyHistogramsPopulateForServePaths) {
  const serve::Snapshot snapshot = small_snapshot();
  serve::QueryService service(snapshot, {});
  std::vector<asn::Asn> asns;
  for (std::uint32_t v = 1; v <= 8; ++v) asns.push_back(asn::Asn{v * 1000});
  ask(service, serve::Query::lookup_batch(asns));
  ask(service, serve::Query::census(snapshot.archive_end()));

  const Snapshot metrics = service.report().metrics;
  if constexpr (!kEnabled) {
    EXPECT_TRUE(metrics.latencies.empty());
    return;
  }
  const auto batch =
      metrics.latencies.find("pl_serve_latency_ns{kind=\"batch\"}");
  ASSERT_NE(batch, metrics.latencies.end());
  EXPECT_EQ(batch->second.count, 1);
  EXPECT_GT(batch->second.percentile(0.50), 0);
  const auto census =
      metrics.latencies.find("pl_serve_latency_ns{kind=\"census\"}");
  ASSERT_NE(census, metrics.latencies.end());
  EXPECT_EQ(census->second.count, 1);
}

}  // namespace
}  // namespace pl::obs
