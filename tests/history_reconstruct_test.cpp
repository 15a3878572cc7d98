// HistoryStore reconstruction: `*at(D)` must be bit-identical to a full
// rebuild over the world truncated at D — rows, derived indexes, AND
// working set — for EVERY day in the recorded range, across seeds,
// keyframe intervals, and transport chaos. Also locks the size contract
// the subsystem exists for (mean compact delta <= 10% of a mean keyframe
// at the default interval), random-access cache behavior, and save/open
// round-trips.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "history/store.hpp"
#include "pipeline/pipeline.hpp"
#include "serve/snapshot.hpp"

namespace pl::history {
namespace {

pipeline::Config world_config(std::uint64_t seed, double scale,
                              bool chaos = false) {
  pipeline::Config config;
  config.seed = seed;
  config.scale = scale;
  config.inject_chaos = chaos;
  return config;
}

/// Build a store over the trailing `days_back` days of the world.
pl::StatusOr<HistoryStore> trailing_store(const pipeline::Result& world,
                                          int days_back,
                                          HistoryConfig config = {}) {
  const util::Day end = world.truth.archive_end;
  return HistoryStore::build(world.restored, world.op_world.activity,
                             end - days_back, end, config);
}

/// Full-oracle sweep: every recorded day compared against a fresh rebuild
/// of the truncated world. O(days × rebuild) — reserve for the flagship
/// configs; the interval matrix uses the cheaper cursor oracle below.
void expect_every_day_matches_rebuild(HistoryStore& store,
                                      const pipeline::Result& world) {
  for (util::Day day = store.earliest_day(); day <= store.latest_day();
       ++day) {
    auto got = store.at(day);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    const serve::Snapshot rebuilt =
        serve::rebuild_at(world.restored, world.op_world.activity, day);
    ASSERT_TRUE(**got == rebuilt) << "reconstruction diverged on day " << day;
  }
}

/// Cursor oracle: one snapshot advanced day by day (itself rebuild-equal,
/// locked by serve_advance_test) compared against every at(). Cheap enough
/// for the seeds × intervals matrix.
void expect_every_day_matches_cursor(HistoryStore& store,
                                     const pipeline::Result& world) {
  serve::Snapshot cursor = serve::rebuild_at(
      world.restored, world.op_world.activity, store.earliest_day());
  for (util::Day day = store.earliest_day(); day <= store.latest_day();
       ++day) {
    if (day > store.earliest_day()) {
      const serve::DayDelta delta =
          serve::slice_day(world.restored, world.op_world.activity, day);
      ASSERT_TRUE(cursor.advance_day(delta).ok());
    }
    auto got = store.at(day);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    ASSERT_TRUE(**got == cursor) << "reconstruction diverged on day " << day;
  }
}

TEST(HistoryReconstruct, EveryDayBitIdenticalToRebuild) {
  const pipeline::Result world =
      pipeline::run_simulated(world_config(99, 0.02));
  auto store = trailing_store(world, 35);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  // build() covers exactly the requested range, and the sweep below
  // includes its last day: at(latest_day) is the end-of-world rebuild.
  EXPECT_EQ(store->earliest_day(), world.truth.archive_end - 35);
  EXPECT_EQ(store->latest_day(), world.truth.archive_end);
  expect_every_day_matches_rebuild(*store, world);

  // The size contract: a compact delta must average <= 10% of a keyframe
  // at the default interval — otherwise delta compression isn't buying
  // anything over storing every day whole.
  const HistoryStats stats = store->stats();
  EXPECT_EQ(stats.deltas, 35);
  EXPECT_GT(stats.keyframes, 1);  // base + every 16th day
  EXPECT_GT(stats.delta_bytes, 0);
  EXPECT_LE(stats.mean_delta_bytes(), 0.10 * stats.mean_keyframe_bytes())
      << "mean delta " << stats.mean_delta_bytes() << "B vs mean keyframe "
      << stats.mean_keyframe_bytes() << "B";
}

TEST(HistoryReconstruct, EveryDayBitIdenticalUnderChaos) {
  // Transport chaos perturbs the restored archive (quarantined days, gap
  // fills); whatever the restorer produced is still history, recorded and
  // reconstructed exactly.
  const pipeline::Result world =
      pipeline::run_simulated(world_config(99, 0.02, /*chaos=*/true));
  auto store = trailing_store(world, 35);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  expect_every_day_matches_rebuild(*store, world);
}

TEST(HistoryReconstruct, SeedAndIntervalMatrix) {
  for (const std::uint64_t seed : {99ull, 7ull}) {
    const pipeline::Result world =
        pipeline::run_simulated(world_config(seed, 0.01));
    for (const int interval : {1, 5, 16}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " interval " +
                   std::to_string(interval));
      auto store =
          trailing_store(world, 20, HistoryConfig{interval});
      ASSERT_TRUE(store.ok()) << store.status().to_string();
      expect_every_day_matches_cursor(*store, world);
      if (interval == 1) {
        EXPECT_EQ(store->stats().keyframes, 21);  // every day, base included
      }
    }
  }
}

TEST(HistoryReconstruct, RandomAccessOrderIsIrrelevant) {
  // The store has ONE cache slot; jumping backwards forces a keyframe
  // re-decode, jumping forwards rolls in place. Every order must produce
  // the same bits.
  const pipeline::Result world =
      pipeline::run_simulated(world_config(99, 0.01));
  auto store = trailing_store(world, 20);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  const util::Day base = store->earliest_day();
  const util::Day end = store->latest_day();

  for (const util::Day day : {end, base, base + 10, end - 1, base + 3}) {
    auto got = store->at(day);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    const serve::Snapshot rebuilt =
        serve::rebuild_at(world.restored, world.op_world.activity, day);
    EXPECT_TRUE(**got == rebuilt) << "diverged at random-access day " << day;
  }
  const HistoryStats stats = store->stats();
  EXPECT_EQ(stats.reconstructs, 5);
  EXPECT_GT(stats.delta_folds, 0);
}

TEST(HistoryReconstruct, SaveOpenRoundTrip) {
  const pipeline::Result world =
      pipeline::run_simulated(world_config(99, 0.01));
  auto store = trailing_store(world, 20);
  ASSERT_TRUE(store.ok()) << store.status().to_string();

  const std::string path = testing::TempDir() + "history_roundtrip.plhist";
  std::filesystem::remove(path);
  ASSERT_TRUE(store->save(path).ok());

  auto reopened = HistoryStore::open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().to_string();
  EXPECT_EQ(reopened->config(), store->config());
  EXPECT_EQ(reopened->earliest_day(), store->earliest_day());
  EXPECT_EQ(reopened->latest_day(), store->latest_day());
  const HistoryStats a = store->stats();
  const HistoryStats b = reopened->stats();
  EXPECT_EQ(a.keyframes, b.keyframes);
  EXPECT_EQ(a.deltas, b.deltas);
  EXPECT_EQ(a.keyframe_bytes, b.keyframe_bytes);
  EXPECT_EQ(a.delta_bytes, b.delta_bytes);

  for (const util::Day day :
       {store->earliest_day(), store->latest_day(),
        static_cast<util::Day>(store->earliest_day() + 7)}) {
    auto original = store->at(day);
    ASSERT_TRUE(original.ok());
    const serve::Snapshot want = **original;  // copy: next at() reuses slot
    auto loaded = reopened->at(day);
    ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
    EXPECT_TRUE(**loaded == want) << "reopened store diverged on day " << day;
  }

  // inspect() agrees with the store it summarizes, without decoding days.
  auto info = inspect(path);
  ASSERT_TRUE(info.ok()) << info.status().to_string();
  EXPECT_EQ(info->version, kHistoryFormatVersion);
  EXPECT_EQ(info->base_day, store->earliest_day());
  EXPECT_EQ(info->last_day, store->latest_day());
  EXPECT_EQ(info->keyframe_interval, store->config().keyframe_interval);
  EXPECT_EQ(info->keyframes, a.keyframes);
  EXPECT_EQ(info->deltas, a.deltas);
}

TEST(HistoryReconstruct, ErrorsArePreciseAndTyped) {
  HistoryStore empty_store;
  EXPECT_EQ(empty_store.at(100).status().code(),
            pl::StatusCode::kFailedPrecondition);
  EXPECT_TRUE(empty_store.empty());
  EXPECT_EQ(empty_store.save(testing::TempDir() + "never.plhist").code(),
            pl::StatusCode::kFailedPrecondition);

  const pipeline::Result world =
      pipeline::run_simulated(world_config(99, 0.01));
  auto store = trailing_store(world, 10);
  ASSERT_TRUE(store.ok()) << store.status().to_string();
  EXPECT_EQ(store->at(store->earliest_day() - 1).status().code(),
            pl::StatusCode::kNotFound);
  EXPECT_EQ(store->at(store->latest_day() + 1).status().code(),
            pl::StatusCode::kNotFound);

  // Out-of-sequence appends are refused before any state changes.
  const serve::DayDelta wrong_day = serve::slice_day(
      world.restored, world.op_world.activity, store->latest_day() + 5);
  auto current = store->at(store->latest_day());
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(store->append_day(wrong_day, **current).code(),
            pl::StatusCode::kInvalidArgument);

  EXPECT_EQ(HistoryStore::open(testing::TempDir() + "no_such.plhist")
                .status()
                .code(),
            pl::StatusCode::kNotFound);
}

}  // namespace
}  // namespace pl::history
