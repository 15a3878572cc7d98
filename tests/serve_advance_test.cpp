// Incremental day-advance vs full rebuild, bit-for-bit.
//
// Strategy: run ONE extended pipeline over the full simulated history (the
// world E). Truncate its restored archive + activity table to a day D some
// weeks before the end and build a snapshot of that shorter world; then
// advance it one day at a time using DayDeltas sliced out of E. After every
// stretch the advanced snapshot must compare equal — rows, derived indexes,
// AND working set — to Snapshot::build over the same truncation, and at the
// end to the full world's snapshot. Runs plain and under transport chaos.
#include <gtest/gtest.h>

#include <algorithm>

#include "pipeline/pipeline.hpp"
#include "serve/snapshot.hpp"

namespace pl::serve {
namespace {

using dele::RecordState;
using restore::StateSpan;

RecordState allocated(util::Day registration_date) {
  RecordState state;
  state.status = dele::Status::kAllocated;
  state.registration_date = registration_date;
  state.country = asn::CountryCode::literal('D', 'E');
  state.opaque_id = 7;
  return state;
}

RecordState available() {
  RecordState state;
  state.status = dele::Status::kAvailable;
  return state;
}

restore::RestoredArchive empty_archive() {
  restore::RestoredArchive archive;
  for (std::size_t r = 0; r < asn::kRirCount; ++r)
    archive.registries[r].rir = asn::kAllRirs[r];
  return archive;
}

void advance_equals_rebuild(const pipeline::Config& config, int days_back) {
  const pipeline::Result extended = pipeline::run_simulated(config);
  const util::Day end = extended.truth.archive_end;
  const util::Day start = end - days_back;
  ASSERT_GT(start, extended.truth.archive_begin);

  Snapshot advanced =
      rebuild_at(extended.restored, extended.op_world.activity, start);
  ASSERT_TRUE(advanced.can_advance());

  AdvanceStats total;
  for (util::Day day = start + 1; day <= end; ++day) {
    const DayDelta delta =
        slice_day(extended.restored, extended.op_world.activity, day);
    ASSERT_EQ(delta.day, day);
    AdvanceStats stats;
    const pl::Status status = advanced.advance_day(delta, &stats);
    ASSERT_TRUE(status.ok()) << status.to_string();
    EXPECT_EQ(advanced.archive_end(), day);
    total.facts += stats.facts;
    total.active += stats.active;
    total.reclassified += stats.reclassified;

    // Spot-check mid-stretch too, not only at the end: catches drift that a
    // later day would happen to repair.
    if (day == start + days_back / 2) {
      const Snapshot rebuilt =
          rebuild_at(extended.restored, extended.op_world.activity, day);
      EXPECT_TRUE(advanced == rebuilt) << "diverged by day " << day;
    }
  }

  // The days being advanced are real history, so they carry facts.
  EXPECT_GT(total.facts, 0);
  EXPECT_GT(total.active, 0);

  const Snapshot full =
      Snapshot::build(extended.restored, extended.op_world.activity, end);
  EXPECT_TRUE(advanced == full)
      << "advanced snapshot != full rebuild after " << days_back << " days";
}

TEST(ServeAdvance, ThirtyFiveDaysBitIdenticalToRebuild) {
  pipeline::Config config;
  config.seed = 99;
  config.scale = 0.02;
  advance_equals_rebuild(config, 35);
}

TEST(ServeAdvance, DifferentSeedAndScale) {
  pipeline::Config config;
  config.seed = 7;
  config.scale = 0.01;
  advance_equals_rebuild(config, 31);
}

TEST(ServeAdvance, BitIdenticalUnderChaos) {
  // Transport chaos perturbs the restored archive (quarantined days, gap
  // fills); whatever the restorer produced is still advanced exactly.
  pipeline::Config config;
  config.seed = 99;
  config.scale = 0.02;
  config.inject_chaos = true;
  advance_equals_rebuild(config, 35);
}

TEST(ServeAdvance, RejectedDeltaLeavesSnapshotUnchanged) {
  // advance_day extends the working set in place before it rebuilds the
  // rows, so every check has to run before the first mutation: a rejected
  // delta must leave rows, indexes and working set exactly as they were.
  pipeline::Config config;
  config.seed = 7;
  config.scale = 0.01;
  const pipeline::Result result = pipeline::run_simulated(config);
  const util::Day day = result.truth.archive_end - 5;
  Snapshot snapshot =
      rebuild_at(result.restored, result.op_world.activity, day);
  const Snapshot before = snapshot;
  const DayDelta next =
      slice_day(result.restored, result.op_world.activity, day + 1);
  ASSERT_GT(next.delegation.size(), 1u);
  ASSERT_GT(next.active.size(), 0u);

  DayDelta wrong_day = next;
  wrong_day.day = day + 2;
  EXPECT_EQ(snapshot.advance_day(wrong_day).code(),
            pl::StatusCode::kInvalidArgument);
  EXPECT_TRUE(snapshot == before) << "wrong-day delta mutated the snapshot";

  // The duplicate comes last, after facts that would otherwise be folded.
  DayDelta duplicate = next;
  duplicate.delegation.push_back(duplicate.delegation.front());
  EXPECT_EQ(snapshot.advance_day(duplicate).code(),
            pl::StatusCode::kInvalidArgument);
  EXPECT_TRUE(snapshot == before)
      << "duplicate-fact delta mutated the snapshot";

  // The snapshot still takes the valid delta and matches a rebuild.
  ASSERT_TRUE(snapshot.advance_day(next).ok());
  EXPECT_TRUE(snapshot ==
              rebuild_at(result.restored, result.op_world.activity, day + 1));
}

TEST(ServeAdvance, EndOnlyRowChangesMatchRebuild) {
  // Three ASNs with no transition in the window whose rows still change
  // beyond their open ends, only because the archive end moves. An advance
  // that merely bumped open ends would miss all three.
  constexpr util::Day kBase = 10000;
  constexpr util::Day kFirst = kBase + 205;  // advance from here...
  constexpr util::Day kLast = kBase + 215;   // ...to here
  constexpr util::Day kFlip = kBase + 210;   // where each row changes
  SnapshotConfig config;
  config.squat.dormancy_days = 10;  // max_relative_duration stays 0.05

  restore::RestoredArchive archive = empty_archive();
  auto& arin = archive.registries[asn::index_of(asn::Rir::kArin)].spans;
  bgp::ActivityTable activity;
  // (a) A 5-day op life 39 days into an open admin life: 5 / admin_len
  // falls to 0.05 at kFlip, so the dormant flag turns on.
  arin[100] = {StateSpan{{kBase, kBase + 110}, available()},
               StateSpan{{kBase + 111, kLast}, allocated(kBase + 111)}};
  activity.mark_active(asn::Asn{100}, util::DayInterval{kBase + 150,
                                                        kBase + 154});
  // (b) An open op life inside an open admin life, awake after 200 dormant
  // days: (end - 199) / (end + 1) passes 0.05 at kFlip, so the flag turns
  // off.
  arin[200] = {StateSpan{{kBase, kLast}, allocated(kBase)}};
  activity.mark_active(asn::Asn{200}, util::DayInterval{kBase + 200, kLast});
  // (c) An open op life overlapping both admin lives, 85 days of the
  // closed one: the open one's overlap passes it at kFlip, so admin_index
  // switches from 0 to 1.
  arin[300] = {StateSpan{{kBase, kBase + 120}, allocated(kBase)},
               StateSpan{{kBase + 121, kBase + 124}, available()},
               StateSpan{{kBase + 125, kLast}, allocated(kBase + 125)}};
  activity.mark_active(asn::Asn{300}, util::DayInterval{kBase + 36, kLast});

  const auto op_life = [](const Snapshot& snapshot, std::uint32_t asn) {
    const AsnRow* row = snapshot.find(asn::Asn{asn});
    EXPECT_NE(row, nullptr);
    EXPECT_EQ(row->op_count, 1u);
    return snapshot.op_lives(*row).back();
  };
  Snapshot advanced = rebuild_at(archive, activity, kFirst, config);
  for (util::Day day = kFirst + 1; day <= kLast; ++day) {
    AdvanceStats stats;
    ASSERT_TRUE(advanced.advance_day(slice_day(archive, activity, day), &stats)
                    .ok());
    EXPECT_EQ(stats.touched_admin, 0) << "day " << day;
    EXPECT_EQ(stats.touched_op, 0) << "day " << day;
    EXPECT_TRUE(advanced == rebuild_at(archive, activity, day, config))
        << "diverged on day " << day;

    const bool flipped = day >= kFlip;
    EXPECT_EQ(op_life(advanced, 100).dormant_squat, flipped) << day;
    EXPECT_EQ(op_life(advanced, 200).dormant_squat, !flipped) << day;
    EXPECT_EQ(op_life(advanced, 300).admin_index, flipped ? 1 : 0) << day;
  }
}

TEST(ServeAdvance, ShrinkingRowFallsBackToFullRebuild) {
  // A registry's first published file backdates its lives to their
  // registration dates (4.1), which can merge an ASN's earlier lives: the
  // one day on which a row loses lives. That day still matches a rebuild.
  constexpr util::Day kBase = 10000;
  constexpr util::Day kOpen = kBase + 208;  // RIPE's first file
  restore::RestoredArchive archive = empty_archive();
  archive.registries[asn::index_of(asn::Rir::kArin)].spans[400] = {
      StateSpan{{kBase, kBase + 50}, allocated(kBase)},
      StateSpan{{kBase + 51, kBase + 60}, available()},
      StateSpan{{kBase + 61, kOpen + 2}, allocated(kBase + 61)}};
  archive.registries[asn::index_of(asn::Rir::kRipeNcc)].spans[400] = {
      StateSpan{{kOpen, kOpen + 2}, allocated(kBase)}};
  bgp::ActivityTable activity;
  activity.mark_active(asn::Asn{400}, util::DayInterval{kBase + 5, kOpen + 2});

  Snapshot advanced = rebuild_at(archive, activity, kOpen - 2);
  for (util::Day day = kOpen - 1; day <= kOpen + 2; ++day) {
    ASSERT_TRUE(advanced.advance_day(slice_day(archive, activity, day)).ok());
    EXPECT_TRUE(advanced == rebuild_at(archive, activity, day))
        << "diverged on day " << day;
    EXPECT_EQ(advanced.find(asn::Asn{400})->admin_count, day < kOpen ? 2u : 1u)
        << day;
  }
}

TEST(ServeAdvance, DeltaInputOrderDoesNotMatter) {
  // Facts out of registry-major / ascending order and a repeated active
  // ASN are accepted and fold to the snapshot the canonical delta gives; a
  // duplicate (registry, ASN) fact is still rejected whatever its position.
  pipeline::Config config;
  config.seed = 7;
  config.scale = 0.01;
  const pipeline::Result result = pipeline::run_simulated(config);
  const util::Day day = result.truth.archive_end - 5;
  const Snapshot base =
      rebuild_at(result.restored, result.op_world.activity, day);
  const DayDelta canonical =
      slice_day(result.restored, result.op_world.activity, day + 1);
  ASSERT_GT(canonical.delegation.size(), 2u);
  ASSERT_GT(canonical.active.size(), 2u);

  DayDelta shuffled = canonical;
  std::reverse(shuffled.delegation.begin(), shuffled.delegation.end());
  std::rotate(shuffled.delegation.begin(),
              shuffled.delegation.begin() +
                  static_cast<std::ptrdiff_t>(shuffled.delegation.size() / 3),
              shuffled.delegation.end());
  shuffled.active.push_back(canonical.active.front());
  shuffled.active.push_back(canonical.active.back());
  std::reverse(shuffled.active.begin(), shuffled.active.end());

  Snapshot expected = base;
  AdvanceStats expected_stats;
  ASSERT_TRUE(expected.advance_day(canonical, &expected_stats).ok());
  Snapshot advanced = base;
  AdvanceStats stats;
  ASSERT_TRUE(advanced.advance_day(shuffled, &stats).ok());
  EXPECT_TRUE(advanced == expected);
  EXPECT_TRUE(advanced ==
              rebuild_at(result.restored, result.op_world.activity, day + 1));
  EXPECT_EQ(stats.active, expected_stats.active);
  EXPECT_EQ(stats.reclassified, expected_stats.reclassified);

  DayDelta duplicate = shuffled;
  duplicate.delegation.insert(
      duplicate.delegation.begin() +
          static_cast<std::ptrdiff_t>(duplicate.delegation.size() / 2),
      canonical.delegation.front());
  Snapshot rejected = base;
  EXPECT_EQ(rejected.advance_day(duplicate).code(),
            pl::StatusCode::kInvalidArgument);
  EXPECT_TRUE(rejected == base) << "duplicate-fact delta mutated the snapshot";
}

TEST(ServeAdvance, SliceDayIsDeterministicAndOrdered) {
  pipeline::Config config;
  config.seed = 99;
  config.scale = 0.01;
  const pipeline::Result result = pipeline::run_simulated(config);
  const util::Day day = result.truth.archive_end - 10;

  const DayDelta a =
      slice_day(result.restored, result.op_world.activity, day);
  const DayDelta b =
      slice_day(result.restored, result.op_world.activity, day);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.delegation.size(), 0u);
  EXPECT_GT(a.active.size(), 0u);
  // Registry-major, ascending ASN within each registry block.
  for (std::size_t i = 1; i < a.delegation.size(); ++i) {
    const std::size_t prev = asn::index_of(a.delegation[i - 1].registry);
    const std::size_t cur = asn::index_of(a.delegation[i].registry);
    EXPECT_LE(prev, cur);
    if (prev == cur) {
      EXPECT_LT(a.delegation[i - 1].asn, a.delegation[i].asn);
    }
  }
  for (std::size_t i = 1; i < a.active.size(); ++i)
    EXPECT_LT(a.active[i - 1], a.active[i]);
}

TEST(ServeAdvance, TruncationClipsButKeepsEarlierHistory) {
  pipeline::Config config;
  config.seed = 99;
  config.scale = 0.01;
  const pipeline::Result result = pipeline::run_simulated(config);
  const util::Day cut = result.truth.archive_end - 100;

  const restore::RestoredArchive clipped =
      truncate_archive(result.restored, cut);
  for (std::size_t r = 0; r < asn::kRirCount; ++r) {
    EXPECT_LE(clipped.registries[r].spans.size(),
              result.restored.registries[r].spans.size());
    for (const auto& [asn_value, spans] : clipped.registries[r].spans) {
      ASSERT_FALSE(spans.empty());
      for (const restore::StateSpan& span : spans)
        EXPECT_LE(span.days.last, cut);
    }
  }
  const bgp::ActivityTable activity =
      truncate_activity(result.op_world.activity, cut);
  for (const auto& [asn_key, days] : activity.entries())
    EXPECT_LE(days.span().last, cut);
}

}  // namespace
}  // namespace pl::serve
