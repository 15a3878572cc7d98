// The serving snapshot: the study's end product frozen into a compact,
// immutable, query-optimized store.
//
// A Snapshot joins everything the paper derives per ASN — administrative
// lives (4.1), operational lives (4.2), the joint taxonomy class (6), and
// the squat-detector verdicts (6.1.2 / 6.4) — into one sorted per-ASN index
// with three query paths:
//
//   * point lookup by ASN           O(log n) binary search over AsnRow;
//   * range scan by ASN / RIR / country   over per-dimension row indexes;
//   * "alive on day D" census       O(log n) over sorted start/end arrays.
//
// Construction happens once from pipeline output (`Snapshot::build`) or
// from published Listing-1 datasets (`Snapshot::from_datasets`, query-only).
// After that the snapshot only changes through `advance_day()`, which folds
// ONE new delegation day plus ONE BGP activity day in. It diffs the day
// against the working set (the paper's consecutive-file comparison, 3.1),
// extends unchanged spans and activity runs in place, bumps the open ends of
// rows nothing touched, reruns the per-ASN builder `build` uses only for
// ASNs with a transition (or whose row moves with the end alone), and
// patches the indexes. The advance path is locked by test to be
// bit-identical to rebuilding the snapshot from a full pipeline run over the
// extended world — the invariants that make that possible are catalogued in
// DESIGN.md §11.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "bgp/activity.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "joint/squat.hpp"
#include "joint/taxonomy.hpp"
#include "lifetimes/admin.hpp"
#include "lifetimes/op.hpp"
#include "restore/types.hpp"
#include "util/status.hpp"

namespace pl::serve {

/// Per-ASN detector/status flag bits stamped on AsnRow. "Currently
/// allocated/active" are not stored but computed at query time against
/// `archive_end()`, so a moving end changes a flag only through a
/// dormant-squat verdict, which advance_day() rechecks (`end_sensitive`).
enum AsnFlag : std::uint16_t {
  kFlagEverAllocated = 1u << 0,     ///< has at least one admin life
  kFlagEverActive = 1u << 1,        ///< has at least one op life
  kFlagTransferred = 1u << 2,       ///< any admin life crossed registries
  kFlagUnusedLife = 1u << 3,        ///< any admin life classified unused
  kFlagPartialOverlap = 1u << 4,    ///< any admin life partially overlapped
  kFlagCompleteOverlap = 1u << 5,   ///< any admin life completely overlapped
  kFlagDormantSquat = 1u << 6,      ///< any op life flagged dormant-awakening
  kFlagOutsideActivity = 1u << 7,   ///< any outside-delegation op life
                                    ///< (ever-allocated ASN)
};

/// One admin life plus its taxonomy class.
struct AdminLifeRow {
  lifetimes::AdminLifetime life;
  joint::Category category = joint::Category::kUnused;

  friend bool operator==(const AdminLifeRow&, const AdminLifeRow&) = default;
};

/// One op life plus its taxonomy class, best-overlap admin life (local
/// index within the ASN's admin rows) and detector verdicts.
struct OpLifeRow {
  lifetimes::OpLifetime life;
  joint::Category category = joint::Category::kOutsideDelegation;
  std::int32_t admin_index = -1;  ///< local index, -1 when none overlaps
  bool dormant_squat = false;
  bool outside_activity = false;

  friend bool operator==(const OpLifeRow&, const OpLifeRow&) = default;
};

/// Index entry for one ASN: slices into the admin/op row arrays plus the
/// stable flag bits. Rows are sorted by ASN — the point-lookup key.
struct AsnRow {
  asn::Asn asn;
  std::uint32_t admin_begin = 0;
  std::uint32_t admin_count = 0;
  std::uint32_t op_begin = 0;
  std::uint32_t op_count = 0;
  std::uint16_t flags = 0;

  friend bool operator==(const AsnRow&, const AsnRow&) = default;
};

struct SnapshotConfig {
  int op_timeout_days = lifetimes::kPaperTimeoutDays;
  lifetimes::AdminBuildConfig admin;
  joint::SquatDetectorConfig squat;

  friend bool operator==(const SnapshotConfig&, const SnapshotConfig&) =
      default;
};

/// What one registry said about one ASN on the new day.
struct DelegationFact {
  asn::Asn asn;
  asn::Rir registry = asn::Rir::kArin;
  dele::RecordState state;

  friend bool operator==(const DelegationFact&,
                         const DelegationFact&) = default;
};

/// One day of new input: the delegation facts of every registry plus the
/// ASNs the BGP visibility rule marked active. `slice_day` cuts one out of
/// a full archive; a deployment would assemble it from the day's delegation
/// files and collector dump instead.
struct DayDelta {
  util::Day day = 0;
  std::vector<DelegationFact> delegation;
  std::vector<asn::Asn> active;

  friend bool operator==(const DayDelta&, const DayDelta&) = default;
};

/// advance_day() accounting, surfaced as span notes and `pl_serve_advance_*`
/// counters by the QueryService. A row counts in at most one of
/// `reclassified` and `extended`; every other row is left as it was.
struct AdvanceStats {
  std::int64_t facts = 0;          ///< delegation facts applied
  std::int64_t active = 0;         ///< ASNs marked active
  std::int64_t touched_admin = 0;  ///< ASNs with a delegation transition
                                   ///< (new, changed or vanished record)
  std::int64_t touched_op = 0;     ///< ASNs whose activity flipped
  std::int64_t reclassified = 0;   ///< ASNs run through the row builder
  std::int64_t extended = 0;       ///< rows whose open ends moved in place
};

struct AliveCensus {
  std::int64_t admin_alive = 0;  ///< admin lives covering the day
  std::int64_t op_alive = 0;     ///< op lives covering the day

  friend bool operator==(const AliveCensus&, const AliveCensus&) = default;
};

class Snapshot {
 public:
  /// An empty snapshot (no rows, archive end 0); useful as a slot to move
  /// a built snapshot into.
  Snapshot() = default;

  /// Build from restored pipeline output. Runs the per-ASN cores of the
  /// lifetime builders and the classifier the pipeline stages run, so a
  /// snapshot built from a pipeline's restored archive agrees exactly with
  /// its Result datasets. Keeps the inputs as the working set.
  static Snapshot build(const restore::RestoredArchive& archive,
                        const bgp::ActivityTable& activity,
                        util::Day archive_end, const SnapshotConfig& config = {});

  /// Build a query-only snapshot from already-built datasets (e.g. loaded
  /// from Listing-1 JSON). No working set: advance_day() on the result
  /// fails with kFailedPrecondition.
  static Snapshot from_datasets(lifetimes::AdminDataset admin,
                                lifetimes::OpDataset op,
                                const SnapshotConfig& config = {});

  // -- point / range / interval queries ----------------------------------

  /// Row for an ASN; nullptr when the study never saw it. O(log n).
  const AsnRow* find(asn::Asn asn) const noexcept;

  std::span<const AdminLifeRow> admin_lives(const AsnRow& row) const noexcept {
    return {admin_rows_.data() + row.admin_begin, row.admin_count};
  }
  std::span<const OpLifeRow> op_lives(const AsnRow& row) const noexcept {
    return {op_rows_.data() + row.op_begin, row.op_count};
  }

  bool admin_alive_on(const AsnRow& row, util::Day day) const noexcept;
  bool op_alive_on(const AsnRow& row, util::Day day) const noexcept;

  /// How many admin/op lives cover `day`, over the whole snapshot.
  /// O(log lives) via the sorted start/end arrays.
  AliveCensus alive_census(util::Day day) const noexcept;

  /// Row indices of ASNs that ever had an admin life under `rir`, ascending.
  const std::vector<std::uint32_t>& rows_in_registry(asn::Rir rir) const {
    return by_registry_[asn::index_of(rir)];
  }
  /// Row indices per country (admin lives' country), ascending.
  const std::map<asn::CountryCode, std::vector<std::uint32_t>>&
  rows_by_country() const noexcept {
    return by_country_;
  }

  const std::vector<AsnRow>& rows() const noexcept { return rows_; }
  util::Day archive_end() const noexcept { return archive_end_; }
  const SnapshotConfig& config() const noexcept { return config_; }
  std::size_t asn_count() const noexcept { return rows_.size(); }
  std::size_t admin_life_count() const noexcept { return admin_rows_.size(); }
  std::size_t op_life_count() const noexcept { return op_rows_.size(); }

  // -- incremental update ------------------------------------------------

  /// True when the snapshot has a working set (it came from `build`, not
  /// from `from_datasets`) and so can advance.
  bool can_advance() const noexcept { return working_.has_value(); }

  /// Fold one new day in. `delta.day` must be `archive_end() + 1`; at most
  /// one fact per (registry, ASN), in any order (`active` may also be
  /// unsorted and repeat ASNs). On success the snapshot is bit-identical to
  /// `build()` over the extended inputs; on failure it is unchanged. With a
  /// `span`, the diff, row and index phases run under its children
  /// `serve.advance.diff`, `serve.advance.rows` and `serve.advance.indexes`.
  pl::Status advance_day(const DayDelta& delta, AdvanceStats* stats = nullptr,
                         obs::Span* span = nullptr);

  /// Deep equality over everything — serving rows, derived indexes, and
  /// the working set. The advance-vs-rebuild tests assert with this.
  friend bool operator==(const Snapshot& a, const Snapshot& b);

  /// Binary persistence (durable.cpp): serializes the full private state —
  /// rows, config, and working set — and rebuilds the derived indexes on
  /// decode so a reopened snapshot compares equal to the one saved.
  friend class SnapshotCodec;

 private:
  /// Mutable build inputs advance_day() extends; every row is a function of
  /// them and the archive end. Only the registries' `rir` and `spans` are
  /// kept (no reports, no name pool). Spans are canonicalized (adjacent
  /// same-state spans merged) so that daily extension and a fresh
  /// restoration of the extended world produce identical lists.
  struct WorkingSet {
    restore::RestoredArchive archive;
    bgp::ActivityTable activity;
  };

  struct BuiltAsn {
    AsnRow row;  ///< begin offsets filled at concatenation time
    std::vector<AdminLifeRow> admin;
    std::vector<OpLifeRow> op;
  };

  /// One ASN advance_day() runs through the builder: it replaces row `row`
  /// (`replaces`) or is inserted before it.
  struct RowEdit {
    asn::Asn asn;
    std::size_t row = 0;
    bool replaces = false;
    BuiltAsn built;
  };

  using FirstObserved = std::array<std::optional<util::Day>, asn::kRirCount>;

  /// Classify + flag one ASN's lives into serving rows.
  static BuiltAsn build_asn_rows(asn::Asn asn,
                                 std::span<const lifetimes::AdminLifetime> admin,
                                 std::span<const lifetimes::OpLifetime> op,
                                 const SnapshotConfig& config);

  /// One ASN's rows from the working set at `archive_end_`: the per-ASN
  /// admin builder, the op timeout coalesce, then build_asn_rows.
  BuiltAsn build_working_asn(asn::Asn asn,
                             const FirstObserved& first_observed) const;

  void assemble(const lifetimes::AdminDataset& admin,
                const lifetimes::OpDataset& op);
  /// Rebuild every row from the working set, in parallel, then the indexes.
  /// `build()` runs it. advance_day() runs the builder only for the rows it
  /// must, falls back to this on a day that shrinks a row, and in PL_CHECKED
  /// builds checks its patched result against this on a copy.
  void rebuild_rows();
  void append_built(BuiltAsn&& built);
  void rebuild_indexes();
  /// Splice advance_day()'s rebuilt rows (ascending by ASN, none shrinking)
  /// into the row arrays and patch every index; `end` is the archive end
  /// before the advance, whose index entries move to `archive_end_`.
  void splice_rows(std::span<const RowEdit> edits, util::Day end);

  std::vector<AsnRow> rows_;
  std::vector<AdminLifeRow> admin_rows_;
  std::vector<OpLifeRow> op_rows_;
  util::Day archive_end_ = 0;
  SnapshotConfig config_;

  // Derived serving indexes, deterministic functions of the rows above.
  std::array<std::vector<std::uint32_t>, asn::kRirCount> by_registry_;
  std::map<asn::CountryCode, std::vector<std::uint32_t>> by_country_;
  std::vector<util::Day> admin_starts_;  ///< sorted admin life start days
  std::vector<util::Day> admin_ends_;    ///< sorted admin life end days
  std::vector<util::Day> op_starts_;
  std::vector<util::Day> op_ends_;

  std::optional<WorkingSet> working_;
};

/// Cut one day out of a full archive + activity table: the per-registry
/// record states in force on `day` plus the ASNs active on `day`. Facts are
/// emitted registry-major (kAllRirs order), ascending ASN within; active
/// ASNs ascending — deterministic input for advance_day().
DayDelta slice_day(const restore::RestoredArchive& archive,
                   const bgp::ActivityTable& activity, util::Day day);

/// Restrict an archive to days <= `last_day` (spans clipped, emptied ASNs
/// dropped; audit reports are left as-is — they describe the original run).
restore::RestoredArchive truncate_archive(const restore::RestoredArchive& archive,
                                          util::Day last_day);

/// Restrict an activity table to days <= `last_day`.
bgp::ActivityTable truncate_activity(const bgp::ActivityTable& activity,
                                     util::Day last_day);

/// The snapshot a fresh pipeline run over the world truncated at `day`
/// would serve — the oracle that advance_day() and history reconstruction
/// must match bit for bit.
Snapshot rebuild_at(const restore::RestoredArchive& archive,
                    const bgp::ActivityTable& activity, util::Day day,
                    const SnapshotConfig& config = {});

/// Publish the snapshot census into a metrics registry (gauges
/// `pl_serve_snapshot_asns` / `_admin_lives` / `_op_lives` and
/// `pl_serve_archive_end`).
void record_metrics(const Snapshot& snapshot, obs::Registry& metrics);

}  // namespace pl::serve
