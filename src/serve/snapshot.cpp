#include "serve/snapshot.hpp"

#include <algorithm>
#include <functional>
#include <ranges>
#include <utility>

#include "check/contracts.hpp"
#include "exec/pool.hpp"
#include "util/date.hpp"

namespace pl::serve {

namespace {

using restore::StateSpan;
using util::Day;

/// Merge adjacent same-state spans. The restorer may legitimately emit a
/// state's run split at a day where nothing changed (e.g. around a gap it
/// later filled); advance_day() extends the trailing span one day at a
/// time, so the working set must hold the canonical merged form for the
/// two paths to produce identical lists. Admin lifetimes are invariant
/// under this merge (a zero-gap same-state continuation merges under the
/// 4.1 rules either way), which the advance-vs-rebuild tests lock.
std::vector<StateSpan> canonicalize(const std::vector<StateSpan>& spans) {
  std::vector<StateSpan> out;
  out.reserve(spans.size());
  for (const StateSpan& span : spans) {
    if (!out.empty() && out.back().days.last + 1 == span.days.first &&
        out.back().state == span.state) {
      out.back().days.last = span.days.last;
    } else {
      out.push_back(span);
    }
  }
  return out;
}

/// Calls `on_registry(index)` once per registry and `on_country(code)` once
/// per known country among one row's admin lives: the row's memberships in
/// `by_registry_` and `by_country_`. A row has a handful of lives, so the
/// dedupe rescans the earlier ones instead of allocating a set.
template <typename OnRegistry, typename OnCountry>
void for_each_membership(std::span<const AdminLifeRow> lives,
                         OnRegistry on_registry, OnCountry on_country) {
  std::array<bool, asn::kRirCount> seen_registry{};
  for (std::size_t a = 0; a < lives.size(); ++a) {
    const std::size_t rir = asn::index_of(lives[a].life.registry);
    if (!seen_registry[rir]) {
      seen_registry[rir] = true;
      on_registry(rir);
    }
    const asn::CountryCode country = lives[a].life.country;
    if (country.unknown()) continue;
    const bool seen = std::ranges::any_of(
        lives.first(a),
        [&](const AdminLifeRow& earlier) {
          return earlier.life.country == country;
        });
    if (!seen) on_country(country);
  }
}

/// Fold one registry's facts for `day` (ascending by ASN, unique) into its
/// canonical spans in one merge walk: an unchanged record extends its run,
/// a new or changed one opens a span. Appends every ASN with a transition —
/// a new, changed or vanished record, a `dele::RecordChange` between the
/// files of `day - 1` and `day` — to `changed`, ascending. Returns the
/// registry's first observed day after the fold.
std::optional<Day> fold_registry(
    std::map<std::uint32_t, std::vector<StateSpan>>& spans,
    std::span<const DelegationFact> facts, Day day,
    std::vector<std::uint32_t>& changed) {
  const auto listed_before = [day](const std::vector<StateSpan>& list) {
    return !list.empty() && list.back().days.last == day - 1;
  };
  std::optional<Day> first_observed;
  auto it = spans.begin();
  auto fact = facts.begin();
  while (it != spans.end() || fact != facts.end()) {
    if (fact == facts.end() ||
        (it != spans.end() && it->first < fact->asn.value)) {
      if (listed_before(it->second)) changed.push_back(it->first);  // vanished
    } else {
      if (it == spans.end() || fact->asn.value < it->first)
        it = spans.emplace_hint(it, fact->asn.value, std::vector<StateSpan>{});
      std::vector<StateSpan>& list = it->second;
      if (listed_before(list) && list.back().state == fact->state) {
        list.back().days.last = day;  // state unchanged: extend the run
      } else {
        list.push_back(StateSpan{util::DayInterval{day, day}, fact->state});
        changed.push_back(it->first);
      }
      ++fact;
    }
    if (!it->second.empty() &&
        (!first_observed || it->second.front().days.first < *first_observed))
      first_observed = it->second.front().days.first;
    ++it;
  }
  return first_observed;
}

/// Patch a sorted vector in linear passes, without re-sorting it: drop one
/// occurrence of each value of `removed` (sorted), map the survivors through
/// the monotone `map`, then merge in `added` (sorted) from the back.
template <typename T, typename Map>
void patch_sorted(std::vector<T>& sorted, std::span<const T> removed,
                  std::span<const T> added, Map map) {
  std::size_t kept = 0;
  std::size_t r = 0;
  for (const T value : sorted) {
    while (r < removed.size() && removed[r] < value) ++r;
    if (r < removed.size() && removed[r] == value) {
      ++r;
      continue;
    }
    sorted[kept++] = map(value);
  }
  sorted.resize(kept + added.size());
  std::size_t write = sorted.size();
  std::size_t a = added.size();
  while (a > 0) {
    if (kept > 0 && added[a - 1] < sorted[kept - 1])
      sorted[--write] = sorted[--kept];
    else
      sorted[--write] = added[--a];
  }
}

/// One run of `count` elements at `begin` replaced by `content`, which is at
/// least as long.
template <typename T>
struct Splice {
  std::size_t begin = 0;
  std::size_t count = 0;
  std::span<const T> content;
};

/// Apply growing splices (ascending, non-overlapping) to `values` in place:
/// grow once, then walk back to front, moving each tail up by the growth of
/// the splices before it. No element is moved more than once.
template <typename T>
void apply_splices(std::vector<T>& values, std::span<const Splice<T>> splices) {
  std::size_t read = values.size();
  std::size_t growth = 0;
  for (const Splice<T>& splice : splices) {
    PL_EXPECT(splice.content.size() >= splice.count,
              "apply_splices only grows");
    growth += splice.content.size() - splice.count;
  }
  values.resize(values.size() + growth);
  std::size_t write = values.size();
  for (const Splice<T>& splice : std::views::reverse(splices)) {
    const std::size_t tail = splice.begin + splice.count;
    if (write != read)
      std::move_backward(values.begin() + static_cast<std::ptrdiff_t>(tail),
                         values.begin() + static_cast<std::ptrdiff_t>(read),
                         values.begin() + static_cast<std::ptrdiff_t>(write));
    write -= read - tail + splice.content.size();
    std::ranges::copy(splice.content,
                      values.begin() + static_cast<std::ptrdiff_t>(write));
    read = splice.begin;
  }
}

/// Count of sorted values <= day.
std::int64_t count_le(const std::vector<Day>& sorted, Day day) noexcept {
  return std::upper_bound(sorted.begin(), sorted.end(), day) - sorted.begin();
}

/// Count of sorted values < day.
std::int64_t count_lt(const std::vector<Day>& sorted, Day day) noexcept {
  return std::lower_bound(sorted.begin(), sorted.end(), day) - sorted.begin();
}

}  // namespace

Snapshot::BuiltAsn Snapshot::build_asn_rows(
    asn::Asn asn, std::span<const lifetimes::AdminLifetime> admin,
    std::span<const lifetimes::OpLifetime> op, const SnapshotConfig& config) {
  const joint::AsnClassification cls = joint::classify_asn(admin, op);
  const joint::AsnSquatFlags squats =
      joint::flag_asn_squats(admin, op, cls, config.squat);

  BuiltAsn built;
  built.row.asn = asn;
  built.row.admin_count = static_cast<std::uint32_t>(admin.size());
  built.row.op_count = static_cast<std::uint32_t>(op.size());

  std::uint16_t flags = 0;
  if (!admin.empty()) flags |= kFlagEverAllocated;
  if (!op.empty()) flags |= kFlagEverActive;

  built.admin.reserve(admin.size());
  for (std::size_t a = 0; a < admin.size(); ++a) {
    built.admin.push_back(AdminLifeRow{admin[a], cls.admin_category[a]});
    if (admin[a].transferred) flags |= kFlagTransferred;
    switch (cls.admin_category[a]) {
      case joint::Category::kUnused: flags |= kFlagUnusedLife; break;
      case joint::Category::kPartialOverlap:
        flags |= kFlagPartialOverlap;
        break;
      case joint::Category::kCompleteOverlap:
        flags |= kFlagCompleteOverlap;
        break;
      case joint::Category::kOutsideDelegation: break;  // admin never is
    }
  }

  built.op.reserve(op.size());
  for (std::size_t o = 0; o < op.size(); ++o) {
    OpLifeRow row;
    row.life = op[o];
    row.category = cls.op_category[o];
    row.admin_index = static_cast<std::int32_t>(cls.op_to_admin[o]);
    row.dormant_squat = squats.dormant[o];
    row.outside_activity = squats.outside[o];
    if (row.dormant_squat) flags |= kFlagDormantSquat;
    if (row.outside_activity) flags |= kFlagOutsideActivity;
    built.op.push_back(row);
  }

  built.row.flags = flags;
  return built;
}

/// Whether a clean ASN's row changes beyond its open ends when the archive
/// end moves from `end` to `end + 1`. A clean ASN has no delegation
/// transition and no activity flip on the new day, so exactly its lives that
/// end on `end` — at most its last admin life and its last op life — grow by
/// one day, and nothing else in its inputs moves. That keeps every 4.1 merge
/// decision (a piece sorted after an open piece only sees a more negative
/// gap, still within a non-negative transfer tolerance), every overlap and
/// containment relation, and so every category. Two row fields still move
/// with the end alone, so those rows go through the builder:
///   * the best-overlap `admin_index` of an open last op life that overlaps
///     an earlier admin life besides the open last one: the last one's
///     overlap gains a day and may overtake;
///   * a dormant-squat verdict whose ratio op_len / admin_len crosses
///     `max_relative_duration` as the open admin life (and an open op life
///     inside it) grows.
/// A negative transfer tolerance could flip a merge, so under one every row
/// with an open admin life counts. Derived from the rows alone: no format
/// carries it.
bool end_sensitive(std::span<const AdminLifeRow> admin,
                   std::span<const OpLifeRow> op, Day end,
                   const SnapshotConfig& config) {
  // An op life that grows alone keeps every overlap: the admin lives all
  // end before its new day.
  if (admin.empty() || admin.back().life.days.last != end) return false;
  if (config.admin.transfer_gap_tolerance < 0) return true;
  const util::DayInterval& open = admin.back().life.days;

  if (!op.empty() && op.back().life.days.last == end && admin.size() >= 2 &&
      admin[admin.size() - 2].life.days.last >= op.back().life.days.first)
    return true;

  // The dormant-awakening walk of joint::flag_asn_squats over the open
  // admin life, comparing each verdict at both ends.
  if (admin.back().category != joint::Category::kCompleteOverlap) return false;
  const auto flagged = [&config](std::int64_t op_days,
                                 std::int64_t admin_days) {
    return static_cast<double>(op_days) / static_cast<double>(admin_days) <=
           config.squat.max_relative_duration;
  };
  Day previous_end = open.first - 1;  // allocation start
  for (const OpLifeRow& life : op) {
    const util::DayInterval& days = life.life.days;
    if (!open.contains(days)) continue;
    const std::int64_t dormancy =
        static_cast<std::int64_t>(days.first) - previous_end - 1;
    previous_end = days.last;
    if (dormancy < config.squat.dormancy_days) continue;
    const std::int64_t grown = days.length() + (days.last == end ? 1 : 0);
    if (flagged(days.length(), open.length()) !=
        flagged(grown, open.length() + 1))
      return true;
  }
  return false;
}

void Snapshot::append_built(BuiltAsn&& built) {
  if (built.admin.empty() && built.op.empty()) return;
  built.row.admin_begin = static_cast<std::uint32_t>(admin_rows_.size());
  built.row.op_begin = static_cast<std::uint32_t>(op_rows_.size());
  rows_.push_back(built.row);
  admin_rows_.insert(admin_rows_.end(), built.admin.begin(),
                     built.admin.end());
  op_rows_.insert(op_rows_.end(), built.op.begin(), built.op.end());
}

void Snapshot::assemble(const lifetimes::AdminDataset& admin,
                        const lifetimes::OpDataset& op) {
  rows_.clear();
  admin_rows_.clear();
  op_rows_.clear();

  struct Group {
    std::uint32_t asn;
    const std::vector<std::size_t>* admin_indices;
    const std::vector<std::size_t>* op_indices;
  };
  std::vector<Group> groups;
  groups.reserve(admin.by_asn.size() + op.by_asn.size());
  auto a_it = admin.by_asn.begin();
  auto o_it = op.by_asn.begin();
  while (a_it != admin.by_asn.end() || o_it != op.by_asn.end()) {
    if (o_it == op.by_asn.end() ||
        (a_it != admin.by_asn.end() && a_it->first < o_it->first)) {
      groups.push_back(Group{a_it->first, &a_it->second, nullptr});
      ++a_it;
    } else if (a_it == admin.by_asn.end() || o_it->first < a_it->first) {
      groups.push_back(Group{o_it->first, nullptr, &o_it->second});
      ++o_it;
    } else {
      groups.push_back(Group{a_it->first, &a_it->second, &o_it->second});
      ++a_it;
      ++o_it;
    }
  }

  const auto contiguous = [](const std::vector<std::size_t>& indices) {
    for (std::size_t i = 1; i < indices.size(); ++i)
      if (indices[i] != indices[0] + i) return false;
    return true;
  };

  // Per-ASN row construction is independent: build each group into its own
  // slot in parallel, then concatenate in ascending-ASN order (identical to
  // the serial loop — see DESIGN.md §8 on the slot-merge discipline).
  std::vector<BuiltAsn> slots(groups.size());
  exec::parallel_for(
      groups.size(),
      [&](std::size_t begin, std::size_t end) {
        std::vector<lifetimes::AdminLifetime> admin_scratch;
        std::vector<lifetimes::OpLifetime> op_scratch;
        for (std::size_t g = begin; g < end; ++g) {
          std::span<const lifetimes::AdminLifetime> admin_span;
          if (groups[g].admin_indices != nullptr) {
            const auto& indices = *groups[g].admin_indices;
            if (contiguous(indices)) {
              admin_span = {admin.lifetimes.data() + indices.front(),
                            indices.size()};
            } else {
              admin_scratch.clear();
              for (const std::size_t a : indices)
                admin_scratch.push_back(admin.lifetimes[a]);
              admin_span = admin_scratch;
            }
          }
          std::span<const lifetimes::OpLifetime> op_span;
          if (groups[g].op_indices != nullptr) {
            const auto& indices = *groups[g].op_indices;
            if (contiguous(indices)) {
              op_span = {op.lifetimes.data() + indices.front(),
                         indices.size()};
            } else {
              op_scratch.clear();
              for (const std::size_t o : indices)
                op_scratch.push_back(op.lifetimes[o]);
              op_span = op_scratch;
            }
          }
          slots[g] = build_asn_rows(asn::Asn{groups[g].asn}, admin_span,
                                    op_span, config_);
        }
      },
      /*grain=*/64);

  for (BuiltAsn& built : slots) append_built(std::move(built));
}

Snapshot::BuiltAsn Snapshot::build_working_asn(
    asn::Asn asn, const FirstObserved& first_observed) const {
  const WorkingSet& working = *working_;
  lifetimes::AsnSpansByRegistry spans{};
  for (std::size_t r = 0; r < asn::kRirCount; ++r) {
    const auto it = working.archive.registries[r].spans.find(asn.value);
    if (it != working.archive.registries[r].spans.end()) spans[r] = &it->second;
  }
  const std::vector<lifetimes::AdminLifetime> admin =
      lifetimes::build_asn_admin_lifetimes(asn.value, spans, first_observed,
                                           archive_end_, config_.admin);
  std::vector<lifetimes::OpLifetime> op;
  if (const util::IntervalSet* days = working.activity.activity(asn))
    for (const util::DayInterval& life :
         days->coalesce(config_.op_timeout_days))
      op.push_back(lifetimes::OpLifetime{asn, life});
  return build_asn_rows(asn, admin, op, config_);
}

void Snapshot::rebuild_rows() {
  const WorkingSet& working = *working_;

  // Ascending union of every ASN the working set knows: the registries'
  // span keys, then the activity keys. Each source is sorted, so merge
  // instead of sorting.
  std::vector<std::uint32_t> asns;
  const auto merge_sorted = [&asns](auto&& keys) {
    const std::size_t mid = asns.size();
    for (const std::uint32_t key : keys) asns.push_back(key);
    std::inplace_merge(asns.begin(), asns.begin() + mid, asns.end());
    asns.erase(std::unique(asns.begin(), asns.end()), asns.end());
  };
  for (const restore::RestoredRegistry& registry : working.archive.registries)
    merge_sorted(std::views::keys(registry.spans));
  merge_sorted(std::views::keys(working.activity.entries()) |
               std::views::transform(
                   [](const asn::Asn& key) { return key.value; }));

  const FirstObserved first_observed =
      lifetimes::registry_first_observed(working.archive);

  // Per-ASN row construction is independent: build each ASN into its own
  // slot in parallel, then concatenate in ascending-ASN order (identical to
  // the serial loop — see DESIGN.md §8 on the slot-merge discipline).
  std::vector<BuiltAsn> slots(asns.size());
  exec::parallel_for(
      asns.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
          slots[i] = build_working_asn(asn::Asn{asns[i]}, first_observed);
      },
      /*grain=*/64);

  std::size_t row_total = 0, admin_total = 0, op_total = 0;
  for (const BuiltAsn& built : slots) {
    row_total += built.admin.empty() && built.op.empty() ? 0 : 1;
    admin_total += built.admin.size();
    op_total += built.op.size();
  }
  rows_.clear();
  admin_rows_.clear();
  op_rows_.clear();
  rows_.reserve(row_total);
  admin_rows_.reserve(admin_total);
  op_rows_.reserve(op_total);
  for (BuiltAsn& built : slots) append_built(std::move(built));
  rebuild_indexes();
}

void Snapshot::rebuild_indexes() {
  PL_ASSERT_SORTED(rows_,
                   [](const AsnRow& a, const AsnRow& b) {
                     return a.asn < b.asn;
                   },
                   "snapshot rows before rebuild_indexes()");
  for (auto& list : by_registry_) list.clear();
  by_country_.clear();
  admin_starts_.clear();
  admin_ends_.clear();
  op_starts_.clear();
  op_ends_.clear();
  admin_starts_.reserve(admin_rows_.size());
  admin_ends_.reserve(admin_rows_.size());
  op_starts_.reserve(op_rows_.size());
  op_ends_.reserve(op_rows_.size());

  for (std::uint32_t r = 0; r < rows_.size(); ++r) {
    const AsnRow& row = rows_[r];
    for (const AdminLifeRow& life : admin_lives(row)) {
      admin_starts_.push_back(life.life.days.first);
      admin_ends_.push_back(life.life.days.last);
    }
    for_each_membership(
        admin_lives(row),
        [&](std::size_t rir) { by_registry_[rir].push_back(r); },
        [&](asn::CountryCode country) { by_country_[country].push_back(r); });
    for (const OpLifeRow& life : op_lives(row)) {
      op_starts_.push_back(life.life.days.first);
      op_ends_.push_back(life.life.days.last);
    }
  }
  std::sort(admin_starts_.begin(), admin_starts_.end());
  std::sort(admin_ends_.begin(), admin_ends_.end());
  std::sort(op_starts_.begin(), op_starts_.end());
  std::sort(op_ends_.begin(), op_ends_.end());
}

Snapshot Snapshot::build(const restore::RestoredArchive& archive,
                         const bgp::ActivityTable& activity,
                         util::Day archive_end, const SnapshotConfig& config) {
  PL_EXPECT(([&] {
              for (std::size_t r = 0; r < asn::kRirCount; ++r)
                if (archive.registries[r].rir != asn::kAllRirs[r])
                  return false;
              return true;
            })(),
            "Snapshot::build requires the canonical registry order "
            "(registries[i].rir == kAllRirs[i])");

  Snapshot snap;
  snap.config_ = config;
  snap.archive_end_ = archive_end;

  WorkingSet working;
  for (std::size_t r = 0; r < asn::kRirCount; ++r) {
    working.archive.registries[r].rir = archive.registries[r].rir;
    for (const auto& [asn_value, spans] : archive.registries[r].spans)
      working.archive.registries[r].spans.emplace(asn_value,
                                                  canonicalize(spans));
  }
  working.activity = activity;
  snap.working_ = std::move(working);
  snap.rebuild_rows();
  return snap;
}

Snapshot Snapshot::from_datasets(lifetimes::AdminDataset admin,
                                 lifetimes::OpDataset op,
                                 const SnapshotConfig& config) {
  Snapshot snap;
  snap.config_ = config;

  admin.index();
  if (op.by_asn.empty() && !op.lifetimes.empty()) {
    std::sort(op.lifetimes.begin(), op.lifetimes.end(),
              [](const lifetimes::OpLifetime& a,
                 const lifetimes::OpLifetime& b) {
                if (a.asn != b.asn) return a.asn < b.asn;
                return a.days.first < b.days.first;
              });
    for (std::size_t i = 0; i < op.lifetimes.size(); ++i)
      op.by_asn[op.lifetimes[i].asn.value].push_back(i);
  }

  util::Day end = admin.archive_end;
  for (const lifetimes::AdminLifetime& life : admin.lifetimes)
    end = std::max(end, life.days.last);
  for (const lifetimes::OpLifetime& life : op.lifetimes)
    end = std::max(end, life.days.last);
  snap.archive_end_ = end;

  snap.assemble(admin, op);
  snap.rebuild_indexes();
  return snap;
}

const AsnRow* Snapshot::find(asn::Asn asn) const noexcept {
  const auto it = std::lower_bound(
      rows_.begin(), rows_.end(), asn,
      [](const AsnRow& row, asn::Asn key) { return row.asn < key; });
  if (it == rows_.end() || it->asn != asn) return nullptr;
  return &*it;
}

bool Snapshot::admin_alive_on(const AsnRow& row, util::Day day) const noexcept {
  for (const AdminLifeRow& life : admin_lives(row))
    if (life.life.days.contains(day)) return true;
  return false;
}

bool Snapshot::op_alive_on(const AsnRow& row, util::Day day) const noexcept {
  for (const OpLifeRow& life : op_lives(row))
    if (life.life.days.contains(day)) return true;
  return false;
}

AliveCensus Snapshot::alive_census(util::Day day) const noexcept {
  // Lives covering `day` = lives started by `day` minus lives ended before
  // it; both counts are O(log n) over the sorted event arrays.
  AliveCensus census;
  census.admin_alive = count_le(admin_starts_, day) - count_lt(admin_ends_, day);
  census.op_alive = count_le(op_starts_, day) - count_lt(op_ends_, day);
  return census;
}

pl::Status Snapshot::advance_day(const DayDelta& delta, AdvanceStats* stats,
                                 obs::Span* span) {
  if (!working_)
    return pl::failed_precondition_error(
        "snapshot has no working set (built from datasets, not from a "
        "restored archive); advance_day needs Snapshot::build output");
  if (delta.day != archive_end_ + 1)
    return pl::invalid_argument_error(
        "advance_day expects day " + util::format_iso(archive_end_ + 1) +
        ", got " + util::format_iso(delta.day));
  const auto phase = [span](const char* name) {
    return span != nullptr ? span->child(name) : obs::Span{};
  };
  obs::Span diff_span = phase("serve.advance.diff");

  // Validate before mutating so a rejected delta leaves the snapshot
  // untouched: at most one fact per (registry, ASN). Facts are walked
  // registry-major, ascending ASN within — slice_day's order, so a sorted
  // copy is only made for a delta that arrives in another order.
  const auto key = [](const DelegationFact& fact) {
    return std::pair(asn::index_of(fact.registry), fact.asn);
  };
  std::span<const DelegationFact> facts = delta.delegation;
  std::vector<DelegationFact> sorted_facts;
  if (!std::ranges::is_sorted(facts, {}, key)) {
    sorted_facts.assign(facts.begin(), facts.end());
    std::ranges::sort(sorted_facts, {}, key);
    facts = sorted_facts;
  }
  const auto duplicate = std::ranges::adjacent_find(facts, {}, key);
  if (duplicate != facts.end())
    return pl::invalid_argument_error(
        "duplicate delegation fact for AS" + asn::to_string(duplicate->asn) +
        " in one registry on " + util::format_iso(delta.day));
  std::span<const asn::Asn> active = delta.active;
  std::vector<asn::Asn> sorted_active;
  if (std::ranges::adjacent_find(active, std::greater_equal{}) !=
      active.end()) {
    sorted_active.assign(active.begin(), active.end());
    std::ranges::sort(sorted_active);
    sorted_active.erase(std::unique(sorted_active.begin(), sorted_active.end()),
                        sorted_active.end());
    active = sorted_active;
  }

  // Diff the day against the working set and extend it in place. The dirty
  // ASNs are those with a transition: a delegation record that is new,
  // changed or vanished, or an activity flip.
  WorkingSet& working = *working_;
  const Day end = archive_end_;
  archive_end_ = delta.day;
  FirstObserved first_observed;
  std::vector<std::uint32_t> dirty;
  for (std::size_t r = 0; r < asn::kRirCount; ++r) {
    const auto [begin, stop] = std::ranges::equal_range(
        facts, r, {}, [](const DelegationFact& fact) {
          return asn::index_of(fact.registry);
        });
    first_observed[r] =
        fold_registry(working.archive.registries[r].spans,
                      std::span(begin, stop), delta.day, dirty);
  }
  std::ranges::sort(dirty);
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  const std::size_t touched_admin = dirty.size();
  const std::vector<asn::Asn> flipped =
      working.activity.extend_day(delta.day, active);
  const std::size_t mid = dirty.size();
  for (const asn::Asn asn : flipped) dirty.push_back(asn.value);
  std::inplace_merge(dirty.begin(), dirty.begin() + mid, dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  diff_span.note("transitions",
                 static_cast<std::int64_t>(touched_admin + flipped.size()));
  diff_span.finish();

  // Rows: one walk over the rows in ASN order. Dirty ASNs and clean rows
  // whose fields move with the end alone (end_sensitive) go through the
  // builder; every other clean row only bumps its open ends in place.
  obs::Span rows_span = phase("serve.advance.rows");
  std::vector<RowEdit> edits;
  std::int64_t extended = 0;
  std::size_t next_dirty = 0;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const AsnRow& row = rows_[i];
    for (; next_dirty < dirty.size() && dirty[next_dirty] < row.asn.value;
         ++next_dirty)
      edits.push_back(RowEdit{asn::Asn{dirty[next_dirty]}, i, false, {}});
    const std::span<AdminLifeRow> admin{admin_rows_.data() + row.admin_begin,
                                        row.admin_count};
    const std::span<OpLifeRow> op{op_rows_.data() + row.op_begin,
                                  row.op_count};
    const bool admin_open =
        !admin.empty() && admin.back().life.days.last == end;
    const bool op_open = !op.empty() && op.back().life.days.last == end;
    if (next_dirty < dirty.size() && dirty[next_dirty] == row.asn.value) {
      ++next_dirty;
      edits.push_back(RowEdit{row.asn, i, true, {}});
    } else if (admin_open || op_open) {
      if (end_sensitive(admin, op, end, config_)) {
        edits.push_back(RowEdit{row.asn, i, true, {}});
      } else {
        if (admin_open) admin.back().life.days.last = archive_end_;
        if (op_open) op.back().life.days.last = archive_end_;
        ++extended;
      }
    }
  }
  for (; next_dirty < dirty.size(); ++next_dirty)
    edits.push_back(
        RowEdit{asn::Asn{dirty[next_dirty]}, rows_.size(), false, {}});

  for (RowEdit& edit : edits)
    edit.built = build_working_asn(edit.asn, first_observed);
  const std::size_t reclassified = edits.size();
  // A new ASN whose spans hold no delegated state and that has no activity
  // yields no row.
  std::erase_if(edits, [](const RowEdit& edit) {
    return !edit.replaces && edit.built.admin.empty() && edit.built.op.empty();
  });
  // Lives only grow: a new piece or run starts on the new day, so it merges
  // into an ASN's last life or follows it, and the splice only moves tails
  // up. The one exception is a registry's first published file: its lives
  // are backdated to their registration dates (4.1) and may merge earlier
  // lives of the ASN. A day that shrinks a row takes the full rebuild.
  const bool grows = std::ranges::all_of(edits, [this](const RowEdit& edit) {
    return !edit.replaces ||
           (edit.built.admin.size() >= rows_[edit.row].admin_count &&
            edit.built.op.size() >= rows_[edit.row].op_count);
  });
  rows_span.note("rebuilt", static_cast<std::int64_t>(reclassified));
  rows_span.note("extended", extended);
  rows_span.finish();

  obs::Span index_span = phase("serve.advance.indexes");
  if (grows)
    splice_rows(edits, end);
  else
    rebuild_rows();
  index_span.finish();

  PL_ENSURE(([this] {
              Snapshot rebuilt = *this;
              rebuilt.rebuild_rows();
              return rebuilt == *this;
            })(),
            "advance_day's patched rows and indexes must equal a full "
            "rebuild_rows() over the same working set");
  if (stats != nullptr) {
    stats->facts = static_cast<std::int64_t>(delta.delegation.size());
    stats->active = static_cast<std::int64_t>(active.size());
    stats->touched_admin = static_cast<std::int64_t>(touched_admin);
    stats->touched_op = static_cast<std::int64_t>(flipped.size());
    stats->reclassified = static_cast<std::int64_t>(reclassified);
    stats->extended = extended;
  }
  return {};
}

void Snapshot::splice_rows(std::span<const RowEdit> edits, Day end) {
  // The replaced rows' index values go out, every rebuilt row's come in.
  struct DayEvents {
    std::vector<Day> admin_starts, admin_ends, op_starts, op_ends;

    void add(std::span<const AdminLifeRow> admin,
             std::span<const OpLifeRow> op) {
      for (const AdminLifeRow& life : admin) {
        admin_starts.push_back(life.life.days.first);
        admin_ends.push_back(life.life.days.last);
      }
      for (const OpLifeRow& life : op) {
        op_starts.push_back(life.life.days.first);
        op_ends.push_back(life.life.days.last);
      }
    }
    void sort() {
      for (std::vector<Day>* days :
           {&admin_starts, &admin_ends, &op_starts, &op_ends})
        std::ranges::sort(*days);
    }
  };
  DayEvents removed, added;
  std::vector<std::uint32_t> replaced;     ///< old indices of replaced rows
  std::vector<std::uint32_t> inserted_at;  ///< old rows new ones go before
  std::vector<Splice<AsnRow>> row_splices;
  std::vector<Splice<AdminLifeRow>> admin_splices;
  std::vector<Splice<OpLifeRow>> op_splices;
  for (const RowEdit& edit : edits) {
    const bool at_end = edit.row == rows_.size();
    const std::size_t admin_at =
        at_end ? admin_rows_.size() : rows_[edit.row].admin_begin;
    const std::size_t op_at = at_end ? op_rows_.size() : rows_[edit.row].op_begin;
    std::size_t admin_count = 0, op_count = 0;
    if (edit.replaces) {
      const AsnRow& old = rows_[edit.row];
      removed.add(admin_lives(old), op_lives(old));
      admin_count = old.admin_count;
      op_count = old.op_count;
      replaced.push_back(static_cast<std::uint32_t>(edit.row));
    } else {
      inserted_at.push_back(static_cast<std::uint32_t>(edit.row));
    }
    added.add(edit.built.admin, edit.built.op);
    row_splices.push_back(
        {edit.row, edit.replaces ? 1u : 0u, std::span(&edit.built.row, 1)});
    admin_splices.push_back({admin_at, admin_count, edit.built.admin});
    op_splices.push_back({op_at, op_count, edit.built.op});
  }
  apply_splices<AdminLifeRow>(admin_rows_, admin_splices);
  apply_splices<OpLifeRow>(op_rows_, op_splices);
  apply_splices<AsnRow>(rows_, row_splices);
  std::uint32_t admin_next = 0, op_next = 0;
  for (AsnRow& row : rows_) {
    row.admin_begin = admin_next;
    row.op_begin = op_next;
    admin_next += row.admin_count;
    op_next += row.op_count;
  }

  // The sorted day arrays: the open ends of the rows left in place move
  // from `end` to the new archive end, the largest value either way.
  removed.sort();
  added.sort();
  const auto same = [](Day day) { return day; };
  const auto bump = [end, this](Day day) {
    return day == end ? archive_end_ : day;
  };
  patch_sorted<Day>(admin_starts_, removed.admin_starts, added.admin_starts,
                    same);
  patch_sorted<Day>(admin_ends_, removed.admin_ends, added.admin_ends, bump);
  patch_sorted<Day>(op_starts_, removed.op_starts, added.op_starts, same);
  patch_sorted<Day>(op_ends_, removed.op_ends, added.op_ends, bump);

  // The row lists: a surviving row moves up by the rows inserted at or
  // before it; a rebuilt row's new index is its old position plus the rows
  // inserted before it.
  const auto renumber = [&inserted_at] {
    return [&inserted_at, k = std::size_t{0}](std::uint32_t row) mutable {
      while (k < inserted_at.size() && inserted_at[k] <= row) ++k;
      return static_cast<std::uint32_t>(row + k);
    };
  };
  std::array<std::vector<std::uint32_t>, asn::kRirCount> registry_added;
  std::vector<std::pair<asn::CountryCode, std::uint32_t>> country_added;
  std::size_t inserts = 0;
  for (const RowEdit& edit : edits) {
    const auto row = static_cast<std::uint32_t>(edit.row + inserts);
    if (!edit.replaces) ++inserts;
    for_each_membership(
        edit.built.admin,
        [&](std::size_t rir) { registry_added[rir].push_back(row); },
        [&](asn::CountryCode country) {
          country_added.emplace_back(country, row);
          by_country_.try_emplace(country);  // a list for a new country
        });
  }
  for (std::size_t r = 0; r < asn::kRirCount; ++r)
    patch_sorted<std::uint32_t>(by_registry_[r], replaced, registry_added[r],
                                renumber());
  std::ranges::stable_sort(country_added, {},
                           &std::pair<asn::CountryCode, std::uint32_t>::first);
  auto next = country_added.begin();
  std::vector<std::uint32_t> rows;
  for (auto& [country, list] : by_country_) {
    rows.clear();
    for (; next != country_added.end() && next->first == country; ++next)
      rows.push_back(next->second);
    patch_sorted<std::uint32_t>(list, replaced, rows, renumber());
  }
  std::erase_if(by_country_,
                [](const auto& entry) { return entry.second.empty(); });
}

bool operator==(const Snapshot& a, const Snapshot& b) {
  if (!(a.rows_ == b.rows_ && a.admin_rows_ == b.admin_rows_ &&
        a.op_rows_ == b.op_rows_ && a.archive_end_ == b.archive_end_ &&
        a.config_ == b.config_ && a.by_registry_ == b.by_registry_ &&
        a.by_country_ == b.by_country_ &&
        a.admin_starts_ == b.admin_starts_ &&
        a.admin_ends_ == b.admin_ends_ && a.op_starts_ == b.op_starts_ &&
        a.op_ends_ == b.op_ends_))
    return false;
  if (a.working_.has_value() != b.working_.has_value()) return false;
  if (!a.working_.has_value()) return true;
  const Snapshot::WorkingSet& wa = *a.working_;
  const Snapshot::WorkingSet& wb = *b.working_;
  for (std::size_t r = 0; r < asn::kRirCount; ++r)
    if (wa.archive.registries[r].rir != wb.archive.registries[r].rir ||
        wa.archive.registries[r].spans != wb.archive.registries[r].spans)
      return false;
  return wa.activity.entries() == wb.activity.entries();
}

DayDelta slice_day(const restore::RestoredArchive& archive,
                   const bgp::ActivityTable& activity, util::Day day) {
  DayDelta delta;
  delta.day = day;
  for (std::size_t r = 0; r < asn::kRirCount; ++r) {
    const restore::RestoredRegistry& registry = archive.registries[r];
    for (const auto& [asn_value, spans] : registry.spans) {
      // Spans are sorted and disjoint: binary search the one covering day.
      const auto it = std::upper_bound(
          spans.begin(), spans.end(), day,
          [](util::Day d, const StateSpan& span) { return d < span.days.first; });
      if (it == spans.begin()) continue;
      const StateSpan& span = *std::prev(it);
      if (!span.days.contains(day)) continue;
      delta.delegation.push_back(
          DelegationFact{asn::Asn{asn_value}, asn::kAllRirs[r], span.state});
    }
  }
  for (const auto& [asn_key, days] : activity.entries())
    if (days.contains(day)) delta.active.push_back(asn_key);
  return delta;
}

restore::RestoredArchive truncate_archive(
    const restore::RestoredArchive& archive, util::Day last_day) {
  restore::RestoredArchive out;
  out.cross = archive.cross;
  for (std::size_t r = 0; r < asn::kRirCount; ++r) {
    out.registries[r].rir = archive.registries[r].rir;
    out.registries[r].report = archive.registries[r].report;
    for (const auto& [asn_value, spans] : archive.registries[r].spans) {
      std::vector<StateSpan> clipped;
      for (const StateSpan& span : spans) {
        if (span.days.first > last_day) break;
        StateSpan copy = span;
        copy.days.last = std::min(copy.days.last, last_day);
        clipped.push_back(copy);
      }
      if (!clipped.empty())
        out.registries[r].spans.emplace(asn_value, std::move(clipped));
    }
  }
  return out;
}

bgp::ActivityTable truncate_activity(const bgp::ActivityTable& activity,
                                     util::Day last_day) {
  bgp::ActivityTable out;
  for (const auto& [asn_key, days] : activity.entries())
    for (const util::DayInterval& run : days.runs()) {
      if (run.first > last_day) break;
      out.mark_active(asn_key,
                      util::DayInterval{run.first,
                                        std::min(run.last, last_day)});
    }
  return out;
}

Snapshot rebuild_at(const restore::RestoredArchive& archive,
                    const bgp::ActivityTable& activity, util::Day day,
                    const SnapshotConfig& config) {
  return Snapshot::build(truncate_archive(archive, day),
                         truncate_activity(activity, day), day, config);
}

void record_metrics(const Snapshot& snapshot, obs::Registry& metrics) {
  metrics.gauge("pl_serve_snapshot_asns")
      .set(static_cast<std::int64_t>(snapshot.asn_count()));
  metrics.gauge("pl_serve_snapshot_admin_lives")
      .set(static_cast<std::int64_t>(snapshot.admin_life_count()));
  metrics.gauge("pl_serve_snapshot_op_lives")
      .set(static_cast<std::int64_t>(snapshot.op_life_count()));
  metrics.gauge("pl_serve_archive_end")
      .set(static_cast<std::int64_t>(snapshot.archive_end()));
}

}  // namespace pl::serve
