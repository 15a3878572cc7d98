// `plbench gen`: writes one workload's inputs from the seed, with the build
// under test, before any timing starts. Runs in its own process so its
// memory and time never reach the measured process.
//
// Both serving workloads serve the reference world (kWorldSeed, the world
// the study simulates), and serve_daily always replays the archive's last
// days: days differ in content, and a window placed by the seed moved peak
// RSS by a tenth between seeds. The workload seed picks what the node is
// asked: the as_of days checked here, and every request of both workloads.
//
// serve_daily (B = base day, E = B + kWalDays + kAdvanceDays = the archive
// end):
//   durable/snapshot.plsnap   Snapshot::build over the world truncated at B
//   durable/days.plwal        recovery WAL, days B+1 .. B+kWalDays
//   feed.plwal                the advance days, cut with serve::slice_day
//   expected_end.plsnap       Snapshot::build at E (the end-state oracle)
//   expected_<D>.plsnap       Snapshot::build at the sampled as_of days
//   manifest.txt              "base check_day check_day"
// serve_query:
//   durable/snapshot.plsnap   Snapshot::build at the archive end (a
//                             checkpointed node)
//   durable/days.plwal        empty
// study has no inputs besides the seed.

#include <filesystem>
#include <fstream>
#include <iostream>

#include "harness.hpp"
#include "serve/durable.hpp"
#include "serve/snapshot.hpp"
#include "util/rng.hpp"

namespace plbench {
namespace {

namespace fs = std::filesystem;

pl::serve::Snapshot rebuild_at(const pl::pipeline::Result& world,
                               pl::util::Day day) {
  return pl::serve::Snapshot::build(
      pl::serve::truncate_archive(world.restored, day),
      pl::serve::truncate_activity(world.op_world.activity, day), day);
}

bool save(const pl::serve::Snapshot& snapshot, const std::string& path) {
  const pl::Status saved = pl::serve::save_snapshot(snapshot, path);
  if (!saved.ok())
    std::cerr << "gen: cannot save " << path << ": " << saved.to_string()
              << "\n";
  return saved.ok();
}

/// The two as_of days whose answers serve_daily checks against a rebuild.
std::vector<int> check_offsets(std::uint64_t seed) {
  pl::util::Rng rng(seed ^ 0xA50F);
  const int first = static_cast<int>(rng.uniform(1, kAsOfSpan));
  int second = static_cast<int>(rng.uniform(1, kAsOfSpan - 1));
  if (second >= first) ++second;
  return {first, second};
}

int gen_serve_daily(const Args& args, const pl::pipeline::Result& world) {
  const pl::util::Day end = world.truth.archive_end;
  const pl::util::Day base = end - kWalDays - kAdvanceDays;
  const std::string durable = args.dir + "/durable";
  fs::create_directories(durable);

  if (!save(rebuild_at(world, base), durable + "/snapshot.plsnap")) return 1;
  for (pl::util::Day day = base + 1; day <= end; ++day) {
    const std::string wal = day <= base + kWalDays
                                ? durable + "/days.plwal"
                                : args.dir + "/feed.plwal";
    const pl::Status appended = pl::serve::append_wal(
        wal, pl::serve::slice_day(world.restored, world.op_world.activity,
                                  day));
    if (!appended.ok()) {
      std::cerr << "gen: WAL append failed: " << appended.to_string() << "\n";
      return 1;
    }
  }
  // The self-test's wrong oracle: one day short of the true end state.
  const pl::util::Day expected_day = args.corrupt_expected ? end - 1 : end;
  if (!save(rebuild_at(world, expected_day),
            args.dir + "/expected_end.plsnap"))
    return 1;

  std::ofstream manifest(args.dir + "/manifest.txt");
  manifest << base;
  for (const int offset : check_offsets(args.seed)) {
    const pl::util::Day day = base + offset;
    if (!save(rebuild_at(world, day),
              args.dir + "/expected_" + std::to_string(day) + ".plsnap"))
      return 1;
    manifest << " " << day;
  }
  manifest << "\n";
  return manifest ? 0 : 1;
}

int gen_serve_query(const Args& args, const pl::pipeline::Result& world) {
  const std::string durable = args.dir + "/durable";
  fs::create_directories(durable);
  if (!save(rebuild_at(world, world.truth.archive_end),
            durable + "/snapshot.plsnap"))
    return 1;
  std::ofstream wal(durable + "/days.plwal", std::ios::trunc);
  return wal ? 0 : 1;
}

}  // namespace

int generate(const Args& args) {
  fs::create_directories(args.dir);
  if (args.workload == "study") return 0;
  if (args.workload != "serve_daily" && args.workload != "serve_query") {
    std::cerr << "gen: unknown workload " << args.workload << "\n";
    return 2;
  }
  const pl::pipeline::Result world =
      pl::pipeline::run_simulated(study_config(args));
  return args.workload == "serve_daily" ? gen_serve_daily(args, world)
                                        : gen_serve_query(args, world);
}

}  // namespace plbench
