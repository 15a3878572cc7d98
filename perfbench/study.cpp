// The `study` workload: the batch job every paper figure and table comes
// from. One operation is one deployment seeding run — run_simulated, then
// serve::Snapshot::build, then serve::save_snapshot — of the reference world
// (kWorldSeed). The workload seed changes nothing here: the study's inputs
// are the world's seed and scale, and only the reference world has a pinned
// fingerprint.
//
//   setup_s      time from the spawn of a fresh process to its first
//                snapshot saved
//   op_p50_ms    median warm operation, after one untimed warm-up
//                operation in this process
//   read_p50_ms  median serve::open_snapshot of the file just saved (the
//                read a serving node seeded from the study pays)
//
// Checks: every operation's fingerprint, the cold process's included,
// equals 0x27d029edaaa3d797 (at scale 1.0; other scales need
// --expect-fingerprint), and the reopened snapshot equals the one built.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "harness.hpp"
#include "serve/durable.hpp"
#include "serve/snapshot.hpp"

extern char** environ;

namespace plbench {
namespace {

/// Warm operations measured, at least.
constexpr int kMinOps = 3;

/// Pipeline stages: name in exec.<stage>.speedup, and per-layer metric.
constexpr std::pair<const char*, const char*> kStages[] = {
    {"world", "rirsim.world_ms"},        {"op_world", "bgpsim.op_world_ms"},
    {"render", "rirsim.render_ms"},      {"restore", "restore.restore_ms"},
    {"admin", "lifetimes.admin_ms"},     {"op", "lifetimes.op_ms"},
    {"taxonomy", "joint.taxonomy_ms"}};

/// Stage times in kStages order.
std::vector<double> stage_ms(const pl::pipeline::StageTimings& t) {
  return {t.world_ms, t.op_world_ms, t.render_ms, t.restore_ms,
          t.admin_ms, t.op_ms,       t.taxonomy_ms};
}

struct StudyOp {
  pl::pipeline::Result result;
  pl::serve::Snapshot snapshot;
  pl::Status saved;
};

StudyOp study_op(const pl::pipeline::Config& config, const std::string& path,
                 double& build_ms, double& save_ms) {
  StudyOp op;
  op.result = pl::pipeline::run_simulated(config);
  auto start = Clock::now();
  op.snapshot = pl::serve::Snapshot::build(op.result.restored,
                                           op.result.op_world.activity,
                                           op.result.truth.archive_end);
  build_ms = ms_since(start);
  start = Clock::now();
  op.saved = pl::serve::save_snapshot(op.snapshot, path);
  save_ms = ms_since(start);
  return op;
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << value;
  return out.str();
}

/// Spawn `plbench cold-study` and time it from spawn to its "saved" line.
/// Returns the elapsed milliseconds and the child's fingerprint, or nullopt.
std::optional<std::pair<double, std::uint64_t>> spawn_cold(const Args& args) {
  const std::string dir = args.dir + "/cold";
  std::filesystem::create_directories(dir);
  char scale[32];
  std::snprintf(scale, sizeof scale, "%.17g", args.scale);
  std::vector<std::string> argv_s = {"plbench", "cold-study", "--dir", dir,
                                     "--scale", scale};
  std::vector<char*> argv;
  for (std::string& arg : argv_s) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) return std::nullopt;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  pid_t pid = 0;
  const auto start = Clock::now();
  const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (spawned != 0) {
    close(fds[0]);
    return std::nullopt;
  }
  std::string line;
  double elapsed = -1;
  char c = 0;
  while (read(fds[0], &c, 1) == 1) {
    if (c == '\n') {
      if (elapsed < 0) elapsed = ms_since(start);
      break;
    }
    line += c;
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  std::filesystem::remove_all(dir);
  if (elapsed < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      line.rfind("saved ", 0) != 0)
    return std::nullopt;
  return std::make_pair(elapsed,
                        std::strtoull(line.c_str() + 6, nullptr, 16));
}

struct Phase {
  std::vector<double> op_ms, read_ms, build_ms, save_ms, snapshot_mb;
  std::vector<std::vector<double>> stages;  ///< per op, kStages order
};

/// One checked operation, untimed, then the warm closed loop for
/// `args.seconds` (at least kMinOps operations). The untimed one pays this
/// process's first-run costs (page faults, pool start-up), which setup_s
/// already measures in the cold process.
Phase warm_loop(const Args& args, Outcome& outcome, std::uint64_t expected) {
  const pl::pipeline::Config config = study_config(args);
  const std::string path = args.dir + "/study.plsnap";
  Phase phase;
  const auto check = [&](const StudyOp& op) {
    const std::uint64_t print = fingerprint(op.result);
    outcome.attempt(op.saved.ok() && print == expected,
                    "study run: save " + op.saved.to_string() +
                        ", fingerprint " + hex(print) + " vs " +
                        hex(expected));
  };
  double build_ms = 0, save_ms = 0;
  check(study_op(config, path, build_ms, save_ms));

  const auto loop_start = Clock::now();
  while (static_cast<int>(phase.op_ms.size()) < kMinOps ||
         ms_since(loop_start) < 1000.0 * args.seconds) {
    const auto start = Clock::now();
    StudyOp op = study_op(config, path, build_ms, save_ms);
    const double op_ms = ms_since(start);
    check(op);
    phase.op_ms.push_back(op_ms);
    phase.build_ms.push_back(build_ms);
    phase.save_ms.push_back(save_ms);
    phase.stages.push_back(stage_ms(op.result.timings));
    phase.snapshot_mb.push_back(
        static_cast<double>(std::filesystem::file_size(path)) / 1e6);

    const auto read_start = Clock::now();
    auto reopened = pl::serve::open_snapshot(path);
    phase.read_ms.push_back(ms_since(read_start));
    outcome.attempt(reopened.ok() && *reopened == op.snapshot,
                    "open_snapshot did not return the snapshot saved");
  }
  return phase;
}

double median_stage(const Phase& phase, std::size_t stage) {
  std::vector<double> values;
  for (const std::vector<double>& op : phase.stages)
    values.push_back(op[stage]);
  return median(values);
}

}  // namespace

int cold_study(const Args& args) {
  double build_ms = 0, save_ms = 0;
  StudyOp op = study_op(study_config(args), args.dir + "/study.plsnap",
                        build_ms, save_ms);
  if (!op.saved.ok()) return 1;
  std::cout << "saved " << hex(fingerprint(op.result)) << std::endl;
  return 0;
}

Outcome run_study(const Args& args) {
  Outcome outcome;
  if (args.scale != 1.0 && !args.expect_fingerprint) {
    outcome.fail("no reference fingerprint at this scale; pass "
                 "--expect-fingerprint");
    return outcome;
  }
  const std::uint64_t expected =
      args.expect_fingerprint.value_or(kWorldFingerprint);

  const auto cold = spawn_cold(args);
  outcome.attempt(cold && cold->second == expected,
                  "cold study process failed or its fingerprint is not " +
                      hex(expected));

  const Phase phase = warm_loop(args, outcome, expected);
  const double op_p50 = median(phase.op_ms);
  outcome.metrics["setup_s"] = cold ? cold->first / 1000.0 : 0.0;
  outcome.metrics["op_p50_ms"] = op_p50;
  outcome.metrics["read_p50_ms"] = median(phase.read_ms);
  outcome.metrics["peak_rss_mb"] = peak_rss_mb();
  std::cout << "study world_seed=" << kWorldSeed << " scale=" << args.scale
            << " workers=" << kWorkers << " fingerprint=" << hex(expected)
            << "\n"
            << "  setup_s = " << outcome.metrics["setup_s"]
            << " s (spawn to first snapshot saved)\n"
            << "  run_p50_ms = " << op_p50 << " ms (" << phase.op_ms.size()
            << " warm runs)\n"
            << "  open_snapshot_p50_ms = " << outcome.metrics["read_p50_ms"]
            << " ms\n"
            << "  peak_rss_mb = " << outcome.metrics["peak_rss_mb"] << " MB\n";
  if (!args.trace) return outcome;

  // Traced run: the per-layer figures come from the same loop — the
  // program's own stage spans (Result::timings) and the harness's timers
  // around build, save and open, which the untraced run takes too. No span
  // is added to the timed path, so there is no overhead to measure.
  for (std::size_t s = 0; s < std::size(kStages); ++s)
    outcome.metrics[kStages[s].second] = median_stage(phase, s);
  outcome.metrics["serve.build_snapshot_ms"] = median(phase.build_ms);
  outcome.metrics["serve.save_snapshot_ms"] = median(phase.save_ms);
  outcome.metrics["serve.snapshot_mb"] = median(phase.snapshot_mb);
  outcome.metrics["serve.open_snapshot_ms"] = median(phase.read_ms);
  outcome.metrics["trace.overhead_pct"] = 0.0;

  // One extra serial study gives each stage's parallel speedup.
  pl::pipeline::Config serial = study_config(args);
  serial.threads = 0;
  const pl::pipeline::Result result = pl::pipeline::run_simulated(serial);
  outcome.attempt(fingerprint(result) == expected,
                  "serial study fingerprint differs from the 3-worker one");
  const std::vector<double> serial_ms = stage_ms(result.timings);
  for (std::size_t s = 0; s < std::size(kStages); ++s) {
    const double parallel = median_stage(phase, s);
    outcome.metrics["exec." + std::string(kStages[s].first) + ".speedup"] =
        parallel > 0 ? serial_ms[s] / parallel : 0.0;
  }
  return outcome;
}

}  // namespace plbench
