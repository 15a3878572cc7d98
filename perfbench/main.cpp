// plbench: the repository's benchmark harness (see perfbench/README.md).
//
//   plbench gen        --workload W --seed N --dir D [--scale S]
//   plbench run        --workload W --seed N --dir D --seconds T --trace 0|1
//   plbench cold-study --dir D [--scale S]
//
// `run` prints human-readable lines, then one JSON line:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {name: {"value": x, "unit": u}, ...}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). It exits nonzero when any output check failed.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string_view>

#include "exec/pool.hpp"
#include "harness.hpp"

namespace plbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by every workload's untraced run. Each is
/// defined per workload in README.md ("op" is the workload's closed-loop
/// operation, "read" its heaviest read).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"op_p50_ms", "ms"},
    {"read_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics, printed by every traced run; a layer the workload
/// does not exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    // study: pipeline stages, from Result::timings (the program's spans)
    {"rirsim.world_ms", "ms"},
    {"bgpsim.op_world_ms", "ms"},
    {"rirsim.render_ms", "ms"},
    {"restore.restore_ms", "ms"},
    {"lifetimes.admin_ms", "ms"},
    {"lifetimes.op_ms", "ms"},
    {"joint.taxonomy_ms", "ms"},
    // study: exec speedup per stage, serial time / 3-worker time
    {"exec.world.speedup", "x"},
    {"exec.op_world.speedup", "x"},
    {"exec.render.speedup", "x"},
    {"exec.restore.speedup", "x"},
    {"exec.admin.speedup", "x"},
    {"exec.op.speedup", "x"},
    {"exec.taxonomy.speedup", "x"},
    // serve: snapshot build and persistence
    {"serve.build_snapshot_ms", "ms"},
    {"serve.save_snapshot_ms", "ms"},
    {"serve.snapshot_mb", "MB"},
    {"serve.open_snapshot_ms", "ms"},
    // serve: durability
    {"durable.replay_wal_ms", "ms"},
    {"durable.replay_fold_ms", "ms"},
    {"durable.append_wal_ms", "ms"},
    {"durable.checkpoint_ms", "ms"},
    {"durable.wal_kb_per_day", "KB"},
    // serve: the fold
    {"serve.fold_ms", "ms"},
    {"advance.facts", "count"},
    {"advance.active", "count"},
    {"advance.touched_admin", "count"},
    {"advance.touched_op", "count"},
    {"advance.reclassified", "count"},
    {"advance.rows_changed", "count"},
    {"advance.useful_ratio", "ratio"},
    // history
    {"history.append_ms", "ms"},
    {"history.reset_ms", "ms"},
    {"history.at_ms", "ms"},
    {"history.folds_per_at", "count"},
    {"history.keyframe_decode_ms", "ms"},
    {"history.delta_bytes_per_day", "bytes"},
    {"history.keyframe_bytes", "bytes"},
    // serve: the query path
    {"query.cache_hit_ratio", "ratio"},
    {"query.lookup_hot_p50_us", "us"},
    {"query.lookup_p99_us", "us"},
    {"query.lookup_p999_us", "us"},
    {"query.lookup_nocache_p50_us", "us"},
    {"query.alive_p50_us", "us"},
    {"query.census_p50_us", "us"},
    {"query.scan_rows", "count"},
    // harness
    {"trace.overhead_pct", "%"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "plbench: " << why << "\n"
            << "usage: plbench gen|run|cold-study --workload W --seed N "
               "--dir D [--seconds T] [--trace 0|1] [--scale S] "
               "[--expect-fingerprint HEX] [--corrupt-expected]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--corrupt-expected") {
      args.corrupt_expected = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--dir") {
      args.dir = value;
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::string_view(value) == "1";
    } else if (flag == "--scale") {
      args.scale = std::atof(value);
    } else if (flag == "--expect-fingerprint") {
      args.expect_fingerprint = std::strtoull(value, nullptr, 16);
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (args.dir.empty()) usage("--dir is required");
  if (!(args.seconds > 0) || !(args.scale > 0))
    usage("--seconds and --scale must be positive");
  return args;
}

void print_json(const Outcome& outcome, bool trace) {
  std::string out = "{\"correct\": ";
  out += outcome.correct && outcome.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const MetricSpec& spec) {
    const auto it = outcome.metrics.find(spec.name);
    double value = it == outcome.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", value);
    if (!first) out += ", ";
    first = false;
    out += "\"" + std::string(spec.name) + "\": {\"value\": " + buf +
           ", \"unit\": \"" + spec.unit + "\"}";
  };
  if (trace)
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  else
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace

std::uint64_t fingerprint(const pl::pipeline::Result& result) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 0x100000001b3ULL;
  };
  mix(result.admin.lifetimes.size());
  for (const pl::lifetimes::AdminLifetime& life : result.admin.lifetimes) {
    mix(life.asn.value);
    mix(static_cast<std::uint64_t>(life.days.first));
    mix(static_cast<std::uint64_t>(life.days.last));
    mix(static_cast<std::uint64_t>(life.registration_date));
    mix(static_cast<std::uint64_t>(life.registry));
    mix(life.opaque_id);
    mix(life.open_ended ? 1 : 0);
    mix(life.transferred ? 1 : 0);
  }
  mix(result.op.lifetimes.size());
  for (const pl::lifetimes::OpLifetime& life : result.op.lifetimes) {
    mix(life.asn.value);
    mix(static_cast<std::uint64_t>(life.days.first));
    mix(static_cast<std::uint64_t>(life.days.last));
  }
  for (const std::int64_t count : result.taxonomy.admin_counts)
    mix(static_cast<std::uint64_t>(count));
  for (const std::int64_t count : result.taxonomy.op_counts)
    mix(static_cast<std::uint64_t>(count));
  for (const std::int64_t link : result.taxonomy.op_to_admin)
    mix(static_cast<std::uint64_t>(link));
  mix(static_cast<std::uint64_t>(result.robustness.days_applied));
  mix(static_cast<std::uint64_t>(result.robustness.days_delivered));
  return hash;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Outcome::fail(const std::string& why) {
  correct = false;
  ++failed;
  std::cout << "CHECK FAILED: " << why << "\n";
}

void Outcome::attempt(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) fail(what);
}

pl::pipeline::Config study_config(const Args& args) {
  pl::pipeline::Config config;
  config.seed = kWorldSeed;
  config.scale = args.scale;
  config.threads = kWorkers;
  return config;
}

}  // namespace plbench

int main(int argc, char** argv) {
  using namespace plbench;
  const Args args = parse(argc, argv);
  pl::exec::set_global_threads(kWorkers);

  if (args.mode == "gen") return generate(args);
  if (args.mode == "cold-study") return cold_study(args);
  if (args.mode != "run") usage("unknown mode " + args.mode);

  Outcome outcome;
  if (args.workload == "study")
    outcome = run_study(args);
  else if (args.workload == "serve_daily")
    outcome = run_serve_daily(args);
  else if (args.workload == "serve_query")
    outcome = run_serve_query(args);
  else
    usage("unknown workload " + args.workload);
  if (outcome.attempted < 1) outcome.fail("no operation was attempted");
  print_json(outcome, args.trace);
  return outcome.correct && outcome.failed == 0 ? 0 : 1;
}
