/// perfbench: one closed-loop workload of the pilot stack per process.
///
///   perfbench --workload ensemble|stage --seed N --seconds S
///             --trace 0|1 --out-dir DIR
///
/// --trace 0 measures with no registry and no spans and reports the
/// end-to-end metrics. --trace 1 splits the time between that untraced
/// phase and a traced one (registry attached, spans recorded) and reports
/// the per-layer metrics, including the tracing overhead between the two. The last line
/// of stdout is one JSON object; the process exits 1 when a correctness
/// check failed.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::PhaseResult;

struct Args {
  perfbench::RunOptions run;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload ensemble|stage "
               "--seed N --seconds S --trace 0|1 --out-dir DIR\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.run.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        a.run.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.run.seconds = std::stod(value);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value) != 0;
      } else if (flag == "--out-dir") {
        a.run.out_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload || a.run.out_dir.empty() || !(a.run.seconds > 0.0)) {
    usage("--workload, --out-dir and a positive --seconds are required");
  }
  return a;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(metrics[i].name) +
           ": {\"value\": " + perfbench::format_number(metrics[i].value) +
           ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string provenance(const Args& a) {
  const perfbench::Sizes& z = perfbench::sizes();
  const unsigned nproc = std::thread::hardware_concurrency();
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"nproc\": %u, \"git_sha\": %s, \"build_type\": %s, "
      "\"pilots\": %d, \"cores_per_pilot\": %d, \"distinct_inputs\": %d, "
      "\"ensemble\": {\"units_per_round\": %d, \"rounds_per_epoch\": %d, "
      "\"kernel_iterations\": %llu}, "
      "\"stage\": {\"object_bytes\": %llu, \"fresh_per_round\": %d, "
      "\"pool_per_round\": %d, \"pool_objects\": %d, "
      "\"shard_budget_bytes\": %llu, \"units_per_round\": %d, "
      "\"kernel_iterations\": %llu, \"rounds_per_epoch\": %d}}",
      json_string(a.run.workload).c_str(),
      static_cast<unsigned long long>(a.run.seed),
      perfbench::format_number(a.run.seconds).c_str(), a.trace ? 1 : 0, nproc,
      json_string(PERFBENCH_GIT_SHA).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), z.pilots, z.cores_per_pilot,
      z.kernel_inputs, z.ensemble_units_per_round, z.ensemble_rounds_per_epoch,
      static_cast<unsigned long long>(z.ensemble_iterations),
      static_cast<unsigned long long>(z.object_bytes), z.fresh_per_round,
      z.pool_per_round, z.pool_objects,
      static_cast<unsigned long long>(z.shard_budget_bytes),
      z.stage_units_per_round,
      static_cast<unsigned long long>(z.stage_iterations),
      z.stage_rounds_per_epoch);
  return buf;
}

int run(const Args& a) {
  std::printf("perfbench provenance %s\n", provenance(a).c_str());
  std::fflush(stdout);

  // With --trace 1 the untraced and the traced phase share the run's time.
  perfbench::RunOptions phase = a.run;
  if (a.trace) {
    phase.seconds = a.run.seconds / 2.0;
  }
  const PhaseResult base = perfbench::run_phase(phase, false);
  bool correct = base.correct;
  std::uint64_t attempted = base.attempted;
  std::uint64_t failed = base.failed;
  for (const std::string& p : base.problems) {
    std::printf("CHECK FAILED (untraced): %s\n", p.c_str());
  }
  std::printf("sampling (untraced): %s\n", base.sampling.c_str());
  print_metrics("end-to-end (untraced):", base.end_to_end);
  std::printf("  %-32s %16.6g ratio (%llu failed / %llu attempted)\n",
              "error_rate", perfbench::error_rate(failed, attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  print_metrics("layer timings (untraced; 0 where the workload bypasses "
                "the layer):",
                base.layer_timings);

  std::vector<Metric> reported = base.end_to_end;
  if (a.trace) {
    PhaseResult traced = perfbench::run_phase(phase, true);
    correct = correct && traced.correct;
    attempted += traced.attempted;
    failed += traced.failed;
    for (const std::string& p : traced.problems) {
      std::printf("CHECK FAILED (traced): %s\n", p.c_str());
    }
    traced.per_layer.push_back(
        {"obs.trace_overhead_pct",
         100.0 * (base.units_per_s - traced.units_per_s) / base.units_per_s,
         "%"});
    std::printf("sampling (traced): %s\n", traced.sampling.c_str());
    print_metrics("per-layer (traced):", traced.per_layer);
    print_metrics("layer timings (traced):", traced.layer_timings);
    std::printf("span self time (traced):\n");
    for (const std::string& row : traced.span_table) {
      std::printf("%s\n", row.c_str());
    }
    reported = traced.per_layer;
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(reported).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 3;
  }
}
