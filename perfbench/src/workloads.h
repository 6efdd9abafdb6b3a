#pragma once
/// \file workloads.h
/// \brief The two closed-loop workloads (ensemble, stage) run against the
/// real manager/agent stack: PilotComputeService on rt::RemoteRuntime over
/// loopback TCP, two in-process AgentEndpoints, plus a journal (ensemble)
/// or a StoreManager (stage).
///
/// Every number is taken from outside the program: the benchmark times
/// its own calls into each layer's public functions and reads unit
/// timestamps and the public MetricsRegistry. A traced phase additionally
/// attaches a registry and records spans around those calls.

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

struct RunOptions {
  std::string workload;   ///< ensemble | stage
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< timed region per phase
  std::string out_dir;    ///< wal directories, span dumps
};

/// Fixed input sizes. They do not depend on the seed, so every seed costs
/// the same work; the seed only chooses payload values and object bytes.
struct Sizes {
  int pilots = 2;
  int cores_per_pilot = 2;  ///< min(2, nproc / 2), at least 1
  int kernel_inputs = 0;    ///< distinct seed-derived unit inputs
  // ensemble
  int ensemble_units_per_round = 0;
  int ensemble_rounds_per_epoch = 0;
  std::uint64_t ensemble_iterations = 0;  ///< kernel steps per unit
  // stage
  std::uint64_t object_bytes = 0;
  int fresh_per_round = 0;
  int pool_per_round = 0;
  int pool_objects = 0;
  std::uint64_t shard_budget_bytes = 0;
  int stage_units_per_round = 0;
  std::uint64_t stage_iterations = 0;  ///< kernel steps per unit
  int stage_rounds_per_epoch = 0;
};
const Sizes& sizes();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one measured phase.
struct PhaseResult {
  bool correct = true;
  std::vector<std::string> problems;  ///< failed correctness checks
  std::uint64_t attempted = 0;        ///< units submitted + ensure_on calls
  std::uint64_t failed = 0;  ///< units not DONE + ensure_on(false)
  double units_per_s = 0.0;
  std::string sampling;  ///< which rounds the metrics describe, and why
  std::vector<Metric> end_to_end;
  /// Layer metrics shared by every workload (JSON `per_layer`); traced
  /// phase only.
  std::vector<Metric> per_layer;
  /// Timings of layers only some workloads use (journal, store); printed,
  /// not part of the JSON line.
  std::vector<Metric> layer_timings;
  std::vector<std::string> span_table;  ///< traced phase only
};

/// Runs whole epochs (set-up, fixed rounds, checks, teardown) until the
/// timed region reaches options.seconds.
PhaseResult run_phase(const RunOptions& options, bool traced);

}  // namespace perfbench
