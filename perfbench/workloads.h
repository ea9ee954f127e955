// The benchmark's three workloads. Each runs in one of three modes:
//
//   run     set up, then time the workload's public entry point
//           (ExperimentRunner::Sweep, InferenceServer::Replay) untraced;
//   traced  the same inputs driven through the layer-by-layer public
//           calls with spans around each, producing per-layer metrics
//           and a record stream that must equal the untraced one;
//   gate    the fixed-configuration snapshot check against a reference
//           file (checked-in BENCH_*.json or perfbench/reference/*).
//
// Inputs are generated from the seed alone. Set-up work (suites, the
// ASKL meta-store, the serve artifact and its ladder) happens before the
// timed section and is reported as setup_s.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::string mode = "run";
  uint64_t seed = 1;
  /// Shrinks every grid and trace, for the benchmark's self-test.
  bool tiny = false;
  /// Reference file the gate mode compares against.
  std::string reference;
  /// Directory for journals and Chrome traces.
  std::string out_dir = ".";
  /// Host time at process start; setup_s runs from here.
  int64_t start_ns = 0;
};

struct Outcome {
  double setup_s = 0.0;
  double wall_s = 0.0;  ///< Host seconds of the timed section.
  double cpu_s = 0.0;   ///< Process CPU seconds of the timed section.
  int64_t ops = 0;      ///< Ok cells, or replayed requests.
  int64_t attempted = 0;
  int64_t failed = 0;
  int workers = 1;
  /// Digest of the output stream; equal across runs of one seed and
  /// across the traced and untraced modes.
  std::string digest;
  /// Named correctness checks and their verdicts.
  std::vector<std::pair<std::string, bool>> gates;
  /// Per-layer metrics (traced mode only).
  std::map<std::string, double> layers;

  void Gate(const std::string& name, bool passed) {
    gates.emplace_back(name, passed);
  }
};

/// Where a traced run writes its Chrome trace-event JSON.
inline std::string ChromeTracePath(const Options& options) {
  return options.out_dir + "/trace_" + options.workload + "_" +
         std::to_string(options.seed) + ".json";
}

Outcome RunAmlbSweep(const Options& options);
Outcome RunMixedTasksSweep(const Options& options);
Outcome RunServeReplay(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
