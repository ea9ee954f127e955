// perfbench: runs one benchmark workload in one mode inside this (fresh)
// process and prints one JSON line with its measurements.
//
//   perfbench --workload amlb_sweep|mixed_tasks_sweep|serve_replay
//             --mode run|traced|gate --seed N [--tiny]
//             [--reference PATH] [--out-dir DIR]
//
// perfbench/run.py launches it, one process per measured run, so no run
// inherits the process-wide caches (ASKL meta-store, scratch arenas) a
// previous run filled. Exit codes: 0 all gates passed, 1 a gate failed,
// 2 bad usage or an unpinned environment.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "green/energy/energy_model.h"
#include "green/energy/machine_model.h"
#include "green/ml/kernels/kernels.h"
#include "green/sim/execution_context.h"
#include "green/sim/virtual_clock.h"
#include "probe.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

/// Library inputs read from the environment. The benchmark pins them:
/// only GREEN_KERNELS=1 (the default) may be set, and no other GREEN_*
/// variable at all.
constexpr const char* kLibraryEnv[] = {"GREEN_FULL", "GREEN_KERNELS",
                                       "GREEN_CHARGE_SLICE", "GREEN_TRACE"};

bool EnvironmentPinned() {
  bool pinned = true;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string var = *entry;
    if (var.rfind("GREEN_", 0) != 0 || var == "GREEN_KERNELS=1") continue;
    std::fprintf(stderr,
                 "perfbench: refusing to run with %s set; the benchmark "
                 "pins the library's configuration\n",
                 var.c_str());
    pinned = false;
  }
  return pinned;
}

JsonObject Manifest(const Options& options, const Outcome& outcome) {
  JsonObject env;
  for (const char* name : kLibraryEnv) {
    const char* value = std::getenv(name);
    env.Str(name, value == nullptr ? "(unset)" : value);
  }
  // A fresh context reports the effective charge-slice default.
  green::VirtualClock clock;
  const green::EnergyModel model(green::MachineModel::XeonGold6132());
  const green::ExecutionContext ctx(&clock, &model, 1);
  JsonObject effective;
  effective.Bool("kernels", green::KernelsEnabled())
      .Num("charge_slice_s", ctx.max_slice_seconds())
      .Str("profile", "fast");
  JsonObject manifest;
  manifest.Str("compiler", PERFBENCH_COMPILER)
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("cxx_flags", PERFBENCH_CXX_FLAGS)
      .Int("workers", outcome.workers)
      .Int("seed", static_cast<int64_t>(options.seed))
      .Obj("env", env)
      .Obj("effective", effective);
  return manifest;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --mode run|traced|gate "
               "--seed N [--tiny] [--reference PATH] [--out-dir DIR]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  options.start_ns = NowNs();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--mode" && has_value) {
      options.mode = argv[++i];
    } else if (arg == "--seed" && has_value) {
      char* end = nullptr;
      options.seed = std::strtoull(argv[++i], &end, 10);
      if (*end != '\0') return Usage();
    } else if (arg == "--reference" && has_value) {
      options.reference = argv[++i];
    } else if (arg == "--out-dir" && has_value) {
      options.out_dir = argv[++i];
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else {
      return Usage();
    }
  }
  if (options.mode != "run" && options.mode != "traced" &&
      options.mode != "gate") {
    return Usage();
  }
  if (!EnvironmentPinned()) return 2;

  Outcome outcome;
  if (options.workload == "amlb_sweep") {
    outcome = RunAmlbSweep(options);
  } else if (options.workload == "mixed_tasks_sweep") {
    outcome = RunMixedTasksSweep(options);
  } else if (options.workload == "serve_replay") {
    outcome = RunServeReplay(options);
  } else {
    return Usage();
  }

  bool passed = true;
  JsonObject gates;
  for (const auto& [name, ok] : outcome.gates) {
    gates.Bool(name, ok);
    passed = passed && ok;
  }
  JsonObject layers;
  for (const auto& [name, value] : outcome.layers) layers.Num(name, value);
  JsonObject result;
  result.Str("workload", options.workload)
      .Str("mode", options.mode)
      .Num("setup_s", outcome.setup_s)
      .Num("wall_s", outcome.wall_s)
      .Num("cpu_s", outcome.cpu_s)
      .Num("peak_rss_mb", PeakRssMb())
      .Int("ops", outcome.ops)
      .Int("attempted", outcome.attempted)
      .Int("failed", outcome.failed)
      .Str("digest", outcome.digest)
      .Bool("passed", passed)
      .Obj("gates", gates)
      .Obj("layers", layers)
      .Obj("manifest", Manifest(options, outcome));
  std::printf("%s\n", result.Render().c_str());
  return passed ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
