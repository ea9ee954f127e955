// serve_replay: the inference stage. One AutoGluon artifact is fitted
// and its ArtifactLadder built during set-up; the timed section replays
// long diurnal and burst open-loop traces through InferenceServer under
// three policies, single-threaded.

#include <cstdio>
#include <map>
#include <memory>
#include <optional>

#include "green/automl/gluon_system.h"
#include "green/common/fault.h"
#include "green/common/rng.h"
#include "green/common/stringutil.h"
#include "green/data/synthetic.h"
#include "green/energy/energy_model.h"
#include "green/energy/machine_model.h"
#include "green/serve/inference_server.h"
#include "green/sim/execution_context.h"
#include "green/sim/virtual_clock.h"
#include "green/table/split.h"
#include "probe.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace green;

/// bench/serve_trace.cc's fit: budget 60 paper seconds at scale 0.15 on
/// one simulated core.
constexpr double kFitBudgetSeconds = 60.0 * 0.15;
constexpr int kCores = 1;

struct NamedPolicy {
  std::string name;
  ServePolicy policy;
};

/// serve_trace's policy matrix; the timed replay uses the three that
/// stress different paths (full ensemble, ladder fallbacks, constant
/// tier), the gate all five.
std::vector<NamedPolicy> Policies(bool all) {
  std::vector<NamedPolicy> policies;
  policies.push_back({"baseline", ServePolicy{}});
  if (all) {
    NamedPolicy fail{"deadline-fail", ServePolicy{}};
    fail.policy.deadline_seconds = 0.020;
    fail.policy.on_deadline = ServePolicy::DeadlineAction::kFail;
    policies.push_back(fail);
  }
  NamedPolicy degrade{"deadline-degrade", ServePolicy{}};
  degrade.policy.deadline_seconds = 0.005;
  degrade.policy.on_deadline = ServePolicy::DeadlineAction::kDegrade;
  policies.push_back(degrade);
  NamedPolicy slo{"energy-slo", ServePolicy{}};
  slo.policy.energy_slo_joules = 0.001;
  policies.push_back(slo);
  if (all) {
    NamedPolicy tight{"tight-queue", ServePolicy{}};
    tight.policy.queue_capacity = 8;
    tight.policy.shed = ServePolicy::ShedPolicy::kOldest;
    policies.push_back(tight);
  }
  return policies;
}

/// Diurnal at 60 rps and burst at 30 rps, as serve_trace replays them.
std::vector<TraceSpec> Traces(uint64_t seed, double duration_seconds) {
  std::vector<TraceSpec> traces(2);
  traces[0].kind = TraceSpec::Kind::kDiurnal;
  traces[0].rate_rps = 60.0;
  traces[1].kind = TraceSpec::Kind::kBurst;
  traces[1].rate_rps = 30.0;
  for (TraceSpec& trace : traces) {
    trace.duration_seconds = duration_seconds;
    trace.seed = seed;
  }
  return traces;
}

/// Everything the replay needs, built before timing.
struct ServeSetup {
  ServeSetup() : model(MachineModel::XeonGold6132()) {}
  EnergyModel model;
  TrainTestData data;
  std::optional<AutoMlRunResult> run;
  std::optional<ArtifactLadder> ladder;
  double suite_build_s = 0.0, split_s = 0.0, fit_s = 0.0, ladder_s = 0.0;
};

/// serve_trace's dataset, split and fit, exactly: the artifact under
/// test is the same for every seed.
Status Prepare(SpanList* spans, ServeSetup* setup) {
  SyntheticSpec spec;
  spec.name = "serve-bench";
  spec.num_rows = 600;
  spec.num_features = 12;
  spec.num_informative = 7;
  spec.num_categorical = 3;
  spec.num_classes = 3;
  spec.separation = 2.2;
  spec.label_noise = 0.05;
  spec.seed = 4242;
  Dataset dataset;
  {
    ScopedSpan span(spans, "data.suite_build");
    GREEN_ASSIGN_OR_RETURN(dataset, GenerateSynthetic(spec));
    setup->suite_build_s = span.Close();
  }
  {
    ScopedSpan span(spans, "table.split");
    Rng split_rng(1);
    setup->data =
        Materialize(dataset, StratifiedSplit(dataset, 0.66, &split_rng));
    setup->split_s = span.Close();
  }
  {
    ScopedSpan span(spans, "automl.fit");
    VirtualClock clock;
    ExecutionContext ctx(&clock, &setup->model, kCores);
    AutoMlOptions options;
    options.search_budget_seconds = kFitBudgetSeconds;
    options.cores = kCores;
    options.seed = 42;
    GluonSystem system;
    GREEN_ASSIGN_OR_RETURN(AutoMlRunResult run,
                           system.Fit(setup->data.train, options, &ctx));
    setup->run = std::move(run);
    setup->fit_s = span.Close();
  }
  {
    ScopedSpan span(spans, "serve.ladder_build");
    GREEN_ASSIGN_OR_RETURN(
        ArtifactLadder ladder,
        ArtifactLadder::Build(setup->run->artifact, setup->data.train,
                              &setup->model));
    setup->ladder = std::move(ladder);
    setup->ladder_s = span.Close();
  }
  return Status::Ok();
}

/// serve_trace's --json row for one replay.
std::string ReportRow(const std::string& name, const ServeReport& r) {
  return StrFormat(
      "  {\"name\": \"%s\", \"arrived\": %zu, \"completed\": %zu, "
      "\"degraded\": %zu, \"rejected\": %zu, \"deadline\": %zu, "
      "\"batches\": %zu, \"p50_ms\": %.6g, \"p95_ms\": %.6g, "
      "\"p99_ms\": %.6g, \"joules_per_request\": %.6g}",
      name.c_str(), r.arrived, r.completed, r.degraded, r.rejected,
      r.deadline_exceeded, r.batches, r.LatencyPercentile(0.50) * 1e3,
      r.LatencyPercentile(0.95) * 1e3, r.LatencyPercentile(0.99) * 1e3,
      r.JoulesPerRequest());
}

struct Replayed {
  std::string name;  ///< "trace/policy".
  std::string policy;
  ServeReport report;
  double seconds = 0.0;
};

/// Replays every (trace, policy) pair; counts each replay that errors
/// or breaks request/energy conservation as failed.
std::vector<Replayed> ReplayAll(const ServeSetup& setup,
                                const std::vector<TraceSpec>& specs,
                                const std::vector<NamedPolicy>& policies,
                                const FaultInjector* faults,
                                int64_t start_ns, SpanList* spans,
                                Outcome* out) {
  std::vector<std::vector<ServeRequest>> traces;
  for (const TraceSpec& spec : specs) {
    traces.push_back(GenerateTrace(spec, setup.data.test.num_rows()));
  }
  std::vector<std::unique_ptr<InferenceServer>> servers;
  for (const NamedPolicy& policy : policies) {
    servers.push_back(std::make_unique<InferenceServer>(
        *setup.ladder, setup.data.test, &setup.model, policy.policy, faults,
        kCores));
  }
  out->setup_s = SecondsSince(start_ns);

  std::vector<Replayed> replayed;
  const double cpu0 = CpuSeconds();
  const int64_t t0 = NowNs();
  for (size_t t = 0; t < specs.size(); ++t) {
    for (size_t p = 0; p < policies.size(); ++p) {
      Replayed entry;
      entry.name = StrFormat("%s/%s", TraceKindName(specs[t].kind),
                             policies[p].name.c_str());
      entry.policy = policies[p].name;
      ScopedSpan span(spans, "serve.replay." + policies[p].name);
      auto report = servers[p]->Replay(traces[t]);
      entry.seconds = span.Close();
      ++out->attempted;
      out->ops += static_cast<int64_t>(traces[t].size());
      if (!report.ok()) {
        std::fprintf(stderr, "perfbench: replay %s: %s\n", entry.name.c_str(),
                     report.status().ToString().c_str());
        ++out->failed;
        continue;
      }
      const Status conserved = report->CheckConservation();
      if (!conserved.ok()) {
        std::fprintf(stderr, "perfbench: replay %s: %s\n", entry.name.c_str(),
                     conserved.ToString().c_str());
        ++out->failed;
      }
      entry.report = std::move(report).value();
      replayed.push_back(std::move(entry));
    }
  }
  out->wall_s = SecondsSince(t0);
  out->cpu_s = CpuSeconds() - cpu0;
  out->Gate("conservation", out->failed == 0);
  return replayed;
}

/// Host microseconds per row of `tier`'s PredictProba on batches of
/// `rows` test rows.
double TierPredictUsPerRow(const ArtifactTier& tier, const ServeSetup& setup,
                           size_t rows) {
  std::vector<size_t> indices;
  for (size_t i = 0; i < rows && i < setup.data.test.num_rows(); ++i) {
    indices.push_back(i);
  }
  const Dataset batch = setup.data.test.Subset(indices);
  int iterations = 0;
  const int64_t t0 = NowNs();
  while (iterations < 20 || SecondsSince(t0) < 0.05) {
    VirtualClock clock;
    ExecutionContext ctx(&clock, &setup.model, kCores);
    if (!tier.PredictProba(batch, &ctx).ok()) return 0.0;
    ++iterations;
  }
  return SecondsSince(t0) * 1e6 / iterations / indices.size();
}

void SummarizeServe(const ServeSetup& setup,
                    const std::vector<Replayed>& replayed, Outcome* out) {
  auto& l = out->layers;
  size_t batches = 0, admitted = 0;
  double replay_s = 0.0;
  uint64_t charges = 0;
  for (const Replayed& r : replayed) {
    l["serve.replay_s." + r.policy] += r.seconds;
    replay_s += r.seconds;
    batches += r.report.batches;
    admitted += r.report.admitted;
    for (const auto& [path, charge] : r.report.reading.scopes) {
      charges += charge.charges;
    }
  }
  l["serve.batches"] = static_cast<double>(batches);
  const double rows_per_batch =
      batches > 0 ? static_cast<double>(admitted) / batches : 1.0;
  l["serve.rows_per_batch"] = rows_per_batch;
  l["serve.ladder_build_s"] = setup.ladder_s;

  // Each tier's predict cost at the replay's mean batch size; the
  // server's own time is the replay time the answered rows do not
  // account for at those costs (an estimate, not a span).
  const size_t batch_rows =
      std::max<size_t>(1, static_cast<size_t>(rows_per_batch + 0.5));
  std::map<std::string, double> us_per_row;
  for (const ArtifactTier& tier : setup.ladder->tiers()) {
    us_per_row[tier.name] = TierPredictUsPerRow(tier, setup, batch_rows);
    l["automl.artifact_predict_us_per_row." + tier.name] =
        us_per_row[tier.name];
  }
  double predict_s = 0.0;
  for (const Replayed& r : replayed) {
    for (const RequestResult& result : r.report.results) {
      if (result.answered()) predict_s += us_per_row[result.tier] * 1e-6;
    }
  }
  l["serve.self_s"] = replay_s - predict_s;

  // The artifact fit happens in set-up; its layers are reported too.
  const AutoMlRunResult& run = *setup.run;
  double fit_flops = 0.0;
  int64_t fit_charges = 0;
  for (const auto& [path, charge] : run.execution.scopes) {
    charges += charge.charges;
    const std::string op = FitOperator(path);
    if (op.empty()) continue;
    l["ml.fit_gflop." + op] += charge.flops * 1e-9;
    fit_flops += charge.flops;
    fit_charges += static_cast<int64_t>(charge.charges);
  }
  l["ml.fit_charges"] = static_cast<double>(fit_charges);
  l["ml.fit_ns_per_flop"] = fit_flops > 0 ? setup.fit_s * 1e9 / fit_flops : 0;
  l["sim.charges"] = static_cast<double>(charges);
  l["automl.fit_s"] = setup.fit_s;
  l["automl.fit_s.autogluon"] = setup.fit_s;
  l["automl.pipelines_evaluated"] = run.pipelines_evaluated;
  l["automl.fit_ms_per_pipeline"] =
      run.pipelines_evaluated > 0 ? setup.fit_s * 1e3 / run.pipelines_evaluated
                                  : 0.0;
  l["table.split_ms"] = setup.split_s * 1e3;
  l["data.suite_build_s"] = setup.suite_build_s;
}

}  // namespace

Outcome RunServeReplay(const Options& options) {
  Outcome out;
  SpanList spans;
  const bool gate = options.mode == "gate";
  // The seed generates the request traces, the workload's input; the
  // gate replays bench/serve_trace.cc's traces (seed 42, 10 s).
  const uint64_t seed = gate ? 42 : options.seed;
  ServeSetup setup;
  const Status prepared = Prepare(&spans, &setup);
  if (!prepared.ok()) {
    std::fprintf(stderr, "perfbench: serve set-up: %s\n",
                 prepared.ToString().c_str());
    out.Gate("setup", false);
    out.failed = out.attempted = 1;
    return out;
  }
  const double duration = gate ? 10.0 : (options.tiny ? 20.0 : 120.0);
  // serve_trace's injector with no faults configured.
  const FaultInjector no_faults = FaultInjector::Lenient("", 42);
  const std::vector<NamedPolicy> policies = Policies(gate);
  const std::vector<TraceSpec> specs = Traces(seed, duration);
  std::vector<Replayed> replayed = ReplayAll(
      setup, specs, policies, &no_faults, options.start_ns, &spans, &out);

  std::string rows;
  for (size_t i = 0; i < replayed.size(); ++i) {
    rows += ReportRow(replayed[i].name, replayed[i].report);
    rows += i + 1 < replayed.size() ? ",\n" : "\n";
  }
  out.digest = Digest(rows);
  if (gate) {
    std::string reference;
    const bool readable = ReadFile(options.reference, &reference);
    const bool matches = readable && "[\n" + rows + "]\n" == reference;
    out.Gate("matches_reference", matches);
    ++out.attempted;
    if (!matches) ++out.failed;
  }
  if (options.mode == "traced") {
    SummarizeServe(setup, replayed, &out);
    out.Gate("chrome_trace_written",
             WriteChromeTrace(ChromeTracePath(options), {&spans},
                              options.start_ns));
  }
  return out;
}

}  // namespace perfbench
