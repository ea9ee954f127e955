// amlb_sweep and mixed_tasks_sweep: ExperimentRunner::Sweep timed from
// outside, plus a traced replica that drives each cell through the same
// public calls RunOne makes (MakeSystem, SplitForTask + Materialize,
// AutoMlSystem::Fit under a shared TransformCache, FittedArtifact
// Predict/PredictProba, RecordToJson/AppendRecordJsonl) with a span
// around each.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>

#include <unistd.h>

#include "green/automl/automl_system.h"
#include "green/bench_util/experiment.h"
#include "green/bench_util/record_io.h"
#include "green/common/retry.h"
#include "green/common/rng.h"
#include "green/common/stringutil.h"
#include "green/common/thread_pool.h"
#include "green/data/synthetic.h"
#include "green/energy/energy_meter.h"
#include "green/ml/metrics.h"
#include "green/ml/transform_cache.h"
#include "green/sim/execution_context.h"
#include "green/sim/virtual_clock.h"
#include "green/table/split.h"
#include "probe.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace green;

constexpr int kWorkers = 2;

/// The seven systems of the paper's Figure 3.
const std::vector<std::string>& PaperSystems() {
  static const std::vector<std::string> kSystems = {
      "tabpfn",       "caml",         "flaml", "autogluon",
      "autosklearn1", "autosklearn2", "tpot"};
  return kSystems;
}

/// A sweep grid, the configuration it runs under and the generator of
/// the suite it runs on.
struct SweepPlan {
  ExperimentConfig config;
  std::vector<std::string> systems;
  std::vector<double> budgets;
  std::function<Result<std::vector<Dataset>>()> suite;
};

ExperimentConfig BaseConfig(uint64_t seed) {
  ExperimentConfig config;
  // Explicit rather than SimulationProfile::FromEnv(): the profile is
  // part of the workload, not of the caller's environment.
  config.profile = SimulationProfile::Fast();
  config.seed = seed;
  config.jobs = kWorkers;
  config.collect_scopes = true;
  config.transform_cache = true;
  config.transform_cache_mb = 256.0;
  return config;
}

SweepPlan AmlbPlan(uint64_t seed, uint64_t suite_seed, size_t datasets,
                   int repetitions, bool tiny) {
  SweepPlan plan;
  plan.config = BaseConfig(seed);
  plan.config.dataset_limit = tiny ? 2 : datasets;
  const SimulationProfile profile = plan.config.profile;
  const size_t limit = plan.config.dataset_limit;
  plan.suite = [profile, suite_seed, limit] {
    return InstantiateAmlbSuite(profile, suite_seed, limit);
  };
  plan.config.repetitions = repetitions;
  plan.systems = PaperSystems();
  plan.budgets = tiny ? std::vector<double>{10.0, 60.0}
                      : std::vector<double>{10.0, 30.0, 60.0, 300.0};
  return plan;
}

/// bench/mixed_task_sweep.cc's suite: binary, 4-class and regression
/// tasks. `seed` 0 reproduces that bench's datasets exactly; any other
/// seed derives fresh datasets of the same shapes.
Result<std::vector<Dataset>> MixedSuite(uint64_t seed) {
  auto derive = [seed](uint64_t base) {
    return seed == 0 ? base : HashCombine(seed, base);
  };
  std::vector<Dataset> suite;
  SyntheticSpec binary;
  binary.name = "syn_binary";
  binary.num_rows = 160;
  binary.num_features = 10;
  binary.num_informative = 6;
  binary.num_categorical = 2;
  binary.seed = derive(71);
  auto b = GenerateSynthetic(binary);

  SyntheticSpec multiclass;
  multiclass.name = "syn_4class";
  multiclass.num_rows = 200;
  multiclass.num_features = 12;
  multiclass.num_classes = 4;
  multiclass.num_informative = 8;
  multiclass.separation = 2.5;
  multiclass.seed = derive(72);
  auto m = GenerateSynthetic(multiclass);

  SyntheticRegressionSpec regression;
  regression.name = "syn_regression";
  regression.num_rows = 180;
  regression.num_features = 10;
  regression.num_informative = 6;
  regression.num_categorical = 2;
  regression.seed = derive(73);
  auto r = GenerateSyntheticRegression(regression);
  GREEN_RETURN_IF_ERROR(b.status());
  GREEN_RETURN_IF_ERROR(m.status());
  GREEN_RETURN_IF_ERROR(r.status());
  suite.push_back(std::move(b).value());
  suite.push_back(std::move(m).value());
  suite.push_back(std::move(r).value());
  return suite;
}

SweepPlan MixedPlan(uint64_t seed, uint64_t suite_seed, int repetitions,
                    bool tiny) {
  SweepPlan plan;
  plan.config = BaseConfig(seed);
  plan.config.budget_scale = 0.05;
  plan.config.repetitions = repetitions;
  plan.systems = AllSystemNames();
  plan.budgets = tiny ? std::vector<double>{10.0}
                      : std::vector<double>{10.0, 60.0};
  plan.suite = [suite_seed] { return MixedSuite(suite_seed); };
  return plan;
}

std::string Serialize(const std::vector<RunRecord>& records) {
  std::string out;
  for (const RunRecord& record : records) {
    out += RecordToJson(record);
    out += '\n';
  }
  return out;
}

std::vector<std::string> SortedLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// Every ok record carries scopes whose dynamic energies are
/// non-negative and bounded by the headline totals (the rule
/// bench/mixed_task_sweep.cc enforces).
bool ScopesConserve(const std::vector<RunRecord>& records) {
  for (const RunRecord& record : records) {
    if (!record.ok()) continue;
    if (record.scopes.empty()) return false;
    double execution_sum = 0.0, inference_sum = 0.0;
    for (const RunScope& scope : record.scopes) {
      if (scope.kwh < 0.0) return false;
      if (scope.path.rfind("execution/", 0) == 0) execution_sum += scope.kwh;
      if (scope.path.rfind("inference/", 0) == 0) inference_sum += scope.kwh;
    }
    if (execution_sum <= 0.0 ||
        execution_sum > record.execution_kwh * (1.0 + 1e-9) ||
        inference_sum > record.inference_kwh_per_instance * (1.0 + 1e-9)) {
      std::fprintf(stderr, "perfbench: scopes do not conserve in %s\n",
                   RunRecordCellKey(record).c_str());
      return false;
    }
  }
  return true;
}

/// Counts cells into attempted (not skipped) and failed (failed or
/// timed out), and adds the generic record gates.
void ScoreRecords(const std::vector<RunRecord>& records, Outcome* out) {
  int64_t failed = 0;
  for (const RunRecord& record : records) {
    if (record.outcome == RunOutcome::kSkipped) continue;
    ++out->attempted;
    if (record.ok()) {
      ++out->ops;
    } else {
      ++failed;
      std::fprintf(stderr, "perfbench: cell %s %s: %s\n",
                   RunRecordCellKey(record).c_str(),
                   RunOutcomeName(record.outcome), record.error.c_str());
    }
  }
  out->failed += failed;
  out->Gate("no_failed_cells", failed == 0 && out->ops > 0);
  out->Gate("scope_conservation", ScopesConserve(records));
}

/// The set-up both sweep modes share: suite generation, runner
/// construction and the ASKL meta-store build, all before timing.
struct Prepared {
  std::unique_ptr<ExperimentRunner> runner;
  double suite_build_s = 0.0;
  double askl_meta_store_s = 0.0;
  bool ok = true;
};

Prepared Prepare(const SweepPlan& plan, SpanList* spans) {
  Prepared prepared;
  {
    ScopedSpan span(spans, "data.suite_build");
    prepared.runner = std::make_unique<ExperimentRunner>(plan.config);
    auto suite = plan.suite();
    if (suite.ok()) {
      prepared.runner->SetSuite(std::move(suite).value());
    } else {
      std::fprintf(stderr, "perfbench: %s\n",
                   suite.status().ToString().c_str());
      prepared.ok = false;
    }
    prepared.suite_build_s = span.Close();
  }
  {
    // Forces the lazy, process-wide meta-store build out of the first
    // ASKL cell and into set-up.
    ScopedSpan span(spans, "automl.askl_meta_store");
    auto system = prepared.runner->MakeSystem("autosklearn2", 300.0);
    if (!system.ok()) {
      std::fprintf(stderr, "perfbench: %s\n",
                   system.status().ToString().c_str());
      prepared.ok = false;
    }
    prepared.askl_meta_store_s = span.Close();
  }
  return prepared;
}

struct Cell {
  const std::string* system;
  double budget;
  const Dataset* dataset;
  int rep;
};

/// Sweep's canonical enumeration: system, budget, dataset, repetition;
/// TabPFN has one budget point.
std::vector<Cell> Enumerate(const SweepPlan& plan,
                            const std::vector<Dataset>& suite) {
  std::vector<Cell> cells;
  for (const std::string& system : plan.systems) {
    for (double budget : plan.budgets) {
      for (const Dataset& dataset : suite) {
        for (int rep = 0; rep < plan.config.repetitions; ++rep) {
          cells.push_back(Cell{&system, budget, &dataset, rep});
        }
      }
      if (system == "tabpfn") break;
    }
  }
  return cells;
}

/// What the traced replica measured for one cell.
struct CellTrace {
  explicit CellTrace(int64_t cell) : spans(cell) {}
  SpanList spans;
  RunRecord record;
  std::string json;
  bool ran = false;  ///< Reached Fit (not skipped before running).
  double cell_s = 0.0, split_s = 0.0, fit_s = 0.0, predict_s = 0.0;
  double journal_s = 0.0;
  int pipelines = 0;
  /// fit/<operator> scope rows of the execution reading, by operator.
  std::map<std::string, ScopeCharge> fit_ops;
  uint64_t charges = 0;
};

/// One attempt of ExperimentRunner::RunOne, rebuilt from public calls.
Result<RunRecord> TracedAttempt(ExperimentRunner& runner,
                                const EnergyModel& model,
                                TransformCache* cache, const Cell& cell,
                                int attempt, CellTrace* trace) {
  const ExperimentConfig& config = runner.config();
  const std::string& system_name = *cell.system;
  const Dataset& dataset = *cell.dataset;
  std::unique_ptr<AutoMlSystem> system;
  {
    ScopedSpan span(&trace->spans, "automl.make_system");
    GREEN_ASSIGN_OR_RETURN(system,
                           runner.MakeSystem(system_name, cell.budget));
  }
  if (!system->SupportsTask(dataset.task())) {
    return Status::Unimplemented(
        StrFormat("%s: task %s not supported", system_name.c_str(),
                  TaskTypeName(dataset.task())));
  }
  const uint64_t run_seed =
      HashCombine(HashCombine(config.seed, cell.rep + 1),
                  HashCombine(HashString(system_name.c_str()),
                              HashString(dataset.name().c_str())));
  Rng rng(run_seed);
  TrainTestData data;
  {
    ScopedSpan span(&trace->spans, "table.split");
    TrainTestIndices split = SplitForTask(dataset, 0.66, &rng);
    data = Materialize(dataset, split);
    trace->split_s += span.Close();
  }

  VirtualClock clock;
  ExecutionContext ctx(&clock, &model, config.cores);
  if (config.transform_cache) ctx.SetTransformCache(cache);
  AutoMlOptions options;
  options.search_budget_seconds = cell.budget * config.budget_scale;
  options.cores = ctx.cores();
  options.seed = run_seed;

  trace->ran = true;
  Result<AutoMlRunResult> fitted = Status::Ok();
  {
    ScopedSpan span(&trace->spans, "automl.fit");
    fitted = system->Fit(data.train, options, &ctx);
    trace->fit_s += span.Close();
  }
  if (!fitted.ok()) return fitted.status();
  AutoMlRunResult run = std::move(fitted).value();

  RunRecord record;
  record.system = system_name;
  record.dataset = dataset.name();
  record.paper_budget_seconds = cell.budget;
  record.repetition = cell.rep;
  record.task = dataset.task();
  record.metric_name = PrimaryMetricName(dataset.task());
  record.execution_seconds = run.actual_seconds / config.budget_scale;
  record.execution_kwh = run.execution.kwh() / config.budget_scale;
  record.num_pipelines = run.artifact.NumPipelines();
  record.pipelines_evaluated = run.pipelines_evaluated;
  record.best_validation_score = run.best_validation_score;
  record.attempts = attempt;
  trace->pipelines += run.pipelines_evaluated;
  for (const auto& [path, charge] : run.execution.scopes) {
    trace->charges += charge.charges;
    const std::string op = FitOperator(path);
    if (!op.empty()) trace->fit_ops[op] += charge;
    if (!config.collect_scopes) continue;
    RunScope row;
    row.path = "execution/" + path;
    row.kwh = charge.kwh() / config.budget_scale;
    row.seconds = charge.seconds / config.budget_scale;
    row.flops = charge.flops;
    row.charges = charge.charges;
    record.scopes.push_back(std::move(row));
  }

  EnergyMeter inference_meter(&model);
  inference_meter.Start(clock.Now());
  ctx.SetMeter(&inference_meter);
  const bool regression = data.test.task() == TaskType::kRegression;
  std::vector<int> preds;
  ProbaMatrix test_values;
  {
    ScopedSpan span(&trace->spans, "automl.predict");
    if (regression) {
      auto values = run.artifact.PredictProba(data.test, &ctx);
      if (!values.ok()) return values.status();
      test_values = std::move(values).value();
    } else {
      auto labels = run.artifact.Predict(data.test, &ctx);
      if (!labels.ok()) return labels.status();
      preds = std::move(labels).value();
    }
    trace->predict_s += span.Close();
  }
  const EnergyReading inference = inference_meter.Stop(clock.Now());
  ctx.SetMeter(nullptr);

  const double n_test = static_cast<double>(data.test.num_rows());
  record.inference_kwh_per_instance =
      n_test > 0 ? inference.kwh() / n_test / config.budget_scale : 0.0;
  record.inference_seconds_per_instance =
      n_test > 0 ? inference.seconds / n_test / config.budget_scale : 0.0;
  for (const auto& [path, charge] : inference.scopes) {
    trace->charges += charge.charges;
    if (!config.collect_scopes || n_test <= 0) continue;
    RunScope row;
    row.path = "inference/" + path;
    row.kwh = charge.kwh() / n_test / config.budget_scale;
    row.seconds = charge.seconds / n_test / config.budget_scale;
    row.flops = charge.flops / n_test;
    row.charges = charge.charges;
    record.scopes.push_back(std::move(row));
  }
  if (regression) {
    record.test_metric = PrimaryMetric(data.test, test_values);
  } else {
    record.test_balanced_accuracy = BalancedAccuracy(
        data.test.labels(), preds, data.test.num_classes());
    record.test_metric = record.test_balanced_accuracy;
  }
  return record;
}

/// ExperimentRunner::RunCell around TracedAttempt: the min-budget skip,
/// the retry policy and the outcome taxonomy.
void TracedCell(ExperimentRunner& runner, const EnergyModel& model,
                TransformCache* cache, const Cell& cell, CellTrace* trace) {
  RunRecord& record = trace->record;
  record.system = *cell.system;
  record.dataset = cell.dataset->name();
  record.paper_budget_seconds = cell.budget;
  record.repetition = cell.rep;
  record.task = cell.dataset->task();
  record.metric_name = PrimaryMetricName(cell.dataset->task());
  const double min_budget = runner.MinBudget(*cell.system);
  if (cell.budget < min_budget) {
    record.outcome = RunOutcome::kSkipped;
    record.error = StrFormat("%s: budget %.6gs below system minimum %.6gs",
                             cell.system->c_str(), cell.budget, min_budget);
    record.attempts = 0;
    return;
  }
  const RetryPolicy& retry = runner.config().retry;
  for (int attempt = 1;; ++attempt) {
    Result<RunRecord> run =
        TracedAttempt(runner, model, cache, cell, attempt, trace);
    if (run.ok()) {
      record = std::move(run).value();
      return;
    }
    const RunOutcome outcome = OutcomeForStatus(run.status());
    if (outcome == RunOutcome::kFailed && IsRetryable(run.status()) &&
        attempt < retry.max_attempts) {
      continue;
    }
    record.outcome = outcome;
    record.error = run.status().ToString();
    record.attempts = attempt;
    return;
  }
}

/// Per-layer metrics from the traced cells.
void SummarizeCells(const std::vector<std::unique_ptr<CellTrace>>& cells,
                    double sweep_wall_s, const TransformCacheStats& cache,
                    Outcome* out) {
  std::vector<double> cell_ms;
  double busy_s = 0.0, split_s = 0.0, fit_s = 0.0, predict_s = 0.0;
  double journal_s = 0.0, fit_flops = 0.0;
  int64_t record_bytes = 0, pipelines = 0, ran = 0, fit_charges = 0;
  int64_t charges = 0;
  std::map<std::string, double> fit_by_system;
  std::map<std::string, double> gflop_by_op;
  for (const auto& cell : cells) {
    busy_s += cell->cell_s;
    journal_s += cell->journal_s;
    record_bytes += static_cast<int64_t>(cell->json.size());
    if (!cell->ran) continue;
    ++ran;
    cell_ms.push_back(cell->cell_s * 1e3);
    split_s += cell->split_s;
    fit_s += cell->fit_s;
    predict_s += cell->predict_s;
    pipelines += cell->pipelines;
    charges += static_cast<int64_t>(cell->charges);
    fit_by_system[cell->record.system] += cell->fit_s;
    for (const auto& [op, charge] : cell->fit_ops) {
      gflop_by_op[op] += charge.flops * 1e-9;
      fit_flops += charge.flops;
      fit_charges += static_cast<int64_t>(charge.charges);
    }
  }
  auto& l = out->layers;
  const double tail_level = TailLevelPercent(cell_ms.size());
  l["bench_util.cells"] = static_cast<double>(ran);
  l["bench_util.cell_ms_p50"] = Quantile(cell_ms, 0.5);
  l["bench_util.cell_ms_tail"] = Quantile(cell_ms, tail_level / 100.0);
  l["bench_util.cell_ms_tail_level"] = tail_level;
  l["bench_util.worker_busy_share"] =
      sweep_wall_s > 0 ? busy_s / (kWorkers * sweep_wall_s) : 0.0;
  l["bench_util.journal_append_ms"] =
      cells.empty() ? 0.0 : journal_s * 1e3 / cells.size();
  l["bench_util.record_bytes"] = static_cast<double>(record_bytes);
  l["table.split_ms"] = ran > 0 ? split_s * 1e3 / ran : 0.0;
  l["automl.fit_s"] = fit_s;
  for (const auto& [system, seconds] : fit_by_system) {
    l["automl.fit_s." + system] = seconds;
  }
  l["automl.pipelines_evaluated"] = static_cast<double>(pipelines);
  l["automl.fit_ms_per_pipeline"] =
      pipelines > 0 ? fit_s * 1e3 / pipelines : 0.0;
  l["automl.predict_s"] = predict_s;
  for (const auto& [op, gflop] : gflop_by_op) l["ml.fit_gflop." + op] = gflop;
  l["ml.fit_charges"] = static_cast<double>(fit_charges);
  l["ml.fit_ns_per_flop"] = fit_flops > 0 ? fit_s * 1e9 / fit_flops : 0.0;
  const double fit_lookups = static_cast<double>(cache.hits + cache.misses);
  const double predict_lookups =
      static_cast<double>(cache.predict_hits + cache.predict_misses);
  l["ml.transform_cache.fit_hit_ratio"] =
      fit_lookups > 0 ? cache.hits / fit_lookups : 0.0;
  l["ml.transform_cache.predict_hit_ratio"] =
      predict_lookups > 0 ? cache.predict_hits / predict_lookups : 0.0;
  l["ml.transform_cache.evictions"] = static_cast<double>(cache.evictions);
  l["ml.transform_cache.mb"] = cache.bytes / (1024.0 * 1024.0);
  l["sim.charges"] = static_cast<double>(charges);

  // Self time of the harness around the library calls in each cell.
  std::vector<const SpanList*> lists;
  for (const auto& cell : cells) lists.push_back(&cell->spans);
  const std::map<std::string, double> self = SelfSeconds(lists);
  const auto cell_self = self.find("bench_util.cell");
  l["bench_util.cell_self_ms"] =
      cell_self != self.end() && !cells.empty()
          ? cell_self->second * 1e3 / cells.size()
          : 0.0;
}

std::string JournalPath(const Options& options, const char* tag) {
  return StrFormat("%s/journal_%s_%d.jsonl", options.out_dir.c_str(), tag,
                   static_cast<int>(getpid()));
}

/// The journal holds exactly the stream's records (in completion order).
bool JournalMatches(const std::string& path, const std::string& stream) {
  std::string journal;
  if (!ReadFile(path, &journal)) return false;
  return SortedLines(journal) == SortedLines(stream);
}

Outcome RunSweepPlan(const Options& options, const SweepPlan& plan,
                     bool journal) {
  Outcome out;
  out.workers = kWorkers;
  SpanList setup_spans;
  SweepPlan timed = plan;
  if (journal) timed.config.journal_path = JournalPath(options, "sweep");
  Prepared prepared = Prepare(timed, &setup_spans);
  out.setup_s = SecondsSince(options.start_ns);
  if (!prepared.ok) {
    out.Gate("setup", false);
    out.failed = out.attempted = 1;
    return out;
  }
  ExperimentRunner& runner = *prepared.runner;

  std::string stream;
  if (options.mode == "run") {
    const double cpu0 = CpuSeconds();
    const int64_t t0 = NowNs();
    auto records = runner.Sweep(timed.systems, timed.budgets);
    out.wall_s = SecondsSince(t0);
    out.cpu_s = CpuSeconds() - cpu0;
    if (!records.ok()) {
      std::fprintf(stderr, "perfbench: sweep: %s\n",
                   records.status().ToString().c_str());
      out.Gate("sweep", false);
      out.failed = out.attempted = 1;
      return out;
    }
    stream = Serialize(*records);
    ScoreRecords(*records, &out);
  } else {
    // Traced replica on the same worker count, sharing one transform
    // cache across cells exactly as the runner's own cache is shared.
    const std::vector<Cell> cells = Enumerate(timed, runner.suite());
    std::vector<std::unique_ptr<CellTrace>> traces;
    for (size_t i = 0; i < cells.size(); ++i) {
      traces.push_back(
          std::make_unique<CellTrace>(static_cast<int64_t>(i)));
    }
    const EnergyModel model(timed.config.machine);
    TransformCache cache(static_cast<size_t>(
        timed.config.transform_cache_mb * 1024.0 * 1024.0));
    std::mutex journal_mutex;
    if (journal) {
      // Sweep truncates its journal at start; so does the replica.
      std::FILE* f = std::fopen(timed.config.journal_path.c_str(), "w");
      if (f != nullptr) std::fclose(f);
    }
    const double cpu0 = CpuSeconds();
    const int64_t t0 = NowNs();
    ParallelFor(cells.size(), kWorkers, [&](size_t i) {
      CellTrace* trace = traces[i].get();
      ScopedSpan cell_span(&trace->spans, "bench_util.cell");
      TracedCell(runner, model, &cache, cells[i], trace);
      {
        ScopedSpan span(&trace->spans, "bench_util.record_to_json");
        trace->json = RecordToJson(trace->record);
      }
      if (journal) {
        std::lock_guard<std::mutex> lock(journal_mutex);
        ScopedSpan span(&trace->spans, "bench_util.journal_append");
        const Status appended =
            AppendRecordJsonl(trace->record, timed.config.journal_path);
        if (!appended.ok()) {
          std::fprintf(stderr, "perfbench: %s\n",
                       appended.ToString().c_str());
        }
        trace->journal_s = span.Close();
      }
      trace->cell_s = cell_span.Close();
    });
    out.wall_s = SecondsSince(t0);
    out.cpu_s = CpuSeconds() - cpu0;
    std::vector<RunRecord> records;
    for (const auto& trace : traces) {
      stream += trace->json;
      stream += '\n';
      records.push_back(trace->record);
    }
    ScoreRecords(records, &out);
    SummarizeCells(traces, out.wall_s, cache.Stats(), &out);
    out.layers["data.suite_build_s"] = prepared.suite_build_s;
    out.layers["automl.askl_meta_store_s"] = prepared.askl_meta_store_s;

    std::vector<const SpanList*> lists = {&setup_spans};
    for (const auto& trace : traces) lists.push_back(&trace->spans);
    out.Gate("chrome_trace_written",
             WriteChromeTrace(ChromeTracePath(options), lists,
                              options.start_ns));
  }
  if (journal) {
    out.Gate("journal_complete",
             JournalMatches(timed.config.journal_path, stream));
    std::remove(timed.config.journal_path.c_str());
  }
  out.digest = Digest(stream);
  return out;
}

/// Gate: the fixed-configuration sweep whose stream digest, or whose
/// repetition-0 records, a reference file pins.
Outcome GateSweep(const Options& options, const SweepPlan& plan,
                  bool journal, bool compare_digest) {
  Outcome out;
  out.workers = kWorkers;
  SpanList spans;
  SweepPlan gate = plan;
  if (journal) gate.config.journal_path = JournalPath(options, "gate");
  Prepared prepared = Prepare(gate, &spans);
  out.setup_s = SecondsSince(options.start_ns);
  std::string reference;
  const bool have_reference = ReadFile(options.reference, &reference);
  out.Gate("reference_readable", have_reference);
  if (!prepared.ok || !have_reference) {
    out.failed = out.attempted = 1;
    return out;
  }
  const int64_t t0 = NowNs();
  auto records = prepared.runner->Sweep(gate.systems, gate.budgets);
  out.wall_s = SecondsSince(t0);
  if (!records.ok()) {
    out.Gate("sweep", false);
    out.failed = out.attempted = 1;
    return out;
  }
  ScoreRecords(*records, &out);
  const std::string stream = Serialize(*records);
  out.digest = Digest(stream);
  if (journal) {
    out.Gate("journal_complete",
             JournalMatches(gate.config.journal_path, stream));
    std::remove(gate.config.journal_path.c_str());
  }
  bool matches;
  if (compare_digest) {
    // Reference file: the digest and a newline, nothing else, so any
    // one-byte change to it fails the gate.
    matches = reference == out.digest + "\n";
  } else {
    std::vector<RunRecord> selected;
    for (const RunRecord& record : *records) {
      if (record.repetition == 0) selected.push_back(record);
    }
    matches = Serialize(selected) == reference;
  }
  out.Gate("matches_reference", matches);
  ++out.attempted;
  if (!matches) ++out.failed;
  return out;
}

}  // namespace

Outcome RunAmlbSweep(const Options& options) {
  if (options.mode == "gate") {
    // The reference digest was recorded from this grid: the first four
    // tasks, one repetition, seed 42.
    return GateSweep(options, AmlbPlan(42, 42, 4, 1, /*tiny=*/false),
                     /*journal=*/false, /*compare_digest=*/true);
  }
  // The seed generates the datasets. The runner's own seed (run seeds,
  // ASKL meta-store corpus) stays at the harness default, so a new seed
  // changes the data the systems see, not how they search: tying both to
  // the seed made run-to-run spread three times wider.
  return RunSweepPlan(options, AmlbPlan(42, options.seed, 8, 1, options.tiny),
                      /*journal=*/false);
}

Outcome RunMixedTasksSweep(const Options& options) {
  if (options.mode == "gate") {
    // bench/mixed_task_sweep.cc's configuration: its snapshot is the
    // repetition-0 slice of this two-repetition sweep.
    return GateSweep(options, MixedPlan(404, 0, 2, /*tiny=*/false),
                     /*journal=*/true, /*compare_digest=*/false);
  }
  // As in amlb_sweep, the seed generates the datasets only.
  return RunSweepPlan(options,
                      MixedPlan(404, options.seed,
                                options.tiny ? 1 : 8, options.tiny),
                      /*journal=*/true);
}

}  // namespace perfbench
