// Command-line front end: run any of the library's AutoML systems on a
// CSV file (or a built-in demo task) and print a holistic energy report,
// optionally exporting the raw measurement as JSON.
//
//   green_automl_cli [--system NAME] [--budget SECONDS] [--csv FILE]
//                    [--task binary|multiclass|regression]
//                    [--cores N] [--jobs N] [--constraint SECONDS_PER_ROW]
//                    [--json OUT.jsonl] [--breakdown] [--transform-cache 0|1]
//                    [--sweep SYS1,SYS2,...] [--budgets B1,B2,...]
//                    [--journal PATH] [--resume] [--retries N]
//                    [--cell-timeout SECONDS] [--faults SPEC]
//                    [--shard i/n] [--compact-journal PATH]
//                    [--merge-journals S0.jsonl ... -o OUT.jsonl]
//
//   --system      tabpfn | caml | caml_tuned | flaml | autogluon |
//                 autogluon_refit | autosklearn1 | autosklearn2 | tpot |
//                 random_search | autopt     (default: caml)
//   --budget      search budget in PAPER seconds (default: 30)
//   --csv         dataset in the library's CSV format (last column
//                 "label" for classification, "target" for regression —
//                 the task type follows the header); omitted = a
//                 built-in synthetic demo task
//   --task        binary | multiclass | regression: which built-in demo
//                 task to generate when --csv is omitted (default:
//                 multiclass)
//   --cores       simulated CPU cores (default: 1)
//   --jobs        host worker threads for harness sweeps; 0 = all
//                 hardware threads (default: $GREEN_JOBS, else 1)
//   --constraint  max inference seconds per instance (CAML only)
//   --json        append the run record to a JSON-lines file
//   --breakdown   collect per-scope energy attribution and print the
//                 hierarchical breakdown table (also: GREEN_SCOPES=1);
//                 exported records then carry a "scopes" field
//   --transform-cache 0|1
//                 memoize fitted transformer chains across search trials
//                 (default: $GREEN_TRANSFORM_CACHE, else on). Purely a
//                 host-time optimization — results are bit-identical
//                 either way; budget via $GREEN_TRANSFORM_CACHE_MB
//
// Every flag and GREEN_* variable is parsed by one rule (see
// src/green/common/knobs.h): numbers must parse in full and clamp to the
// knob's range, bools are 0 or 1, and a malformed flag exits 2.
//
// Sweep mode (fault-tolerant, journaled):
//   --sweep         comma-separated system list; runs a full suite sweep
//                   over the AMLB subset instead of one dataset, with
//                   per-cell retry, failure taxonomy, and journaling
//   --budgets       comma-separated paper budgets (default: 10,30,60,300)
//   --journal       JSONL journal appended per completed cell
//                   (default: $GREEN_JOURNAL)
//   --resume        re-run only cells missing from the journal
//                   (default: $GREEN_RESUME)
//   --retries       max attempts per cell, >= 1 (default: $GREEN_RETRIES,
//                   else 2)
//   --cell-timeout  host seconds before the watchdog cancels a cell, 0 =
//                   off (default: $GREEN_CELL_TIMEOUT)
//   --faults        fault-injection spec, e.g. "run.fit@0.05"
//                   (default: $GREEN_FAULTS; see common/fault.h)
//   --shard i/n     multi-process sharding: run only the sweep cells
//                   shard i of n owns (round-robin over the canonical
//                   enumeration; default: $GREEN_SHARD, else unsharded).
//                   Point each shard at its own --journal and recombine
//                   with --merge-journals; per-shard --resume works
//                   unchanged
//
// Serve mode (overload-resilient inference serving):
//   --serve         fit the chosen system once, load the artifact into a
//                   tiered degrade ladder (full -> best single ->
//                   constant prior), and replay an open-loop request
//                   trace through admission control, micro-batching, and
//                   per-request deadlines on the virtual clock
//   --trace KIND    synthetic trace shape: constant | diurnal | burst
//                   (default: burst)
//   --trace-file F  replay arrivals from a CSV ("arrival_seconds[,row]")
//                   instead of generating one
//   --rps R         mean arrival rate of the synthetic trace (default 20)
//   --trace-seconds S  synthetic trace duration (default 30)
//   --serve-queue N           admission queue bound
//   --serve-batch N           micro-batch size cap
//   --serve-batch-delay-ms M  how long a batch waits for company
//   --serve-deadline-ms M     per-request deadline (0 = none)
//   --serve-energy-slo-j J    per-request energy SLO (0 = none)
//   --serve-policy P          deadline action: fail | degrade
//   --serve-shed P            queue-full policy: newest | oldest
//   Defaults come from GREEN_SERVE_QUEUE, GREEN_SERVE_BATCH,
//   GREEN_SERVE_BATCH_DELAY_MS, GREEN_SERVE_DEADLINE_MS,
//   GREEN_SERVE_ENERGY_SLO_J, GREEN_SERVE_POLICY, GREEN_SERVE_SHED;
//   flags override. --breakdown prints the serving scope subtree;
//   --faults/GREEN_FAULTS inject at serve.admit / serve.batch /
//   serve.predict.
//
// Maintenance:
//   --compact-journal PATH  rewrite a sweep journal keeping only the
//                           last record per cell, then exit
//   --merge-journals S0.jsonl S1.jsonl ... -o OUT.jsonl
//                           recombine per-shard sweep journals into the
//                           byte-identical single-process record stream,
//                           then exit

#include <cstdio>
#include <cstring>

#include "green/bench_util/aggregate.h"
#include "green/bench_util/experiment.h"
#include "green/bench_util/record_io.h"
#include "green/bench_util/table_printer.h"
#include "green/common/knobs.h"
#include "green/common/stringutil.h"
#include "green/data/synthetic.h"
#include "green/energy/co2.h"
#include "green/energy/stage_ledger.h"
#include "green/serve/inference_server.h"
#include "green/table/csv.h"
#include "green/table/split.h"

namespace green {
namespace {

/// Runs a fault-tolerant suite sweep (--sweep mode): every cell gets a
/// record, failures are retried and classified, completed cells land in
/// the journal so an interrupted sweep restarts with --resume.
int SweepMain(const std::string& sweep_systems,
              const std::string& budgets_arg, const ExperimentConfig& config,
              const std::string& json_path) {
  std::vector<std::string> systems;
  for (const std::string& s : Split(sweep_systems, ',')) {
    const std::string name(Trim(s));
    if (!name.empty()) systems.push_back(name);
  }
  if (systems.empty()) {
    std::fprintf(stderr, "--sweep needs at least one system name\n");
    return 2;
  }
  std::vector<double> budgets;
  for (const std::string& b : Split(budgets_arg, ',')) {
    if (Trim(b).empty()) continue;
    const Result<double> budget = ParseRealKnob(Knob::kBudget, Trim(b));
    if (!budget.ok()) {
      std::fprintf(stderr, "--budgets: %s\n",
                   budget.status().message().c_str());
      return 2;
    }
    if (*budget > 0.0) budgets.push_back(*budget);
  }
  if (budgets.empty()) budgets = {10.0, 30.0, 60.0, 300.0};

  ExperimentRunner runner(config);
  auto records = runner.Sweep(systems, budgets);
  if (!records.ok()) {
    std::fprintf(stderr, "sweep failed: %s\n",
                 records.status().ToString().c_str());
    return 1;
  }
  if (runner.last_sweep_resumed_cells() > 0) {
    std::printf("resumed %zu cell(s) from the journal\n",
                runner.last_sweep_resumed_cells());
  }
  if (runner.last_sweep_resumed_from_incomplete_journal()) {
    std::printf(
        "note: the journal was marked incomplete by a previous run; "
        "cells it was missing were re-run\n");
  }

  // Lost journal appends never surface as records; hand them to the
  // summary as their own fault-site row so a chaos sweep accounts for
  // every injection, not just the cell-failing ones.
  const std::string failures = RenderFailureSummary(
      *records,
      {{"journal.append", runner.last_sweep_journal_append_failures()}});
  if (!failures.empty()) std::printf("%s", failures.c_str());
  const std::string breakdown = RenderEnergyBreakdown(*records);
  if (!breakdown.empty()) std::printf("%s", breakdown.c_str());
  if (config.transform_cache) {
    const std::string cache_stats = RenderTransformCacheStats(
        runner.transform_cache_stats(), config.transform_cache_mb);
    if (!cache_stats.empty()) std::printf("%s", cache_stats.c_str());
  }
  const std::vector<RunRecord> measured = OkOnly(*records);
  if (config.shard_count > 1) {
    std::printf("sweep complete (shard %d/%d): %zu/%zu owned cells "
                "measured ok\n",
                config.shard_index, config.shard_count, measured.size(),
                records->size());
  } else {
    std::printf("sweep complete: %zu/%zu cells measured ok\n",
                measured.size(), records->size());
  }
  if (runner.last_sweep_journal_append_failures() > 0) {
    std::fprintf(
        stderr,
        "warning: %zu record(s) could not be journaled even after "
        "retry; %s is NOT a complete transcript (marked incomplete)\n",
        runner.last_sweep_journal_append_failures(),
        config.journal_path.c_str());
  }

  if (!json_path.empty()) {
    Status st = WriteRecordsJsonl(*records, json_path);
    if (!st.ok()) {
      std::fprintf(stderr, "json export failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("records written   : %s (%zu)\n", json_path.c_str(),
                records->size());
  }
  return measured.empty() ? 1 : 0;
}

/// Runs --serve mode: fit one artifact, build its degrade ladder, replay
/// an open-loop trace through the inference server, and report latency,
/// outcome, and energy-per-request numbers (plus the serving scope
/// subtree under --breakdown).
int ServeMain(const std::string& system_name, double budget,
              const Dataset& dataset, ExperimentRunner& runner,
              const ServePolicy& policy, const TraceSpec& trace_spec,
              const std::string& trace_file, bool breakdown) {
  const ExperimentConfig& config = runner.config();
  Rng split_rng(1);
  TrainTestData data =
      Materialize(dataset, SplitForTask(dataset, 0.66, &split_rng));
  EnergyModel energy_model(config.machine);

  // Fit once, off the serving path — development happens before deploy.
  auto system = runner.MakeSystem(system_name, budget);
  if (!system.ok()) {
    std::fprintf(stderr, "serve: %s\n",
                 system.status().ToString().c_str());
    return 2;
  }
  VirtualClock fit_clock;
  ExecutionContext fit_ctx(&fit_clock, &energy_model, config.cores);
  AutoMlOptions options;
  options.search_budget_seconds = budget * config.budget_scale;
  options.cores = config.cores;
  options.seed = config.seed;
  auto run = (*system)->Fit(data.train, options, &fit_ctx);
  if (!run.ok()) {
    std::fprintf(stderr, "serve: fit failed: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }

  auto ladder =
      ArtifactLadder::Build(run->artifact, data.train, &energy_model);
  if (!ladder.ok()) {
    std::fprintf(stderr, "serve: %s\n",
                 ladder.status().ToString().c_str());
    return 1;
  }

  std::vector<ServeRequest> trace;
  if (!trace_file.empty()) {
    auto loaded = LoadTraceCsv(trace_file, data.test.num_rows());
    if (!loaded.ok()) {
      std::fprintf(stderr, "serve: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    trace = std::move(loaded).value();
  } else {
    trace = GenerateTrace(trace_spec, data.test.num_rows());
  }

  const FaultInjector faults =
      FaultInjector::Lenient(config.faults, config.seed);
  InferenceServer server(std::move(ladder).value(), data.test,
                         &energy_model, policy, &faults, config.cores);
  auto report = server.Replay(trace);
  if (!report.ok()) {
    std::fprintf(stderr, "serve: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  const Status conserved = report->CheckConservation();
  if (!conserved.ok()) {
    std::fprintf(stderr, "serve: conservation check FAILED: %s\n",
                 conserved.ToString().c_str());
    return 1;
  }

  StageLedger ledger;
  ledger.Add(system_name, Stage::kServing, report->reading);

  std::printf("\nserving           : %s artifact, %zu-tier ladder (",
              system_name.c_str(), server.ladder().size());
  for (size_t t = 0; t < server.ladder().size(); ++t) {
    std::printf("%s%s", t > 0 ? " -> " : "",
                server.ladder().tier(t).name.c_str());
  }
  std::printf(")\n");
  std::printf("trace             : %s (%zu requests over %.1f s)\n",
              trace_file.empty() ? TraceKindName(trace_spec.kind)
                                 : trace_file.c_str(),
              trace.size(), report->duration_seconds);
  std::printf(
      "policy            : queue=%zu batch=%zu delay=%.1fms "
      "deadline=%.1fms slo=%.3gJ on_deadline=%s shed=%s\n",
      policy.queue_capacity, policy.max_batch,
      policy.batch_delay_seconds * 1e3, policy.deadline_seconds * 1e3,
      policy.energy_slo_joules, DeadlineActionName(policy.on_deadline),
      ShedPolicyName(policy.shed));
  std::printf("outcomes          : %zu completed, %zu degraded, %zu "
              "rejected, %zu deadline (of %zu; %zu batches)\n",
              report->completed, report->degraded, report->rejected,
              report->deadline_exceeded, report->arrived,
              report->batches);
  std::printf("latency           : p50 %.2f ms, p95 %.2f ms, p99 %.2f "
              "ms (virtual)\n",
              report->LatencyPercentile(0.50) * 1e3,
              report->LatencyPercentile(0.95) * 1e3,
              report->LatencyPercentile(0.99) * 1e3);
  std::printf("energy            : %.4g J dynamic total, %.4g J per "
              "request, %.3e kWh serving stage\n",
              report->total_joules, report->JoulesPerRequest(),
              ledger.Get(system_name, Stage::kServing).kwh());

  if (breakdown) {
    TablePrinter table({"scope", "joules", "share", "charges"});
    const ScopeCharge total =
        ledger.Rollup(system_name, StageName(Stage::kServing));
    for (const ScopeRow& row : ledger.ScopeRows(system_name)) {
      table.AddRow(
          {row.path, StrFormat("%.6g", row.charge.joules),
           StrFormat("%.1f%%", total.joules > 0.0
                                   ? 100.0 * row.charge.joules /
                                         total.joules
                                   : 0.0),
           StrFormat("%llu", static_cast<unsigned long long>(
                                 row.charge.charges))});
    }
    std::printf("\n%s", table.Render().c_str());
  }
  std::printf("conservation      : ok (every request reached exactly one "
              "terminal outcome)\n");
  return 0;
}

int Main(int argc, char** argv) {
  KnobSettings knobs = KnobSettings::FromEnv();
  std::vector<std::string> merge_paths;
  std::string merge_out;
  bool merge_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--merge-journals") == 0) {
      merge_mode = true;
      while (i + 1 < argc && std::strcmp(argv[i + 1], "-o") != 0) {
        merge_paths.push_back(argv[++i]);
      }
      if (i + 1 < argc) ++i;  // Consume "-o".
      merge_out = i + 1 < argc ? argv[++i] : "";
      continue;
    }
    const KnobSpec* spec = FindKnobFlag(argv[i]);
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
    const char* text = spec->bare ? "1" : i + 1 < argc ? argv[++i] : "";
    const Status set = knobs.SetFlag(spec->knob, text);
    if (!set.ok()) {
      std::fprintf(stderr, "%s\n", set.message().c_str());
      return 2;
    }
  }

  if (merge_mode) {
    if (merge_paths.empty() || merge_out.empty()) {
      std::fprintf(stderr,
                   "--merge-journals needs shard journal paths and "
                   "-o OUT.jsonl\n");
      return 2;
    }
    auto merged = MergeShardJournals(merge_paths, merge_out);
    if (!merged.ok()) {
      std::fprintf(stderr, "merge failed: %s\n",
                   merged.status().ToString().c_str());
      return 1;
    }
    std::printf("%zu shard journal(s) merged into %s (%zu records)\n",
                merge_paths.size(), merge_out.c_str(), *merged);
    return 0;
  }

  const std::string compact_path = knobs.Text(Knob::kCompactJournal);
  if (!compact_path.empty()) {
    auto removed = CompactJournalJsonl(compact_path);
    if (!removed.ok()) {
      std::fprintf(stderr, "compaction failed: %s\n",
                   removed.status().ToString().c_str());
      return 1;
    }
    std::printf("journal %s compacted: %zu superseded record(s) removed\n",
                compact_path.c_str(), *removed);
    return 0;
  }

  ExperimentConfig config = ExperimentConfig::FromKnobs(knobs);
  const Result<ServePolicy> serve_policy = ServePolicyFromKnobs(knobs);
  const Result<TraceSpec::Kind> trace_kind =
      knobs.Enum(Knob::kTraceKind, TraceSpec::Kind::kBurst, TraceKindFromName);
  const Result<TaskType> demo_task =
      knobs.Enum(Knob::kTask, TaskType::kMulticlass, ParseTaskType);
  for (const Status& status :
       {serve_policy.status(), trace_kind.status(), demo_task.status()}) {
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.message().c_str());
      return 2;
    }
  }
  const std::string system_name = knobs.Text(Knob::kSystem, "caml");
  const double budget = knobs.Real(Knob::kBudget, 30.0);
  const double constraint = knobs.Real(Knob::kConstraint, 0.0);
  const std::string csv_path = knobs.Text(Knob::kCsv);
  const std::string json_path = knobs.Text(Knob::kJson);
  const std::string sweep_systems = knobs.Text(Knob::kSweep);
  // GREEN_FULL widens a sweep to all tasks and the full profile, but the
  // CLI keeps its own repetition count, and a single run needs no suite.
  config.repetitions = ExperimentConfig().repetitions;
  if (sweep_systems.empty()) config.dataset_limit = 1;
  config.cores = static_cast<int>(knobs.Integer(Knob::kCores, 1));

  if (!sweep_systems.empty()) {
    return SweepMain(sweep_systems, knobs.Text(Knob::kBudgets), config,
                     json_path);
  }
  ExperimentRunner runner(config);

  Dataset dataset;
  if (!csv_path.empty()) {
    auto loaded = ReadCsv(csv_path, csv_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to read %s: %s\n", csv_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    dataset = std::move(loaded).value();
  } else if (*demo_task == TaskType::kRegression) {
    SyntheticRegressionSpec spec;
    spec.name = "demo_regression";
    spec.num_rows = 500;
    spec.num_features = 12;
    spec.num_informative = 7;
    spec.num_categorical = 3;
    spec.noise = 0.4;
    spec.seed = 4242;
    dataset = GenerateSyntheticRegression(spec).value();
    std::printf(
        "(no --csv given: using a built-in synthetic regression task)\n");
  } else {
    SyntheticSpec spec;
    spec.name = "demo";
    spec.num_rows = 500;
    spec.num_features = 12;
    spec.num_informative = 7;
    spec.num_categorical = 3;
    spec.num_classes = *demo_task == TaskType::kBinary ? 2 : 3;
    spec.separation = 2.2;
    spec.label_noise = 0.05;
    spec.seed = 4242;
    dataset = GenerateSynthetic(spec).value();
    std::printf("(no --csv given: using a built-in synthetic demo task)\n");
  }

  if (knobs.Bool(Knob::kServe, false)) {
    TraceSpec trace_spec;
    trace_spec.kind = *trace_kind;
    trace_spec.rate_rps = knobs.Real(Knob::kRps, 20.0);
    trace_spec.duration_seconds = knobs.Real(Knob::kTraceSeconds, 30.0);
    trace_spec.seed = config.seed;
    return ServeMain(system_name, budget, dataset, runner, *serve_policy,
                     trace_spec, knobs.Text(Knob::kTraceFile),
                     config.collect_scopes);
  }

  // One full measured run through the same harness the benches use.
  // The inference constraint needs the lower-level API.
  auto record = runner.RunOne(system_name, dataset, budget, 0, config.cores);
  if (!record.ok()) {
    std::fprintf(stderr, "run failed: %s\n",
                 record.status().ToString().c_str());
    return 1;
  }
  (void)constraint;  // Reported below for CAML users.

  std::printf("\nsystem            : %s\n", record->system.c_str());
  if (dataset.task() == TaskType::kRegression) {
    std::printf("dataset           : %s (%zu rows x %zu features, "
                "regression)\n",
                dataset.name().c_str(), dataset.num_rows(),
                dataset.num_features());
  } else {
    std::printf("dataset           : %s (%zu rows x %zu features, %d "
                "classes)\n",
                dataset.name().c_str(), dataset.num_rows(),
                dataset.num_features(), dataset.num_classes());
  }
  std::printf("search budget     : %.0f s (paper scale)\n", budget);
  if (record->task == TaskType::kRegression) {
    std::printf("test rmse         : %.3f\n", record->test_metric);
  } else {
    std::printf("balanced accuracy : %.3f\n",
                record->test_balanced_accuracy);
  }
  std::printf("execution         : %.1f s, %.5f kWh\n",
              record->execution_seconds, record->execution_kwh);
  std::printf("inference         : %.3e kWh per instance\n",
              record->inference_kwh_per_instance);
  std::printf("ensemble size     : %zu pipeline(s), %d evaluated\n",
              record->num_pipelines, record->pipelines_evaluated);

  if (config.collect_scopes) {
    const std::string table = RenderEnergyBreakdown({*record});
    if (!table.empty()) std::printf("\n%s", table.c_str());
  }

  const ImpactEstimate yearly = EstimateImpact(
      record->execution_kwh +
          record->inference_kwh_per_instance * 1e6 * 365.0,
      EmissionFactors::Germany2023());
  std::printf("at 1M pred/day    : %.1f kWh/year = %.1f kg CO2/year = "
              "%.2f EUR/year\n",
              yearly.kwh, yearly.kg_co2, yearly.eur);
  if (constraint > 0.0) {
    std::printf(
        "note: --constraint applies through the CAML API "
        "(AutoMlOptions::max_inference_seconds_per_row = %g); see "
        "examples/fraud_detection_deployment.cc.\n",
        constraint);
  }

  if (!json_path.empty()) {
    auto existing = ReadRecordsJsonl(json_path);
    std::vector<RunRecord> all =
        existing.ok() ? std::move(existing).value()
                      : std::vector<RunRecord>{};
    all.push_back(*record);
    Status st = WriteRecordsJsonl(all, json_path);
    if (!st.ok()) {
      std::fprintf(stderr, "json export failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    std::printf("record appended   : %s (%zu total)\n", json_path.c_str(),
                all.size());
  }
  return 0;
}

}  // namespace
}  // namespace green

int main(int argc, char** argv) { return green::Main(argc, argv); }
