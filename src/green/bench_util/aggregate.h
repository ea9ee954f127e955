#ifndef GREEN_BENCH_UTIL_AGGREGATE_H_
#define GREEN_BENCH_UTIL_AGGREGATE_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "green/bench_util/experiment.h"
#include "green/common/rng.h"

namespace green {

/// Mean and sample standard deviation.
struct Stats {
  double mean = 0.0;
  double stddev = 0.0;
  size_t n = 0;
};

Stats ComputeStats(const std::vector<double>& values);

/// The paper's uncertainty protocol: "report the average performance
/// across datasets by repeatedly sampling one result out of N runs with
/// replacement". Returns the bootstrap mean/stddev of the across-dataset
/// average of `metric`.
Stats BootstrapAcrossDatasets(
    const std::vector<RunRecord>& records,
    const std::function<double(const RunRecord&)>& metric,
    int bootstrap_samples, uint64_t seed);

/// Records filtered to one (system, budget) cell, any variant.
std::vector<RunRecord> Filter(const std::vector<RunRecord>& records,
                              const std::string& system,
                              double paper_budget);

/// Records filtered to one (system, budget, variant) cell of a sweep run
/// with an option-override axis; "" selects the default variant.
std::vector<RunRecord> Filter(const std::vector<RunRecord>& records,
                              const std::string& system,
                              double paper_budget,
                              const std::string& variant);

/// Only the successfully measured records. Sweep returns every
/// enumerated cell (including skipped/failed/timeout ones); metric
/// aggregation must run on this subset so a failed cell's zeroed metrics
/// never dilute a mean.
std::vector<RunRecord> OkOnly(const std::vector<RunRecord>& records);

/// Per-outcome cell counts.
struct OutcomeCounts {
  size_t ok = 0;
  size_t failed = 0;
  size_t timeout = 0;
  size_t skipped = 0;
  size_t total() const { return ok + failed + timeout + skipped; }
};

/// Counts outcomes per system (insertion order of first appearance).
std::vector<std::pair<std::string, OutcomeCounts>> CountOutcomes(
    const std::vector<RunRecord>& records);

/// AMLB-style failure table: one row per system with ok/failed/timeout/
/// skipped counts. Empty string when every cell succeeded.
///
/// When any non-ok record's error carries an injected-fault marker (see
/// InjectedFaultSite), a second table breaks the failures down per fault
/// site, so a chaos run shows exactly which injection points produced
/// which outcomes. `extra_failures` appends failure counts that never
/// surface as records — e.g. lost `journal.append` writes — as their own
/// site rows; zero-count entries are dropped. Sweeps without injections
/// and without extra failures render exactly the original table.
std::string RenderFailureSummary(
    const std::vector<RunRecord>& records,
    const std::vector<std::pair<std::string, size_t>>& extra_failures = {});

/// Hierarchical energy attribution table from the per-scope breakdowns
/// collected under --breakdown (ExperimentConfig::collect_scopes). One
/// section per stage: execution (kWh, summed over ok records) and
/// inference (kWh per instance). Within a system, the scope rows plus
/// the "(baseline: static+idle)" row sum exactly to the system's
/// reported total, so every Joule of the headline number is accounted
/// for. Empty string when no record carries scopes.
std::string RenderEnergyBreakdown(const std::vector<RunRecord>& records);

/// One-table summary of the transform-prefix cache (hit/miss/eviction
/// counters for the fit and predict paths, the presort memo and the
/// model memo, plus residency against the byte budgets). Empty string
/// when the cache saw no traffic.
std::string RenderTransformCacheStats(const TransformCacheStats& stats,
                                      double budget_mb);

/// Distinct (in insertion order) values of a record field.
std::vector<std::string> DistinctSystems(
    const std::vector<RunRecord>& records);
std::vector<double> DistinctBudgets(const std::vector<RunRecord>& records,
                                    const std::string& system);

}  // namespace green

#endif  // GREEN_BENCH_UTIL_AGGREGATE_H_
