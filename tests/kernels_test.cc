// Tests for the cache-friendly model kernels (GREEN_KERNELS): end-to-end
// bit-identity of sweep records, scope trees, and serve reports with the
// kernels on vs off (sequential and across worker counts), arena
// reuse/rewind semantics, per-model fit/predict identity with the kernels
// on vs off on tie-heavy data, histogram-vs-exact split agreement on
// discrete-valued (tie-heavy) features, the exact Gini scan's
// division-free candidate screen against the reference comparison, the
// exact scans' candidate and threshold rules at infinite and overflowing
// neighbours, exactness of the per-sample stripes expanded from a fit's
// shared FeatureOrder, and clean fits on NaN/Inf/signed-zero/constant/
// 1e308-scale columns.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "green/automl/fitted_artifact.h"
#include "green/bench_util/experiment.h"
#include "green/bench_util/record_io.h"
#include "green/common/arena.h"
#include "green/common/rng.h"
#include "green/common/stringutil.h"
#include "green/data/synthetic.h"
#include "green/ml/kernels/histogram.h"
#include "green/ml/kernels/kernels.h"
#include "green/ml/kernels/tree_kernels.h"
#include "green/ml/model_registry.h"
#include "green/ml/models/adaboost.h"
#include "green/ml/models/decision_tree.h"
#include "green/ml/models/extra_trees.h"
#include "green/ml/models/gradient_boosting.h"
#include "green/ml/models/random_forest.h"
#include "green/serve/artifact_ladder.h"
#include "green/serve/inference_server.h"
#include "green/serve/request_stream.h"
#include "green/serve/serve_policy.h"
#include "green/sim/execution_context.h"

namespace green {
namespace {

/// Restores the process-wide kernel toggle (default: enabled) so a test
/// that flips it cannot leak state into the rest of the binary.
class KernelsToggleGuard {
 public:
  KernelsToggleGuard() = default;
  ~KernelsToggleGuard() { SetKernelsEnabled(true); }
};

Dataset TestData(size_t rows, size_t features, int classes,
                 uint64_t seed = 7) {
  SyntheticSpec spec;
  spec.name = "kernels";
  spec.num_rows = rows;
  spec.num_features = features;
  spec.num_informative = features / 2;
  spec.num_classes = classes;
  spec.separation = 2.0;
  spec.seed = seed;
  auto data = GenerateSynthetic(spec);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

// --- End-to-end sweep identity ---------------------------------------

std::string SerializeAll(const std::vector<RunRecord>& records) {
  std::string out;
  for (const RunRecord& r : records) out += RecordToJson(r) + "\n";
  return out;
}

ExperimentConfig SmallSweepConfig() {
  ExperimentConfig config;
  config.dataset_limit = 2;
  config.repetitions = 1;
  config.collect_scopes = true;  // Identity must cover the scope trees.
  return config;
}

std::string RunSmallSweep(bool kernels, int jobs) {
  SetKernelsEnabled(kernels);
  ExperimentConfig config = SmallSweepConfig();
  config.jobs = jobs;
  ExperimentRunner runner(config);
  auto records = runner.Sweep({"caml", "flaml"}, {10.0});
  EXPECT_TRUE(records.ok());
  if (!records.ok()) return "";
  return SerializeAll(records.value());
}

TEST(KernelSweepTest, RecordsAndScopesIdenticalKernelsOnOff) {
  KernelsToggleGuard guard;
  const std::string with_kernels = RunSmallSweep(/*kernels=*/true, 1);
  const std::string reference = RunSmallSweep(/*kernels=*/false, 1);
  ASSERT_FALSE(with_kernels.empty());
  EXPECT_EQ(with_kernels, reference);
}

TEST(KernelSweepTest, RecordsIdenticalKernelsOnOffAcrossWorkerCounts) {
  KernelsToggleGuard guard;
  const std::string kernels_parallel = RunSmallSweep(/*kernels=*/true, 4);
  const std::string reference_seq = RunSmallSweep(/*kernels=*/false, 1);
  ASSERT_FALSE(kernels_parallel.empty());
  EXPECT_EQ(kernels_parallel, reference_seq);
}

// --- Serve report identity -------------------------------------------

std::string SerializeReport(const ServeReport& report) {
  std::string out = StrFormat(
      "arrived=%zu admitted=%zu completed=%zu degraded=%zu rejected=%zu "
      "deadline=%zu batches=%zu duration=%.17g joules=%.17g\n",
      report.arrived, report.admitted, report.completed, report.degraded,
      report.rejected, report.deadline_exceeded, report.batches,
      report.duration_seconds, report.total_joules);
  for (const RequestResult& r : report.results) {
    out += StrFormat("%zu %s %.17g %.17g %.17g %d %s %s\n",
                     r.request_index, RequestOutcomeName(r.outcome),
                     r.arrival_seconds, r.finish_seconds, r.joules,
                     r.predicted_class, r.tier.c_str(), r.error.c_str());
  }
  return out;
}

std::string RunServeReplay(bool kernels) {
  SetKernelsEnabled(kernels);
  EnergyModel model(MachineModel::Minimal());
  const Dataset data = TestData(200, 8, 3, /*seed=*/6);

  VirtualClock clock;
  ExecutionContext ctx(&clock, &model, 1);
  std::vector<FittedArtifact::Member> members;
  const char* configs[] = {"naive_bayes", "decision_tree"};
  for (size_t j = 0; j < 2; ++j) {
    PipelineConfig config;
    config.model = configs[j];
    config.seed = j + 1;
    auto pipeline = BuildPipeline(config);
    EXPECT_TRUE(pipeline.ok());
    EXPECT_TRUE(pipeline->Fit(data, &ctx).ok());
    FittedArtifact::Member member;
    member.folds.push_back(
        std::make_shared<Pipeline>(std::move(pipeline).value()));
    member.weight = static_cast<double>(j + 1);
    members.push_back(std::move(member));
  }
  auto ladder = ArtifactLadder::Build(
      FittedArtifact::Weighted(std::move(members)), data, &model);
  EXPECT_TRUE(ladder.ok());

  TraceSpec spec;
  spec.kind = TraceSpec::Kind::kBurst;
  spec.duration_seconds = 20.0;
  spec.rate_rps = 8.0;
  const std::vector<ServeRequest> trace =
      GenerateTrace(spec, data.num_rows());

  ServePolicy policy;
  InferenceServer server(std::move(ladder).value(), data, &model, policy);
  auto report = server.Replay(trace);
  EXPECT_TRUE(report.ok());
  if (!report.ok()) return "";
  EXPECT_TRUE(report->CheckConservation().ok());
  return SerializeReport(report.value());
}

TEST(KernelServeTest, ServeReportIdenticalKernelsOnOff) {
  KernelsToggleGuard guard;
  const std::string with_kernels = RunServeReplay(/*kernels=*/true);
  const std::string reference = RunServeReplay(/*kernels=*/false);
  ASSERT_FALSE(with_kernels.empty());
  EXPECT_EQ(with_kernels, reference);
}

uint64_t Bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

// --- Per-model fit/predict identity ----------------------------------

/// Every feature rounded to a quarter: few distinct values per column, so
/// the split scans run through long runs of ties.
Dataset Quantized(Dataset data) {
  for (size_t r = 0; r < data.num_rows(); ++r) {
    for (size_t j = 0; j < data.num_features(); ++j) {
      data.Set(r, j, std::floor(data.At(r, j) * 4.0) / 4.0);
    }
  }
  return data;
}

Dataset QuantizedRegressionData() {
  SyntheticRegressionSpec spec;
  spec.name = "kernels_regression";
  spec.num_rows = 180;
  spec.num_features = 6;
  spec.num_informative = 3;
  spec.seed = 9;
  auto data = GenerateSyntheticRegression(spec);
  EXPECT_TRUE(data.ok());
  return Quantized(std::move(data).value());
}

std::vector<std::unique_ptr<Estimator>> TreeModels(bool regression) {
  GradientBoostingParams stochastic;
  stochastic.subsample = 0.6;
  std::vector<std::unique_ptr<Estimator>> models;
  models.push_back(std::make_unique<DecisionTree>(DecisionTreeParams{}));
  models.push_back(std::make_unique<RandomForest>(RandomForestParams{}));
  models.push_back(std::make_unique<ExtraTrees>(ExtraTreesParams{}));
  if (!regression) {
    models.push_back(std::make_unique<AdaBoost>(AdaBoostParams{}));
  }
  models.push_back(
      std::make_unique<GradientBoosting>(GradientBoostingParams{}));
  models.push_back(std::make_unique<GradientBoosting>(stochastic));
  return models;
}

/// One model's observable outputs: the bits of every predicted value and
/// the work charged for fit plus predict.
struct ModelTrace {
  std::vector<uint64_t> proba_bits;
  uint64_t flops_bits = 0;
  uint64_t bytes_bits = 0;
  uint64_t charges = 0;
  uint64_t clock_bits = 0;
};

ModelTrace FitAndPredict(Estimator* estimator, const Dataset& data,
                         bool kernels) {
  SetKernelsEnabled(kernels);
  EnergyModel model(MachineModel::Minimal());
  VirtualClock clock;
  ExecutionContext ctx(&clock, &model, 1);
  ModelTrace trace;
  const Status fit = estimator->Fit(data, &ctx);
  EXPECT_TRUE(fit.ok()) << fit.ToString();
  auto proba = estimator->PredictProba(data, &ctx);
  EXPECT_TRUE(proba.ok()) << proba.status().ToString();
  if (!proba.ok()) return trace;
  for (const std::vector<double>& row : *proba) {
    for (double p : row) trace.proba_bits.push_back(Bits(p));
  }
  trace.flops_bits = Bits(ctx.counter()->total_flops());
  trace.bytes_bits = Bits(ctx.counter()->bytes());
  trace.charges = ctx.counter()->num_charges();
  trace.clock_bits = Bits(clock.Now());
  return trace;
}

/// The models whose classification trees take the exact Gini scan.
std::vector<std::unique_ptr<Estimator>> GiniScanModels() {
  std::vector<std::unique_ptr<Estimator>> models;
  models.push_back(std::make_unique<DecisionTree>(DecisionTreeParams{}));
  models.push_back(std::make_unique<RandomForest>(RandomForestParams{}));
  models.push_back(std::make_unique<AdaBoost>(AdaBoostParams{}));
  return models;
}

/// Fits two fresh model sets from `make` on `data`, one with the kernels
/// on and one with GREEN_KERNELS=0, and compares every output bit.
void ExpectModelsIdentical(
    const Dataset& data,
    const std::function<std::vector<std::unique_ptr<Estimator>>()>& make) {
  KernelsToggleGuard guard;
  std::vector<std::unique_ptr<Estimator>> with_kernels = make();
  std::vector<std::unique_ptr<Estimator>> reference = make();
  for (size_t i = 0; i < with_kernels.size(); ++i) {
    SCOPED_TRACE(with_kernels[i]->Name() + " #" + std::to_string(i));
    const ModelTrace on = FitAndPredict(with_kernels[i].get(), data, true);
    const ModelTrace off = FitAndPredict(reference[i].get(), data, false);
    ASSERT_FALSE(on.proba_bits.empty());
    EXPECT_EQ(on.proba_bits, off.proba_bits);
    EXPECT_EQ(on.flops_bits, off.flops_bits);
    EXPECT_EQ(on.bytes_bits, off.bytes_bits);
    EXPECT_EQ(on.charges, off.charges);
    EXPECT_EQ(on.clock_bits, off.clock_bits);
  }
}

TEST(KernelModelIdentityTest, BinaryTreeModelsIdenticalKernelsOnOff) {
  ExpectModelsIdentical(Quantized(TestData(160, 6, 2, /*seed=*/31)),
                        [] { return TreeModels(/*regression=*/false); });
}

TEST(KernelModelIdentityTest, FiveClassTreeModelsIdenticalKernelsOnOff) {
  ExpectModelsIdentical(Quantized(TestData(200, 6, 5, /*seed=*/32)),
                        [] { return TreeModels(/*regression=*/false); });
}

TEST(KernelModelIdentityTest, RegressionTreeModelsIdenticalKernelsOnOff) {
  ExpectModelsIdentical(QuantizedRegressionData(),
                        [] { return TreeModels(/*regression=*/true); });
}

TEST(KernelModelIdentityTest, FiftyClassGiniModelsIdenticalKernelsOnOff) {
  // Many classes: the screened Gini scan against the reference's k-class
  // division loop at every candidate.
  ExpectModelsIdentical(Quantized(TestData(1000, 6, 50, /*seed=*/33)),
                        GiniScanModels);
}

TEST(KernelModelIdentityTest, LargeNodeGiniModelsIdenticalKernelsOnOff) {
  // n = 4000: large counts in the screen's squared-count sums.
  ExpectModelsIdentical(Quantized(TestData(4000, 6, 3, /*seed=*/34)),
                        GiniScanModels);
}

// --- Exact-scan Gini candidate screen ---------------------------------

/// Rows of `k` classes, skewed towards the low class ids so that nearly
/// pure nodes and sides occur too.
std::vector<int> SkewedLabels(size_t n, int k, Rng* rng) {
  std::vector<int> labels(n);
  for (int& label : labels) {
    const uint64_t cap = rng->NextBounded(static_cast<uint64_t>(k)) + 1;
    label = static_cast<int>(rng->NextBounded(cap));
  }
  return labels;
}

/// `v` moved by `ulps` representable doubles (towards +Inf if positive).
double ShiftUlps(double v, int ulps) {
  const double dir = ulps > 0 ? std::numeric_limits<double>::infinity()
                              : -std::numeric_limits<double>::infinity();
  for (int i = 0; i < std::abs(ulps); ++i) v = std::nextafter(v, dir);
  return v;
}

TEST(GiniScreenTest, NeverSkipsACandidateTheReferenceAccepts) {
  Rng rng(2024);
  size_t accepted = 0;
  size_t checked = 0;
  for (int k : {2, 3, 7, 50}) {
    const size_t kk = static_cast<size_t>(k);
    for (int trial = 0; trial < 150; ++trial) {
      const size_t n = 2 + rng.NextBounded(4999);  // 2 <= n <= 5000.
      std::vector<int> labels = SkewedLabels(n, k, &rng);
      const size_t n_left = 1 + rng.NextBounded(n - 1);
      std::vector<uint32_t> node(kk, 0u);
      std::vector<uint32_t> left(kk, 0u);
      for (size_t i = 0; i < n; ++i) {
        const size_t c = static_cast<size_t>(labels[i]);
        ++node[c];
        if (i < n_left) ++left[c];
      }
      std::vector<double> counts(kk);
      uint64_t sq_left = 0;
      uint64_t sq_right = 0;
      for (size_t c = 0; c < kk; ++c) {
        counts[c] = static_cast<double>(node[c]);
        const uint64_t rc = node[c] - left[c];
        sq_left += uint64_t{left[c]} * left[c];
        sq_right += rc * rc;
      }
      const double nd = static_cast<double>(n);
      const double nl = static_cast<double>(n_left);
      const double nr = nd - nl;
      const double score =
          ExactGiniScore(left.data(), counts.data(), kk, nl, nr, nd);
      for (double base : {score, score + 1e-12, score - 1e-12}) {
        for (int ulps : {0, 1, -1, 2, -2, 1000, -1000}) {
          const double best = ShiftUlps(base, ulps);
          const bool accepts = score < best - 1e-12;
          const bool skips =
              GiniScreenSkips(sq_left, sq_right, nl, nr, nd, best);
          ASSERT_FALSE(accepts && skips)
              << "k=" << k << " n=" << n << " n_left=" << n_left
              << " score=" << score << " best=" << best;
          accepted += accepts;
          ++checked;
        }
      }
      // Far from the best the screen does its job: a candidate 1e-6
      // worse is skipped, one 1e-6 better is scored.
      EXPECT_TRUE(GiniScreenSkips(sq_left, sq_right, nl, nr, nd,
                                  score - 1e-6));
      EXPECT_FALSE(GiniScreenSkips(sq_left, sq_right, nl, nr, nd,
                                   score + 1e-6));
    }
  }
  // Both sides of the reference comparison were exercised.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, checked);
}

TEST(ExactScanEdgeTest, EqualInfinitiesAndOverflowingMidpoints) {
  constexpr double inf = std::numeric_limits<double>::infinity();
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  // Equal values are never a candidate, infinite ones included.
  EXPECT_TRUE(SkipSplitGap(inf, inf));
  EXPECT_TRUE(SkipSplitGap(-inf, -inf));
  EXPECT_TRUE(SkipSplitGap(-0.0, 0.0));
  EXPECT_TRUE(SkipSplitGap(1.0, 1.0 + 1e-13));
  EXPECT_FALSE(SkipSplitGap(1.0, 2.0));
  EXPECT_FALSE(SkipSplitGap(1.0, inf));
  // A number before NaN stays a candidate (NaN gap), unchanged.
  EXPECT_FALSE(SkipSplitGap(1.0, nan));
  // Thresholds route `a` left and `b` right (`v <= threshold`).
  const std::pair<double, double> gaps[] = {
      {1.0, 2.0},        {5.0, inf},       {-inf, -3.0},
      {-inf, inf},       {1e308, 1.5e308}, {-1.7e308, -1e308},
      {-1e308, 1.7e308}, {1.7e308, inf}};
  for (const auto& [a, b] : gaps) {
    const double t = SplitThreshold(a, b);
    EXPECT_TRUE(a <= t && !(b <= t)) << a << " | " << b << " -> " << t;
  }
  EXPECT_EQ(SplitThreshold(1.0, 2.0), 1.5);
  EXPECT_TRUE(std::isnan(SplitThreshold(1.0, nan)));
}

// --- Arena -----------------------------------------------------------

TEST(ArenaTest, ResetKeepsBlocksAndReusesThem) {
  Arena arena(/*block_bytes=*/4096);
  for (int i = 0; i < 8; ++i) arena.AllocArray<double>(400);
  const size_t warm_blocks = arena.block_count();
  const size_t warm_reserved = arena.reserved_bytes();
  EXPECT_GT(warm_blocks, 1u);
  EXPECT_GT(arena.allocated_bytes(), 0u);

  arena.Reset();
  EXPECT_EQ(arena.allocated_bytes(), 0u);
  EXPECT_EQ(arena.block_count(), warm_blocks);  // Blocks retained.
  EXPECT_EQ(arena.reserved_bytes(), warm_reserved);

  // The warmed arena satisfies the same allocation pattern without
  // growing — the property that makes repeated fits allocation-free.
  for (int i = 0; i < 8; ++i) arena.AllocArray<double>(400);
  EXPECT_EQ(arena.block_count(), warm_blocks);
}

TEST(ArenaTest, ScopeRewindsNestedAllocations) {
  Arena arena(/*block_bytes=*/4096);
  arena.AllocArray<int>(10);
  const Arena::Mark outer = arena.CurrentMark();
  {
    ArenaScope scope(&arena);
    arena.AllocArray<double>(2000);  // Spills into further blocks.
    {
      ArenaScope inner(&arena);
      arena.AllocArray<double>(2000);
    }
    arena.AllocArray<char>(64);
  }
  const Arena::Mark after = arena.CurrentMark();
  EXPECT_EQ(after.block, outer.block);
  EXPECT_EQ(after.offset, outer.offset);
}

TEST(ArenaTest, AllocationsAreAligned) {
  Arena arena;
  arena.Alloc(1, 1);  // Deliberately misalign the bump pointer.
  double* d = arena.AllocArray<double>(3);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(d) % alignof(double), 0u);
  int32_t* i = arena.AllocArray<int32_t>(5);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(i) % alignof(int32_t), 0u);
}

// --- Histogram split vs exact sweep ----------------------------------

/// Brute-force exact best split over a column: sort, sweep every gap
/// between adjacent distinct values, score by weighted Gini — the same
/// criterion both split paths optimize.
struct ExactBest {
  bool found = false;
  double score = 0.0;
  size_t n_left = 0;
};

ExactBest ExactBestSplit(const std::vector<double>& vals,
                         const std::vector<int32_t>& labels, int k,
                         int min_samples_leaf) {
  const size_t n = vals.size();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return vals[a] < vals[b]; });
  std::vector<double> left(static_cast<size_t>(k), 0.0);
  std::vector<double> total(static_cast<size_t>(k), 0.0);
  for (int32_t lab : labels) total[static_cast<size_t>(lab)] += 1.0;
  ExactBest best;
  for (size_t i = 0; i + 1 < n; ++i) {
    left[static_cast<size_t>(labels[order[i]])] += 1.0;
    if (vals[order[i + 1]] - vals[order[i]] <= 1e-12) continue;
    const size_t nl = i + 1;
    const size_t nr = n - nl;
    if (nl < static_cast<size_t>(min_samples_leaf) ||
        nr < static_cast<size_t>(min_samples_leaf)) {
      continue;
    }
    double gl = 1.0, gr = 1.0;
    for (int c = 0; c < k; ++c) {
      const double pl = left[static_cast<size_t>(c)] /
                        static_cast<double>(nl);
      const double pr = (total[static_cast<size_t>(c)] -
                         left[static_cast<size_t>(c)]) /
                        static_cast<double>(nr);
      gl -= pl * pl;
      gr -= pr * pr;
    }
    const double score = (static_cast<double>(nl) * gl +
                          static_cast<double>(nr) * gr) /
                         static_cast<double>(n);
    if (!best.found || score < best.score - 1e-12) {
      best.found = true;
      best.score = score;
      best.n_left = nl;
    }
  }
  return best;
}

TEST(HistogramSplitTest, AgreesWithExactSweepOnDiscreteTies) {
  // Discrete feature: 8 distinct values, each repeated 8 times (heavy
  // ties). Labels correlate with value so there is a clear best split.
  Rng rng(11);
  std::vector<double> vals;
  std::vector<int32_t> labels;
  const int k = 3;
  for (int v = 0; v < 8; ++v) {
    for (int rep = 0; rep < 8; ++rep) {
      vals.push_back(static_cast<double>(v));
      const int noisy = rng.NextBounded(4) == 0
                            ? static_cast<int>(rng.NextBounded(k))
                            : (v < 3 ? 0 : (v < 6 ? 1 : 2));
      labels.push_back(static_cast<int32_t>(noisy));
    }
  }
  const int bins = 32;  // Every distinct value lands in its own bin.
  std::vector<double> scratch((bins + 2) * k);
  const HistogramSplit hist = HistogramSplitScanCls(
      vals.data(), labels.data(), vals.size(), k, /*lo=*/0.0, /*hi=*/7.0,
      bins, /*min_samples_leaf=*/2, scratch.data());
  const ExactBest exact =
      ExactBestSplit(vals, labels, k, /*min_samples_leaf=*/2);

  ASSERT_TRUE(hist.found);
  ASSERT_TRUE(exact.found);
  // With one bin per distinct value the candidate partitions coincide,
  // so the histogram must pick the exact optimum: same left block, same
  // weighted Gini.
  EXPECT_EQ(static_cast<size_t>(hist.n_left), exact.n_left);
  EXPECT_NEAR(hist.score, exact.score, 1e-12);
  // And its threshold routes the same rows: a bin edge between distinct
  // values, not on one.
  size_t routed_left = 0;
  for (double v : vals) routed_left += v <= hist.threshold ? 1 : 0;
  EXPECT_EQ(routed_left, exact.n_left);
}

TEST(HistogramSplitTest, TreePredictionsMatchExactOnDiscreteData) {
  // A tree grown with histogram splits on discrete features must route
  // every row exactly as the exact-sweep tree does: with <= 32 distinct
  // values per feature and 64 bins, every exact midpoint threshold has a
  // matching bin edge.
  KernelsToggleGuard guard;
  SetKernelsEnabled(true);
  const Dataset data = Quantized(TestData(256, 6, 3, /*seed=*/13));
  EnergyModel model(MachineModel::Minimal());
  VirtualClock clock;
  ExecutionContext ctx(&clock, &model, 1);

  DecisionTreeParams exact_params;
  DecisionTree exact_tree(exact_params);
  ASSERT_TRUE(exact_tree.Fit(data, &ctx).ok());
  auto exact_proba = exact_tree.PredictProba(data, &ctx);
  ASSERT_TRUE(exact_proba.ok());

  DecisionTreeParams hist_params;
  hist_params.histogram_bins = 64;
  DecisionTree hist_tree(hist_params);
  ASSERT_TRUE(hist_tree.Fit(data, &ctx).ok());
  auto hist_proba = hist_tree.PredictProba(data, &ctx);
  ASSERT_TRUE(hist_proba.ok());

  ASSERT_EQ(exact_proba->size(), hist_proba->size());
  size_t agree = 0;
  for (size_t i = 0; i < exact_proba->size(); ++i) {
    const auto& a = (*exact_proba)[i];
    const auto& b = (*hist_proba)[i];
    ASSERT_EQ(a.size(), b.size());
    size_t am = 0, bm = 0;
    for (size_t c = 1; c < a.size(); ++c) {
      if (a[c] > a[am]) am = c;
      if (b[c] > b[bm]) bm = c;
    }
    agree += am == bm ? 1 : 0;
  }
  // The approximation is allowed to differ on a handful of rows (bin
  // edges vs midpoints shift deep-node tie-breaks); it must not diverge.
  EXPECT_GE(agree, exact_proba->size() * 95 / 100);
}

// --- Shared presort: order expansion --------------------------------

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kPathologicalWidth = 7;

/// Columns: heavy ties, signed zeros, +-Inf, NaN, constant, a mix of
/// the above, and finite +-1e308-scale magnitudes whose midpoints
/// overflow. Consumes the same draws from `rng` every call.
std::vector<double> PathologicalRow(double signal, Rng* rng) {
  signal += rng->NextDouble();
  const uint64_t pick = rng->NextBounded(6);
  std::vector<double> x(kPathologicalWidth);
  x[0] = static_cast<double>(rng->NextBounded(3));  // Heavy ties.
  x[1] = pick < 3 ? -0.0 : (pick < 5 ? 0.0 : signal);
  x[2] = pick == 0 ? -kInf : (pick == 1 ? kInf : signal);
  x[3] = pick < 2 ? kNaN : signal;
  x[4] = 3.5;  // Constant column.
  x[5] = pick == 0 ? kNaN : (pick == 1 ? -0.0 : (pick == 2 ? kInf : signal));
  x[6] = (pick < 3 ? -1e308 : 1e308) *
         (1.0 + 0.7 * (signal - std::floor(signal)));
  return x;
}

/// Classification rows of PathologicalRow; row r has label r % classes.
/// Column j of row r is a pure function of (r, j, seed).
Dataset PathologicalData(size_t rows, int classes, uint64_t seed) {
  Dataset data("pathological", kPathologicalWidth, classes);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const int label = static_cast<int>(r % static_cast<size_t>(classes));
    const std::vector<double> x =
        PathologicalRow(static_cast<double>(label), &rng);
    EXPECT_TRUE(data.AppendRow(x, label).ok());
  }
  return data;
}

/// Regression rows of PathologicalRow; the target is the finite signal.
Dataset PathologicalRegressionData(size_t rows, uint64_t seed) {
  Dataset data =
      Dataset::Regression("pathological_regression", kPathologicalWidth);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    const double target = static_cast<double>(r % 5);
    const std::vector<double> x = PathologicalRow(target, &rng);
    EXPECT_TRUE(data.AppendTargetRow(x, target).ok());
  }
  return data;
}

/// A stripe as its (row id, value bits) sequence: duplicate slots of one
/// row are interchangeable, so this is what must match exactly.
using StripeSeq = std::vector<std::pair<size_t, uint64_t>>;

/// Direct per-sample sort with the FeatureOrder contract: (value, row
/// id), NaN after every number, -0.0 == +0.0.
StripeSeq ReferenceStripe(const Dataset& data,
                          const std::vector<size_t>& rows, size_t f) {
  std::vector<size_t> slots(rows.size());
  for (size_t s = 0; s < slots.size(); ++s) slots[s] = s;
  std::sort(slots.begin(), slots.end(), [&](size_t a, size_t b) {
    const double va = data.At(rows[a], f);
    const double vb = data.At(rows[b], f);
    const bool na = std::isnan(va);
    const bool nb = std::isnan(vb);
    if (na != nb) return nb;
    if (!na && va != vb) return va < vb;
    return rows[a] < rows[b];
  });
  StripeSeq seq;
  for (size_t s : slots) {
    seq.emplace_back(rows[s], Bits(data.At(rows[s], f)));
  }
  return seq;
}

/// Checks one expanded stripe: every slot exactly once, each value the
/// slot's own cell, and the (row id, value) sequence of the reference.
void ExpectStripeExact(const Dataset& data, const std::vector<size_t>& rows,
                       size_t f, const uint32_t* slots,
                       const double* values) {
  const size_t m = rows.size();
  std::vector<int> seen(m, 0);
  StripeSeq seq;
  for (size_t k = 0; k < m; ++k) {
    ASSERT_LT(slots[k], m);
    ++seen[slots[k]];
    const size_t row = rows[slots[k]];
    ASSERT_EQ(Bits(values[k]), Bits(data.At(row, f)));
    seq.emplace_back(row, Bits(values[k]));
  }
  for (size_t s = 0; s < m; ++s) ASSERT_EQ(seen[s], 1) << "slot " << s;
  EXPECT_EQ(seq, ReferenceStripe(data, rows, f)) << "feature " << f;
}

/// Expands `rows` into buffers of exactly d x m cells (std::vector, so
/// AddressSanitizer flags any write past the end) and checks every
/// stripe.
void ExpectExpansionExact(const Dataset& data, const FeatureOrder& order,
                          const std::vector<size_t>& rows, Arena* arena) {
  const size_t d = data.num_features();
  const size_t m = rows.size();
  std::vector<uint32_t> spos(d * m);
  std::vector<double> sval(d * m);
  ExpandFeatureOrder(order, rows, arena, spos.data(), sval.data());
  for (size_t f = 0; f < d; ++f) {
    ExpectStripeExact(data, rows, f, spos.data() + f * m,
                      sval.data() + f * m);
  }
}

TEST(FeatureOrderTest, ExpandedStripesMatchPerSampleSort) {
  const Dataset data = PathologicalData(97, 3, /*seed=*/21);
  const size_t n = data.num_rows();
  const size_t d = data.num_features();
  Rng rng(5);
  std::vector<std::vector<size_t>> samples;
  samples.push_back({42});  // m = 1.
  std::vector<size_t> all(n);
  for (size_t r = 0; r < n; ++r) all[r] = r;
  samples.push_back(all);  // m = n, identity.
  std::vector<size_t> reversed(all.rbegin(), all.rend());
  samples.push_back(reversed);  // m = n, every row once, shuffled slots.
  for (int t = 0; t < 4; ++t) {
    std::vector<size_t> bootstrap(n);  // m = n with duplicates.
    for (size_t& r : bootstrap) r = rng.NextBounded(n);
    samples.push_back(bootstrap);
  }
  std::vector<size_t> heavy(3 * n);  // Few rows, many copies each.
  for (size_t& r : heavy) r = rng.NextBounded(5) * 7;
  samples.push_back(heavy);

  Arena arena(/*block_bytes=*/4096);
  const FeatureOrder order(data);
  ASSERT_EQ(order.num_rows(), n);
  ASSERT_EQ(order.num_features(), d);
  // The shared order itself is the identity sample's stripes.
  for (size_t f = 0; f < d; ++f) {
    ExpectStripeExact(data, all, f, order.rows(f), order.values(f));
  }
  for (const std::vector<size_t>& rows : samples) {
    ExpectExpansionExact(data, order, rows, &arena);
  }
}

TEST(FeatureOrderTest, ExpansionCoversEveryMultiplicityWithinBounds) {
  const Dataset data = PathologicalData(91, 3, /*seed=*/12);
  const size_t n = data.num_rows();
  Arena arena(/*block_bytes=*/4096);
  const FeatureOrder order(data);
  Rng rng(19);
  std::vector<std::vector<size_t>> samples;
  std::vector<size_t> multiplicities;  // Row r appears r % 7 times.
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < r % 7; ++c) multiplicities.push_back(r);
  }
  rng.Shuffle(&multiplicities);
  samples.push_back(multiplicities);
  for (size_t f = 0; f < data.num_features(); ++f) {
    // AdaBoost-style weighted draw: the row that sorts last in column f
    // holds half of the m slots, so the expansion ends on a long run.
    const size_t last = order.rows(f)[n - 1];
    for (size_t m : {2, 7, 64}) {
      std::vector<size_t> skewed(m);
      for (size_t s = 0; s < m; ++s) {
        skewed[s] = s < m / 2 ? last : rng.NextBounded(n);
      }
      rng.Shuffle(&skewed);
      samples.push_back(skewed);
    }
    samples.push_back({last});            // m = 1, sorting last.
    samples.push_back({order.rows(f)[0]});  // m = 1, sorting first.
  }
  for (const std::vector<size_t>& rows : samples) {
    SCOPED_TRACE("m = " + std::to_string(rows.size()));
    ExpectExpansionExact(data, order, rows, &arena);
  }
}

TEST(FeatureOrderTest, GbRoundPresortMatchesPerSampleSort) {
  const Dataset data = PathologicalData(83, 2, /*seed=*/8);
  const size_t n = data.num_rows();
  Arena arena(/*block_bytes=*/4096);
  const FeatureOrder order(data);
  Rng rng(3);
  for (double subsample : {0.3, 0.7, 1.0}) {
    // Same row-set rule as GradientBoosting::Fit: ascending, distinct.
    std::vector<size_t> rows;
    for (size_t r = 0; r < n; ++r) {
      if (subsample >= 1.0 || rng.NextBool(subsample)) rows.push_back(r);
    }
    ArenaScope scope(&arena);
    const GbRoundPresort presort(order, rows, &arena);
    ASSERT_EQ(presort.num_rows(), rows.size());
    ASSERT_EQ(presort.num_features(), data.num_features());
    for (size_t s = 0; s < rows.size(); ++s) {
      ASSERT_EQ(presort.row_ids()[s], rows[s]);
    }
    for (size_t f = 0; f < data.num_features(); ++f) {
      ExpectStripeExact(data, rows, f, presort.slots(f), presort.values(f));
    }
  }
}

TEST(FeatureOrderTest, NaNFreeOrderIsValueThenRowId) {
  // Without NaN the contract is the plain (value, row id) order — the
  // order std::sort on (value, row) pairs gives the reference builders.
  const Dataset data = TestData(64, 5, 2, /*seed=*/17);
  Arena arena;
  const FeatureOrder order(data);
  for (size_t f = 0; f < data.num_features(); ++f) {
    std::vector<std::pair<double, size_t>> pairs;
    for (size_t r = 0; r < data.num_rows(); ++r) {
      pairs.emplace_back(data.At(r, f), r);
    }
    std::sort(pairs.begin(), pairs.end());
    for (size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_EQ(order.rows(f)[i], pairs[i].second);
      EXPECT_EQ(Bits(order.values(f)[i]), Bits(pairs[i].first));
    }
  }
}

// --- Pathological inputs fit cleanly ---------------------------------

/// Fits each of `models` on `data` with the kernels on and checks an ok
/// Status and finite predictions; classification rows must also be
/// probability distributions.
void ExpectFitsCleanly(const Dataset& data,
                       const std::vector<std::unique_ptr<Estimator>>& models) {
  KernelsToggleGuard guard;
  SetKernelsEnabled(true);
  EnergyModel model(MachineModel::Minimal());
  VirtualClock clock;
  ExecutionContext ctx(&clock, &model, 1);
  const bool regression = data.task() == TaskType::kRegression;
  const size_t width =
      regression ? 1u : static_cast<size_t>(data.num_classes());
  for (const auto& estimator : models) {
    SCOPED_TRACE(estimator->Name());
    const Status fit = estimator->Fit(data, &ctx);
    ASSERT_TRUE(fit.ok()) << fit.ToString();
    auto proba = estimator->PredictProba(data, &ctx);
    ASSERT_TRUE(proba.ok()) << proba.status().ToString();
    ASSERT_EQ(proba->size(), data.num_rows());
    for (const std::vector<double>& row : *proba) {
      ASSERT_EQ(row.size(), width);
      double sum = 0.0;
      for (double p : row) {
        ASSERT_TRUE(std::isfinite(p));
        ASSERT_TRUE(regression || p >= 0.0) << p;
        sum += p;
      }
      if (!regression) {
        EXPECT_NEAR(sum, 1.0, 1e-9);
      }
    }
  }
}

TEST(PathologicalInputTest, TreeModelsFitAndPredictValidProbabilities) {
  ExpectFitsCleanly(PathologicalData(150, 3, /*seed=*/4),
                    TreeModels(/*regression=*/false));
}

TEST(PathologicalInputTest, RegressionTreeModelsFitFinite) {
  // Equal infinities are no split candidate and an overflowing midpoint
  // falls back to the lower value, so no exact split leaves an empty
  // child whose mean would be 0/0.
  ExpectFitsCleanly(PathologicalRegressionData(150, /*seed=*/4),
                    TreeModels(/*regression=*/true));
}

}  // namespace
}  // namespace green
