// Tests for zero-copy dataset views and the charge-replaying transform
// cache: CoW semantics, tape record/replay bit-identity, pipeline-level
// cache hits, LRU byte bounding, truncation safety, config signatures,
// the presort memo shared across fits (keying, pinning, bounding, and
// concurrent forest fits on one cached dataset), the fitted-model memo
// (keying, adoption, bounding, cancellation, refit guard), and end-to-end
// record/scope-tree identity with the cache on vs off and across host
// worker counts.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "green/bench_util/experiment.h"
#include "green/bench_util/record_io.h"
#include "green/common/cancel.h"
#include "green/data/synthetic.h"
#include "green/ml/model_registry.h"
#include "green/ml/kernels/kernels.h"
#include "green/ml/models/decision_tree.h"
#include "green/ml/models/gradient_boosting.h"
#include "green/ml/models/random_forest.h"
#include "green/ml/pipeline.h"
#include "green/ml/preprocess/binning.h"
#include "green/ml/preprocess/feature_selection.h"
#include "green/ml/preprocess/imputer.h"
#include "green/ml/preprocess/one_hot.h"
#include "green/ml/preprocess/pca.h"
#include "green/ml/preprocess/scaler.h"
#include "green/ml/transform_cache.h"
#include "green/sim/execution_context.h"
#include "green/table/dataset.h"

#include "env_guard.h"

namespace green {
namespace {

Dataset TestData(size_t rows, size_t features, int classes,
                 uint64_t seed = 7) {
  SyntheticSpec spec;
  spec.name = "tcache";
  spec.num_rows = rows;
  spec.num_features = features;
  spec.num_informative = features / 2;
  spec.num_classes = classes;
  spec.seed = seed;
  auto data = GenerateSynthetic(spec);
  EXPECT_TRUE(data.ok());
  return std::move(data).value();
}

// --- Dataset views / copy-on-write -----------------------------------

TEST(DatasetViewTest, SubsetIsAnO1StorageView) {
  const Dataset base = TestData(50, 6, 2);
  const Dataset view = base.Subset({3, 1, 4, 1, 40});
  EXPECT_TRUE(view.IsView());
  EXPECT_EQ(view.StorageId(), base.StorageId());
  EXPECT_EQ(view.num_rows(), 5u);
  EXPECT_EQ(view.num_features(), base.num_features());
  for (size_t j = 0; j < base.num_features(); ++j) {
    EXPECT_EQ(view.At(0, j), base.At(3, j));
    EXPECT_EQ(view.At(1, j), base.At(1, j));
    EXPECT_EQ(view.At(3, j), base.At(1, j));
    EXPECT_EQ(view.At(4, j), base.At(40, j));
  }
  EXPECT_EQ(view.Label(4), base.Label(40));
  // Views compose: a subset of a view maps through to the base rows.
  const Dataset nested = view.Subset({4, 0});
  EXPECT_EQ(nested.StorageId(), base.StorageId());
  EXPECT_EQ(nested.At(0, 0), base.At(40, 0));
  EXPECT_EQ(nested.At(1, 0), base.At(3, 0));
}

TEST(DatasetViewTest, MutationCopiesOnWriteAndNeverLeaks) {
  Dataset base = TestData(20, 4, 2);
  Dataset copy = base;
  EXPECT_EQ(copy.StorageId(), base.StorageId());  // Shared until mutated.
  const double before = base.At(0, 0);
  copy.Set(0, 0, before + 100.0);
  EXPECT_NE(copy.StorageId(), base.StorageId());
  EXPECT_EQ(base.At(0, 0), before);
  EXPECT_EQ(copy.At(0, 0), before + 100.0);

  Dataset view = base.Subset({5, 6});
  view.Set(1, 2, -77.0);
  EXPECT_FALSE(view.IsView());  // Collapsed by the write.
  EXPECT_EQ(view.At(1, 2), -77.0);
  EXPECT_NE(base.At(6, 2), -77.0);
}

TEST(DatasetViewTest, MaterializeCollapsesAndRoundTrips) {
  const Dataset base = TestData(30, 5, 3);
  Dataset view = base.Subset({2, 9, 17});
  Dataset dense = view;
  dense.Materialize();
  EXPECT_FALSE(dense.IsView());
  EXPECT_NE(dense.StorageId(), base.StorageId());
  ASSERT_EQ(dense.num_rows(), view.num_rows());
  for (size_t r = 0; r < dense.num_rows(); ++r) {
    EXPECT_EQ(dense.Label(r), view.Label(r));
    for (size_t j = 0; j < dense.num_features(); ++j) {
      EXPECT_EQ(dense.At(r, j), view.At(r, j));
    }
  }
  // Modeled footprint is representation-independent.
  EXPECT_EQ(dense.FeatureBytes(), view.FeatureBytes());
}

TEST(DatasetViewTest, ViewFingerprintSeparatesDistinctViews) {
  const Dataset base = TestData(25, 4, 2);
  EXPECT_NE(base.Subset({1, 2, 3}).ViewFingerprint(),
            base.Subset({3, 2, 1}).ViewFingerprint());
  EXPECT_EQ(base.Subset({1, 2, 3}).ViewFingerprint(),
            base.Subset({1, 2, 3}).ViewFingerprint());
}

// --- Charge tape record / replay -------------------------------------

TEST(ChargeTapeTest, ReplayIsBitIdenticalToRecording) {
  EnergyModel model(MachineModel::Minimal());
  VirtualClock clock_a, clock_b;
  ExecutionContext recorded(&clock_a, &model, 1);
  ExecutionContext replayed(&clock_b, &model, 1);
  EnergyMeter meter_a(&model), meter_b(&model);
  meter_a.Start(0.0);
  meter_b.Start(0.0);
  recorded.SetMeter(&meter_a);
  replayed.SetMeter(&meter_b);

  ChargeTape tape;
  {
    ChargeScope fit(&recorded, "fit");
    ASSERT_TRUE(recorded.StartTapeRecording(&tape));
    {
      ChargeScope t(&recorded, "scaler");
      recorded.ChargeCpu(3e6, 128.0);
    }
    {
      ChargeScope t(&recorded, "pca");
      recorded.ChargeCpu(7e6, 256.0, /*parallel_fraction=*/0.85);
      recorded.ChargeCpu(1e5, 0.0);
    }
    recorded.StopTapeRecording();
  }
  ASSERT_EQ(tape.entries.size(), 3u);
  EXPECT_GT(tape.ApproxBytes(), 0u);

  {
    ChargeScope fit(&replayed, "fit");
    replayed.ReplayTape(tape);
  }

  EXPECT_EQ(replayed.Now(), recorded.Now());
  const EnergyReading a = meter_a.Stop(recorded.Now());
  const EnergyReading b = meter_b.Stop(replayed.Now());
  EXPECT_EQ(a.breakdown.TotalJoules(), b.breakdown.TotalJoules());
  ASSERT_EQ(a.scopes.size(), b.scopes.size());
  for (const auto& [path, charge] : a.scopes) {
    ASSERT_EQ(b.scopes.count(path), 1u) << path;
    EXPECT_EQ(b.scopes.at(path).joules, charge.joules) << path;
    EXPECT_EQ(b.scopes.at(path).seconds, charge.seconds) << path;
    EXPECT_EQ(b.scopes.at(path).charges, charge.charges) << path;
  }
}

// --- Pipeline-level cache behavior -----------------------------------

Pipeline MakePipeline() {
  Pipeline p;
  p.AddTransformer(std::make_unique<MeanModeImputer>());
  p.AddTransformer(std::make_unique<Scaler>(ScalerKind::kStandard));
  DecisionTreeParams params;
  params.max_depth = 4;
  p.SetModel(std::make_unique<DecisionTree>(params));
  return p;
}

TEST(TransformCachePipelineTest, HitIsBitIdenticalAndSkipsRefit) {
  const Dataset base = TestData(120, 6, 2);
  const Dataset train = base.Subset({0,  1,  2,  3,  4,  5,  6,  7,
                                     8,  9,  10, 11, 12, 13, 14, 15,
                                     16, 17, 18, 19, 20, 21, 22, 23});
  const Dataset test = base.Subset({30, 31, 32, 33, 34, 35, 36, 37});
  EnergyModel model(MachineModel::Minimal());
  TransformCache cache(64 * 1024 * 1024);

  auto run = [&](TransformCache* c) {
    VirtualClock clock;
    ExecutionContext ctx(&clock, &model, 1);
    EnergyMeter meter(&model);
    meter.Start(0.0);
    ctx.SetMeter(&meter);
    if (c != nullptr) ctx.SetTransformCache(c);
    Pipeline p = MakePipeline();
    EXPECT_TRUE(p.Fit(train, &ctx).ok());
    auto pred = p.Predict(test, &ctx);
    EXPECT_TRUE(pred.ok());
    return std::make_tuple(ctx.Now(), meter.Stop(ctx.Now()),
                           std::move(pred).value());
  };

  const auto cold = run(&cache);      // Miss: fits and records.
  const auto warm = run(&cache);      // Hit: replays the tape.
  const auto uncached = run(nullptr);  // No cache at all.

  const TransformCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.insertions, 1u);
  EXPECT_EQ(stats.predict_hits, 1u);

  EXPECT_EQ(std::get<0>(cold), std::get<0>(warm));
  EXPECT_EQ(std::get<0>(cold), std::get<0>(uncached));
  EXPECT_EQ(std::get<1>(cold).breakdown.TotalJoules(),
            std::get<1>(warm).breakdown.TotalJoules());
  EXPECT_EQ(std::get<1>(cold).breakdown.TotalJoules(),
            std::get<1>(uncached).breakdown.TotalJoules());
  EXPECT_EQ(std::get<2>(cold), std::get<2>(warm));
  EXPECT_EQ(std::get<2>(cold), std::get<2>(uncached));
}

TEST(TransformCachePipelineTest, AdoptedPipelineRefusesRefit) {
  const Dataset train = TestData(60, 5, 2);
  EnergyModel model(MachineModel::Minimal());
  TransformCache cache(16 * 1024 * 1024);
  VirtualClock clock;
  ExecutionContext ctx(&clock, &model, 1);
  ctx.SetTransformCache(&cache);

  Pipeline p = MakePipeline();
  ASSERT_TRUE(p.Fit(train, &ctx).ok());
  // The chain was donated to the cache on the miss: the pipeline now
  // shares transformer instances with it and must refuse a refit.
  EXPECT_EQ(p.Fit(train, &ctx).code(), Status::Code::kFailedPrecondition);
}

TEST(TransformCachePipelineTest, TruncatedFitIsNeverMemoized) {
  const Dataset train = TestData(200, 8, 2);
  EnergyModel model(MachineModel::Minimal());
  TransformCache cache(16 * 1024 * 1024);
  VirtualClock clock;
  ExecutionContext ctx(&clock, &model, 1);
  ctx.SetTransformCache(&cache);
  // Hard-deadline mode with the deadline already expired and slicing
  // forced on: the first sliced charge truncates mid-way.
  ctx.SetMaxSliceSeconds(1e-12);
  ctx.SetHardDeadline(true);
  ctx.SetDeadline(clock.Now());

  Pipeline p = MakePipeline();
  EXPECT_FALSE(p.Fit(train, &ctx).ok());
  EXPECT_TRUE(ctx.charge_truncated());
  const TransformCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

// --- Cache bounding --------------------------------------------------

TEST(TransformCacheTest, LruStaysWithinByteBudgetAndEvicts) {
  const Dataset data = TestData(500, 10, 2);  // ~40 KB dense.
  TransformCache cache(100 * 1024);
  for (int i = 0; i < 6; ++i) {
    cache.Insert(data, "chain" + std::to_string(i), {}, data, ChargeTape{});
  }
  const TransformCacheStats stats = cache.Stats();
  EXPECT_LE(stats.bytes, 100u * 1024u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.insertions, 6u);
  EXPECT_LT(stats.entries, 6u);
  // The most recent chain survived; the oldest was evicted.
  EXPECT_NE(cache.Lookup(data, "chain5"), nullptr);
  EXPECT_EQ(cache.Lookup(data, "chain0"), nullptr);
}

TEST(TransformCacheTest, OversizedEntryIsNeverAdmitted) {
  const Dataset data = TestData(500, 10, 2);
  TransformCache cache(1024);  // Smaller than one entry.
  EXPECT_EQ(cache.Insert(data, "chain", {}, data, ChargeTape{}), nullptr);
  const TransformCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.evictions, 1u);
}

TEST(TransformCacheTest, LookupIsExactOnViewNotJustFingerprint) {
  const Dataset base = TestData(40, 4, 2);
  const Dataset view_a = base.Subset({1, 2, 3});
  const Dataset view_b = base.Subset({1, 2, 4});
  TransformCache cache(16 * 1024 * 1024);
  ASSERT_NE(cache.Insert(view_a, "chain", {}, view_a, ChargeTape{}),
            nullptr);
  EXPECT_NE(cache.Lookup(view_a, "chain"), nullptr);
  EXPECT_EQ(cache.Lookup(view_b, "chain"), nullptr);
  EXPECT_EQ(cache.Lookup(view_a, "other"), nullptr);
}

// --- Presort memo shared across fits ----------------------------------

/// Turns the kernels on (PresortFor builds orders only with them) and
/// restores the previous setting.
class KernelsOn {
 public:
  KernelsOn() : previous_(KernelsEnabled()) { SetKernelsEnabled(true); }
  ~KernelsOn() { SetKernelsEnabled(previous_); }

 private:
  bool previous_;
};

/// True when two orders hold the same shape and the same bytes.
bool SameOrderBytes(const FeatureOrder& a, const FeatureOrder& b) {
  if (a.num_rows() != b.num_rows() ||
      a.num_features() != b.num_features()) {
    return false;
  }
  const size_t cells = a.num_rows() * a.num_features();
  return std::memcmp(a.rows(0), b.rows(0), cells * sizeof(uint32_t)) == 0 &&
         std::memcmp(a.values(0), b.values(0), cells * sizeof(double)) == 0;
}

TEST(PresortMemoTest, HitSharesOneOrderByteEqualToAFreshBuild) {
  const Dataset data = TestData(120, 6, 3);
  TransformCache cache(64 * 1024 * 1024);
  const std::shared_ptr<const FeatureOrder> first =
      cache.FeatureOrderFor(data);
  const Dataset copy = data;  // Same storage, same (contiguous) view.
  const std::shared_ptr<const FeatureOrder> second =
      cache.FeatureOrderFor(copy);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_TRUE(SameOrderBytes(*first, FeatureOrder(data)));

  const TransformCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.order_hits, 1u);
  EXPECT_EQ(stats.order_misses, 1u);
  EXPECT_EQ(stats.order_evictions, 0u);
  EXPECT_GE(stats.order_bytes, first->bytes());
  // The memo stays out of the chain entries' counters and bytes.
  EXPECT_EQ(stats.hits + stats.misses + stats.insertions, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
}

TEST(PresortMemoTest, DifferentStorageViewOrWidthMisses) {
  const Dataset base = TestData(60, 5, 2);
  const Dataset view_a = base.Subset({1, 2, 3, 4, 5, 6});
  const Dataset view_b = base.Subset({1, 2, 3, 4, 5, 7});
  const Dataset twin = TestData(60, 5, 2);  // Equal cells, new storage.
  const Dataset narrow =
      base.SelectFeatures({0, 1, 2}, base.schema()->Select({0, 1, 2}));
  std::vector<size_t> all(base.num_rows());
  for (size_t r = 0; r < all.size(); ++r) all[r] = r;
  const Dataset identity_view = base.Subset(all);  // Indexed, not plain.
  TransformCache cache(64 * 1024 * 1024);

  const auto a = cache.FeatureOrderFor(view_a);
  for (const Dataset* other : {&view_b, &twin, &narrow, &identity_view}) {
    EXPECT_NE(cache.FeatureOrderFor(*other).get(), a.get());
  }
  EXPECT_EQ(cache.Stats().order_misses, 5u);
  EXPECT_EQ(cache.Stats().order_hits, 0u);
  EXPECT_EQ(cache.FeatureOrderFor(view_a).get(), a.get());
  EXPECT_EQ(cache.FeatureOrderFor(base.Subset({1, 2, 3, 4, 5, 6})).get(),
            a.get());  // An equal row view of the same storage hits.
  EXPECT_EQ(cache.Stats().order_hits, 2u);
}

TEST(PresortMemoTest, LruStaysWithinItsBudgetAndEvicts) {
  // Memo budget: 8 MiB / 128 = 64 KiB; each 200 x 10 order is ~24 KB.
  TransformCache cache(8 * 1024 * 1024);
  ASSERT_EQ(cache.order_max_bytes(), 64u * 1024u);
  const Dataset base = TestData(1200, 10, 2);
  std::vector<Dataset> views;
  for (size_t v = 0; v < 6; ++v) {
    std::vector<size_t> rows(200);
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = v * 200 + i;
    views.push_back(base.Subset(rows));
  }
  for (const Dataset& view : views) {
    cache.FeatureOrderFor(view);
    EXPECT_LE(cache.Stats().order_bytes, cache.order_max_bytes());
  }
  const TransformCacheStats stats = cache.Stats();
  EXPECT_GT(stats.order_evictions, 0u);
  EXPECT_EQ(stats.order_misses, 6u);
  // The most recent view survived; the oldest was evicted.
  cache.FeatureOrderFor(views.back());
  EXPECT_EQ(cache.Stats().order_hits, 1u);
  cache.FeatureOrderFor(views.front());
  EXPECT_EQ(cache.Stats().order_misses, 7u);

  // An order larger than the whole memo is returned but never admitted.
  const size_t resident = cache.Stats().order_bytes;
  const uint64_t evictions = cache.Stats().order_evictions;
  const auto big = cache.FeatureOrderFor(base);  // ~144 KB.
  ASSERT_NE(big, nullptr);
  EXPECT_TRUE(SameOrderBytes(*big, FeatureOrder(base)));
  EXPECT_EQ(cache.Stats().order_bytes, resident);
  EXPECT_EQ(cache.Stats().order_evictions, evictions + 1);
  EXPECT_NE(cache.FeatureOrderFor(base).get(), big.get());
}

TEST(PresortMemoTest, MutatedSourceCopiesOnWriteAndMisses) {
  Dataset data = TestData(80, 4, 2);
  TransformCache cache(64 * 1024 * 1024);
  const auto before = cache.FeatureOrderFor(data);
  const size_t n = data.num_rows();
  const uint32_t last = before->rows(0)[n - 1];
  const double last_value = before->values(0)[n - 1];
  const void* pinned_storage = data.StorageId();

  // The memo pins the storage, so the write must copy first.
  data.Set(last, 0, -1e6);
  EXPECT_NE(data.StorageId(), pinned_storage);
  const auto after = cache.FeatureOrderFor(data);
  EXPECT_NE(after.get(), before.get());
  EXPECT_EQ(cache.Stats().order_misses, 2u);
  EXPECT_EQ(after->rows(0)[0], last);  // The mutated cell sorts first now.
  // The memoized order still describes the pinned, unmutated cells.
  EXPECT_EQ(before->rows(0)[n - 1], last);
  EXPECT_EQ(before->values(0)[n - 1], last_value);
  EXPECT_TRUE(SameOrderBytes(*after, FeatureOrder(data)));
}

TEST(PresortMemoTest, PresortForSharesOnlyThroughTheContextCache) {
  KernelsOn kernels;
  const Dataset data = TestData(90, 5, 2);
  EnergyModel model(MachineModel::Minimal());
  VirtualClock clock;
  ExecutionContext ctx(&clock, &model, 1);
  const DecisionTreeParams params;

  // No cache on the context: every call builds a fresh, equal order.
  const auto a = DecisionTree::PresortFor(data, params, &ctx);
  const auto b = DecisionTree::PresortFor(data, params, &ctx);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a.get(), b.get());
  EXPECT_TRUE(SameOrderBytes(*a, *b));

  TransformCache cache(64 * 1024 * 1024);
  ctx.SetTransformCache(&cache);
  const auto c = DecisionTree::PresortFor(data, params, &ctx);
  EXPECT_EQ(DecisionTree::PresortFor(data, params, &ctx).get(), c.get());
  EXPECT_TRUE(SameOrderBytes(*a, *c));

  // Random-threshold trees take no presort and touch no memo.
  DecisionTreeParams extra = params;
  extra.random_thresholds = true;
  EXPECT_EQ(DecisionTree::PresortFor(data, extra, &ctx), nullptr);
  EXPECT_EQ(cache.Stats().order_hits + cache.Stats().order_misses, 2u);
}

/// Predictions and charged work of one fit, bit for bit.
struct FitOutput {
  ProbaMatrix proba;
  double flops = 0.0;
  double clock = 0.0;
  bool operator==(const FitOutput&) const = default;
};

FitOutput FitOnce(Estimator* estimator, const Dataset& data,
                  TransformCache* cache) {
  EnergyModel model(MachineModel::Minimal());
  VirtualClock clock;
  ExecutionContext ctx(&clock, &model, 1);
  if (cache != nullptr) ctx.SetTransformCache(cache);
  FitOutput out;
  EXPECT_TRUE(estimator->Fit(data, &ctx).ok());
  auto proba = estimator->PredictProba(data, &ctx);
  EXPECT_TRUE(proba.ok());
  if (proba.ok()) out.proba = std::move(proba).value();
  out.flops = ctx.counter()->total_flops();
  out.clock = clock.Now();
  return out;
}

TEST(PresortMemoTest, ConcurrentForestFitsOnOneCachedDatasetMatch) {
  // A transformed set as a chain-cache hit hands it to every fit.
  KernelsOn kernels;
  const Dataset raw = TestData(150, 6, 3);
  TransformCache cache(64 * 1024 * 1024);
  std::vector<size_t> even;
  for (size_t r = 0; r < raw.num_rows(); r += 2) even.push_back(r);
  const auto entry =
      cache.Insert(raw, "chain", {}, raw.Subset(even), ChargeTape{});
  ASSERT_NE(entry, nullptr);
  const Dataset& transformed = entry->transformed;

  RandomForest solo{RandomForestParams{}};
  const FitOutput expected = FitOnce(&solo, transformed, nullptr);
  GradientBoostingParams gb_params;
  gb_params.num_rounds = 5;
  GradientBoosting solo_gb(gb_params);
  const FitOutput expected_gb = FitOnce(&solo_gb, transformed, nullptr);

  constexpr int kFitsPerThread = 3;
  std::vector<std::vector<FitOutput>> outputs(2);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < outputs.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kFitsPerThread; ++i) {
        RandomForest forest{RandomForestParams{}};
        outputs[t].push_back(FitOnce(&forest, transformed, &cache));
        GradientBoosting gb(gb_params);
        outputs[t].push_back(FitOnce(&gb, transformed, &cache));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::vector<FitOutput>& per_thread : outputs) {
    ASSERT_EQ(per_thread.size(), 2u * kFitsPerThread);
    for (size_t i = 0; i < per_thread.size(); ++i) {
      EXPECT_TRUE(per_thread[i] == (i % 2 == 0 ? expected : expected_gb))
          << "fit " << i;
    }
  }
  const TransformCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.order_hits + stats.order_misses,
            2u * 2u * kFitsPerThread);
  EXPECT_GE(stats.order_misses, 1u);
  EXPECT_GT(stats.order_hits, 0u);
}

// --- Fitted-model memo ------------------------------------------------

/// A registry config whose model is cheap to fit. `with_chain` adds the
/// imputer and scaler, so the model sees a chain-cache transformed set;
/// without it the model fits on the train view itself.
PipelineConfig MemoConfig(bool with_chain) {
  PipelineConfig config;
  config.impute = with_chain;
  config.one_hot = false;
  config.scaler = with_chain ? "standard" : "none";
  config.model = "random_forest";
  config.params = {{"num_trees", 4.0}, {"max_depth", 4.0}};
  config.seed = 11;
  return config;
}

/// One pipeline fit and test-set scoring, with everything it charged.
struct MemoRun {
  Pipeline pipeline;
  Status fit_status;
  ProbaMatrix proba;
  double fit_clock = 0.0;
  double clock = 0.0;
  double joules = 0.0;
  double flops = 0.0;
};

MemoRun FitAndScore(const PipelineConfig& config, const Dataset& train,
                    const Dataset& test, TransformCache* cache) {
  EnergyModel model(MachineModel::Minimal());
  VirtualClock clock;
  ExecutionContext ctx(&clock, &model, 1);
  EnergyMeter meter(&model);
  meter.Start(0.0);
  ctx.SetMeter(&meter);
  if (cache != nullptr) ctx.SetTransformCache(cache);
  MemoRun run;
  auto pipeline = BuildPipeline(config);
  EXPECT_TRUE(pipeline.ok());
  run.pipeline = std::move(pipeline).value();
  run.fit_status = run.pipeline.Fit(train, &ctx);
  run.fit_clock = clock.Now();
  if (run.fit_status.ok()) {
    auto proba = run.pipeline.PredictProba(test, &ctx);
    EXPECT_TRUE(proba.ok());
    if (proba.ok()) run.proba = std::move(proba).value();
  }
  run.clock = clock.Now();
  run.joules = meter.Stop(clock.Now()).breakdown.TotalJoules();
  run.flops = ctx.counter()->total_flops();
  return run;
}

std::vector<size_t> Range(size_t begin, size_t end) {
  std::vector<size_t> rows;
  for (size_t r = begin; r < end; ++r) rows.push_back(r);
  return rows;
}

TEST(ModelMemoTest, HitAdoptsTheSameModelAndMatchesAnUncachedFit) {
  const Dataset base = TestData(160, 6, 3);
  const Dataset train = base.Subset(Range(0, 100));
  const Dataset test = base.Subset(Range(100, 160));
  for (bool with_chain : {true, false}) {
    SCOPED_TRACE(with_chain ? "with chain" : "without chain");
    const PipelineConfig config = MemoConfig(with_chain);
    TransformCache cache(64 * 1024 * 1024);
    const MemoRun cold = FitAndScore(config, train, test, &cache);
    const MemoRun warm = FitAndScore(config, train, test, &cache);
    const MemoRun uncached = FitAndScore(config, train, test, nullptr);
    ASSERT_TRUE(cold.fit_status.ok());
    ASSERT_TRUE(warm.fit_status.ok());
    ASSERT_TRUE(uncached.fit_status.ok());

    const TransformCacheStats stats = cache.Stats();
    EXPECT_EQ(stats.model_misses, 1u);
    EXPECT_EQ(stats.model_hits, 1u);
    EXPECT_EQ(stats.model_evictions, 0u);
    EXPECT_GT(stats.model_bytes, 0u);
    EXPECT_LE(stats.model_bytes, cache.model_max_bytes());
    EXPECT_EQ(warm.pipeline.model(), cold.pipeline.model());
    EXPECT_NE(uncached.pipeline.model(), cold.pipeline.model());

    // The replayed tape charges exactly what the refit would have.
    EXPECT_EQ(warm.fit_clock, uncached.fit_clock);
    EXPECT_EQ(warm.clock, uncached.clock);
    EXPECT_EQ(warm.joules, uncached.joules);
    EXPECT_EQ(warm.flops, uncached.flops);
    EXPECT_EQ(cold.clock, uncached.clock);
    EXPECT_EQ(warm.proba, uncached.proba);
    EXPECT_EQ(cold.proba, uncached.proba);
  }
}

TEST(ModelMemoTest, EveryConfigDifferenceMisses) {
  const Dataset base = TestData(120, 5, 2);
  const Dataset train = base.Subset(Range(0, 80));
  const Dataset test = base.Subset(Range(80, 120));
  const PipelineConfig config = MemoConfig(/*with_chain=*/false);
  PipelineConfig other_seed = config;
  other_seed.seed += 1;
  PipelineConfig one_ulp = config;
  one_ulp.params["max_depth"] =
      std::nextafter(4.0, std::numeric_limits<double>::infinity());
  PipelineConfig other_model = config;
  other_model.model = "extra_trees";
  PipelineConfig extra_param = config;
  extra_param.params["min_samples_leaf"] = 2.0;  // The default, spelled out.

  TransformCache cache(64 * 1024 * 1024);
  const MemoRun first = FitAndScore(config, train, test, &cache);
  uint64_t misses = 1;
  for (const PipelineConfig* variant :
       {&other_seed, &one_ulp, &other_model, &extra_param}) {
    const MemoRun run = FitAndScore(*variant, train, test, &cache);
    EXPECT_NE(run.pipeline.model(), first.pipeline.model())
        << variant->Describe();
    EXPECT_EQ(cache.Stats().model_misses, ++misses) << variant->Describe();
  }
  EXPECT_EQ(cache.Stats().model_hits, 0u);
  EXPECT_EQ(FitAndScore(config, train, test, &cache).pipeline.model(),
            first.pipeline.model());
  EXPECT_EQ(cache.Stats().model_hits, 1u);
}

TEST(ModelMemoTest, EveryInputDifferenceMisses) {
  const Dataset base = TestData(60, 5, 2);
  const Dataset view_a = base.Subset(Range(0, 40));
  const Dataset view_b = base.Subset(Range(1, 41));
  const Dataset twin = TestData(60, 5, 2).Subset(Range(0, 40));
  const Dataset narrow =
      view_a.SelectFeatures({0, 1, 2}, view_a.schema()->Select({0, 1, 2}));
  const Dataset identity_view = base.Subset(Range(0, base.num_rows()));
  const Dataset nominal = [&] {  // Same storage and view, larger task.
    Dataset copy = view_a;
    copy.SetNominalSize(4000, 5);
    return copy;
  }();
  // The public Dataset API gives a task or class-count change new
  // storage, so these also differ in storage; the key covers them anyway.
  const Dataset multiclass = TestData(60, 5, 3).Subset(Range(0, 40));
  SyntheticRegressionSpec spec;
  spec.num_rows = 60;
  spec.num_features = 5;
  spec.seed = 7;
  auto generated = GenerateSyntheticRegression(spec);
  ASSERT_TRUE(generated.ok());
  const Dataset regression = generated.value().Subset(Range(0, 40));

  TransformCache cache(64 * 1024 * 1024);
  const auto entry =
      cache.InsertModel(view_a, "sig", std::make_shared<DecisionTree>(
                                           DecisionTreeParams{}),
                        ChargeTape{});
  ASSERT_NE(entry, nullptr);
  for (const Dataset* other : {&view_b, &twin, &narrow, &identity_view,
                               &nominal, &multiclass, &regression}) {
    EXPECT_EQ(cache.LookupModel(*other, "sig"), nullptr);
  }
  EXPECT_EQ(cache.LookupModel(view_a, "other sig"), nullptr);
  EXPECT_EQ(cache.Stats().model_misses, 8u);
  // An equal row view of the same storage, with equal labels, hits.
  EXPECT_EQ(cache.LookupModel(base.Subset(Range(0, 40)), "sig"), entry);
  EXPECT_EQ(cache.Stats().model_hits, 1u);
}

TEST(ModelMemoTest, HandBuiltPipelineIsNeverMemoized) {
  const Dataset train = TestData(80, 5, 2);
  EnergyModel model(MachineModel::Minimal());
  TransformCache cache(64 * 1024 * 1024);
  for (int i = 0; i < 2; ++i) {
    VirtualClock clock;
    ExecutionContext ctx(&clock, &model, 1);
    ctx.SetTransformCache(&cache);
    Pipeline p = MakePipeline();  // SetModel without a signature.
    ASSERT_TRUE(p.Fit(train, &ctx).ok());
  }
  const TransformCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.hits, 1u);  // The chain is still shared.
  EXPECT_EQ(stats.model_hits + stats.model_misses, 0u);
  EXPECT_EQ(stats.model_bytes, 0u);
}

/// An estimator whose only property is its size proxy.
class SizedEstimator : public Estimator {
 public:
  explicit SizedEstimator(double complexity) : complexity_(complexity) {}
  Status Fit(const Dataset&, ExecutionContext*) override {
    return Status::Ok();
  }
  Result<ProbaMatrix> PredictProba(const Dataset&,
                                   ExecutionContext*) const override {
    return ProbaMatrix();
  }
  std::string Name() const override { return "sized"; }
  double InferenceFlopsPerRow(size_t) const override { return 0.0; }
  double ComplexityProxy() const override { return complexity_; }

 private:
  double complexity_;
};

TEST(ModelMemoTest, LruStaysWithinItsBudgetAndEvicts) {
  // Memo budget: 8 MiB / 32 = 256 KiB; each entry is ~64 KB.
  TransformCache cache(8 * 1024 * 1024);
  ASSERT_EQ(cache.model_max_bytes(), 256u * 1024u);
  const Dataset data = TestData(50, 4, 2);
  for (int i = 0; i < 6; ++i) {
    EXPECT_NE(cache.InsertModel(data, "m" + std::to_string(i),
                                std::make_shared<SizedEstimator>(1000.0),
                                ChargeTape{}),
              nullptr);
    EXPECT_LE(cache.Stats().model_bytes, cache.model_max_bytes());
  }
  TransformCacheStats stats = cache.Stats();
  EXPECT_GT(stats.model_evictions, 0u);
  EXPECT_GE(stats.model_bytes, 3u * 64000u);
  // The most recent entry survived; the oldest was evicted.
  EXPECT_NE(cache.LookupModel(data, "m5"), nullptr);
  EXPECT_EQ(cache.LookupModel(data, "m0"), nullptr);
  // The memo stays out of the chain entries' counters and bytes.
  EXPECT_EQ(stats.entries + stats.bytes + stats.insertions, 0u);

  // An entry larger than the whole memo, or of no finite size, is never
  // admitted and counts as an eviction.
  stats = cache.Stats();
  EXPECT_EQ(cache.InsertModel(data, "huge",
                              std::make_shared<SizedEstimator>(1e6),
                              ChargeTape{}),
            nullptr);
  EXPECT_EQ(cache.InsertModel(
                data, "nan",
                std::make_shared<SizedEstimator>(
                    std::numeric_limits<double>::quiet_NaN()),
                ChargeTape{}),
            nullptr);
  EXPECT_EQ(cache.Stats().model_evictions, stats.model_evictions + 2);
  EXPECT_EQ(cache.Stats().model_bytes, stats.model_bytes);
  EXPECT_EQ(cache.LookupModel(data, "huge"), nullptr);
}

TEST(ModelMemoTest, TruncatedFitThatReturnsOkIsNotInserted) {
  // knn's fit is one charge and polls nothing: a truncated fit still
  // returns Ok, so only the truncation check keeps it out of the memo.
  const Dataset train = TestData(120, 6, 2);
  PipelineConfig config = MemoConfig(/*with_chain=*/false);
  config.model = "knn";
  config.params.clear();
  auto built = BuildPipeline(config);
  ASSERT_TRUE(built.ok());
  Pipeline p = std::move(built).value();
  EnergyModel model(MachineModel::Minimal());
  TransformCache cache(64 * 1024 * 1024);
  VirtualClock clock;
  ExecutionContext ctx(&clock, &model, 1);
  ctx.SetTransformCache(&cache);
  CancelToken cancelled;
  cancelled.Cancel();
  ctx.SetMaxSliceSeconds(1e-12);
  ctx.SetCancelToken(&cancelled);
  EXPECT_TRUE(p.Fit(train, &ctx).ok());
  EXPECT_TRUE(ctx.charge_truncated());
  EXPECT_EQ(cache.Stats().model_misses, 1u);
  EXPECT_EQ(cache.Stats().model_bytes, 0u);

  // A complete fit of the same config misses, then is memoized.
  VirtualClock clean_clock;
  ExecutionContext clean(&clean_clock, &model, 1);
  clean.SetTransformCache(&cache);
  Pipeline again = std::move(BuildPipeline(config)).value();
  ASSERT_TRUE(again.Fit(train, &clean).ok());
  EXPECT_EQ(cache.Stats().model_hits, 0u);
  EXPECT_EQ(cache.Stats().model_misses, 2u);
  EXPECT_GT(cache.Stats().model_bytes, 0u);
}

TEST(ModelMemoTest, CancelledFitIsNotInsertedAndCancelledHitFails) {
  const Dataset base = TestData(160, 6, 2);
  const Dataset train = base.Subset(Range(0, 120));
  const PipelineConfig config = MemoConfig(/*with_chain=*/false);
  EnergyModel model(MachineModel::Minimal());
  TransformCache cache(64 * 1024 * 1024);
  CancelToken cancelled;
  cancelled.Cancel();
  auto fit = [&](bool cancel, Pipeline* p) {
    VirtualClock clock;
    ExecutionContext ctx(&clock, &model, 1);
    ctx.SetTransformCache(&cache);
    if (cancel) {
      // Every charge spans many slices, so the first one truncates.
      ctx.SetMaxSliceSeconds(1e-12);
      ctx.SetCancelToken(&cancelled);
    }
    auto built = BuildPipeline(config);
    EXPECT_TRUE(built.ok());
    *p = std::move(built).value();
    return p->Fit(train, &ctx);
  };

  Pipeline truncated;
  EXPECT_EQ(fit(true, &truncated).code(), Status::Code::kDeadlineExceeded);
  EXPECT_FALSE(truncated.fitted());
  EXPECT_EQ(cache.Stats().model_misses, 1u);
  EXPECT_EQ(cache.Stats().model_bytes, 0u);

  Pipeline complete;
  ASSERT_TRUE(fit(false, &complete).ok());
  EXPECT_EQ(cache.Stats().model_misses, 2u);
  EXPECT_GT(cache.Stats().model_bytes, 0u);

  Pipeline replayed;
  EXPECT_EQ(fit(true, &replayed).code(), Status::Code::kDeadlineExceeded);
  EXPECT_EQ(cache.Stats().model_hits, 1u);
  EXPECT_FALSE(replayed.fitted());
  EXPECT_NE(replayed.model(), complete.model());  // Nothing adopted.
}

TEST(ModelMemoTest, MemoAdoptedPipelineRefusesRefit) {
  const Dataset train = TestData(80, 5, 2);
  const Dataset test = TestData(20, 5, 2, /*seed=*/8);
  TransformCache cache(64 * 1024 * 1024);
  const PipelineConfig config = MemoConfig(/*with_chain=*/false);
  MemoRun donor = FitAndScore(config, train, test, &cache);
  MemoRun adopter = FitAndScore(config, train, test, &cache);
  ASSERT_EQ(adopter.pipeline.model(), donor.pipeline.model());

  EnergyModel model(MachineModel::Minimal());
  VirtualClock clock;
  ExecutionContext ctx(&clock, &model, 1);
  // Both share the memoized model now, even without a cache on the
  // context: a refit would mutate it under the other's feet.
  for (Pipeline* p : {&donor.pipeline, &adopter.pipeline}) {
    EXPECT_EQ(p->Fit(train, &ctx).code(),
              Status::Code::kFailedPrecondition);
  }
  EXPECT_EQ(clock.Now(), 0.0);
}

// --- Config signatures -----------------------------------------------

TEST(ConfigSignatureTest, HyperparametersAreEncoded) {
  EXPECT_NE(QuantileBinner(4).ConfigSignature(),
            QuantileBinner(8).ConfigSignature());
  EXPECT_NE(SelectKBest(2).ConfigSignature(),
            SelectKBest(3).ConfigSignature());
  EXPECT_NE(VarianceThreshold(0.0).ConfigSignature(),
            VarianceThreshold(0.5).ConfigSignature());
  EXPECT_NE(Pca(2).ConfigSignature(), Pca(3).ConfigSignature());
  EXPECT_NE(OneHotEncoder(8).ConfigSignature(),
            OneHotEncoder(16).ConfigSignature());
  EXPECT_NE(Scaler(ScalerKind::kStandard).ConfigSignature(),
            Scaler(ScalerKind::kMinMax).ConfigSignature());
  EXPECT_EQ(Pca(2).ConfigSignature(), Pca(2).ConfigSignature());
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

TEST(TransformCacheSweepTest, RecordsAndScopesIdenticalCacheOnOff) {
  ExperimentConfig on = SmallSweepConfig();
  on.transform_cache = true;
  ExperimentConfig off = SmallSweepConfig();
  off.transform_cache = false;

  ExperimentRunner runner_on(on), runner_off(off);
  auto records_on = runner_on.Sweep({"caml", "flaml"}, {10.0});
  auto records_off = runner_off.Sweep({"caml", "flaml"}, {10.0});
  ASSERT_TRUE(records_on.ok());
  ASSERT_TRUE(records_off.ok());
  EXPECT_EQ(SerializeAll(records_on.value()),
            SerializeAll(records_off.value()));

  const TransformCacheStats stats = runner_on.transform_cache_stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_EQ(runner_off.transform_cache_stats().hits, 0u);
}

TEST(TransformCacheSweepTest, RecordsIdenticalAcrossWorkerCounts) {
  ExperimentConfig seq = SmallSweepConfig();
  seq.jobs = 1;
  ExperimentConfig par = SmallSweepConfig();
  par.jobs = 4;

  ExperimentRunner runner_seq(seq), runner_par(par);
  auto records_seq = runner_seq.Sweep({"caml", "flaml"}, {10.0});
  auto records_par = runner_par.Sweep({"caml", "flaml"}, {10.0});
  ASSERT_TRUE(records_seq.ok());
  ASSERT_TRUE(records_par.ok());
  EXPECT_EQ(SerializeAll(records_seq.value()),
            SerializeAll(records_par.value()));
}

TEST(ModelMemoTest, SweepRecordsIdenticalCacheOnOffAndAcrossJobs) {
  // The same cells at two budgets: the larger budget's search replays
  // the smaller one's, so its model fits hit the memo.
  const std::vector<std::string> systems = {"caml", "flaml"};
  const std::vector<double> budgets = {10.0, 30.0};
  std::string reference;
  for (int jobs : {1, 2}) {
    for (bool cached : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "jobs " << jobs << ", cache " << cached);
      ExperimentConfig config = SmallSweepConfig();
      config.jobs = jobs;
      config.transform_cache = cached;
      ExperimentRunner runner(config);
      auto records = runner.Sweep(systems, budgets);
      ASSERT_TRUE(records.ok());
      const std::string serialized = SerializeAll(records.value());
      if (reference.empty()) reference = serialized;
      EXPECT_EQ(serialized, reference);
      const TransformCacheStats stats = runner.transform_cache_stats();
      if (cached) {
        EXPECT_GT(stats.model_hits, 0u);
      } else {
        EXPECT_EQ(stats.model_hits + stats.model_misses, 0u);
      }
    }
  }
}

TEST(TransformCacheSweepTest, EnvKnobsParse) {
  // Whatever the environment, the budget is at least 1 MB.
  EXPECT_GE(ExperimentConfig::FromEnv().transform_cache_mb, 1.0);
  {
    EnvGuard mb("GREEN_TRANSFORM_CACHE_MB", "0.5");
    EXPECT_EQ(ExperimentConfig::FromEnv().transform_cache_mb, 1.0);
    mb.Set("1e300");
    EXPECT_EQ(ExperimentConfig::FromEnv().transform_cache_mb, 65536.0);
    mb.Set("nan");  // Malformed: the default stays.
    EXPECT_EQ(ExperimentConfig::FromEnv().transform_cache_mb, 256.0);
  }
  EnvGuard cache("GREEN_TRANSFORM_CACHE", "0");
  EXPECT_FALSE(ExperimentConfig::FromEnv().transform_cache);
  cache.Set("1");
  EXPECT_TRUE(ExperimentConfig::FromEnv().transform_cache);
  cache.Set("off");  // Malformed: the default (on) stays.
  EXPECT_TRUE(ExperimentConfig::FromEnv().transform_cache);
}

}  // namespace
}  // namespace green
