#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "green/common/rng.h"
#include "green/common/stringutil.h"
#include "green/ml/preprocess/feature_selection.h"
#include "green/ml/preprocess/imputer.h"
#include "green/ml/preprocess/one_hot.h"
#include "green/ml/preprocess/scaler.h"

namespace green {
namespace {

class PreprocessTest : public ::testing::Test {
 protected:
  PreprocessTest()
      : model_(MachineModel::Minimal()), ctx_(&clock_, &model_, 1) {}

  VirtualClock clock_;
  EnergyModel model_;
  ExecutionContext ctx_;
};

Dataset WithMissing() {
  Dataset data("m", 2, 2);
  data.SetFeatureType(1, FeatureType::kCategorical);
  EXPECT_TRUE(data.AppendRow({1.0, 0.0}, 0).ok());
  EXPECT_TRUE(data.AppendRow({NAN, 1.0}, 1).ok());
  EXPECT_TRUE(data.AppendRow({3.0, NAN}, 0).ok());
  EXPECT_TRUE(data.AppendRow({5.0, 1.0}, 1).ok());
  return data;
}

// --- Imputer ---

TEST_F(PreprocessTest, ImputerFillsMeanAndMode) {
  MeanModeImputer imputer;
  const Dataset data = WithMissing();
  ASSERT_TRUE(imputer.Fit(data, &ctx_).ok());
  auto out = imputer.Transform(data, &ctx_);
  ASSERT_TRUE(out.ok());
  EXPECT_NEAR(out->At(1, 0), 3.0, 1e-12);  // Mean of {1,3,5}.
  EXPECT_DOUBLE_EQ(out->At(2, 1), 1.0);    // Mode of {0,1,1}.
  for (size_t r = 0; r < out->num_rows(); ++r) {
    for (size_t j = 0; j < out->num_features(); ++j) {
      EXPECT_FALSE(std::isnan(out->At(r, j)));
    }
  }
}

TEST_F(PreprocessTest, ImputerErrors) {
  MeanModeImputer imputer;
  const Dataset data = WithMissing();
  EXPECT_FALSE(imputer.Transform(data, &ctx_).ok());  // Not fitted.
  ASSERT_TRUE(imputer.Fit(data, &ctx_).ok());
  Dataset wrong("w", 3, 2);
  ASSERT_TRUE(wrong.AppendRow({1, 2, 3}, 0).ok());
  EXPECT_FALSE(imputer.Transform(wrong, &ctx_).ok());
  Dataset empty("e", 2, 2);
  EXPECT_FALSE(imputer.Fit(empty, &ctx_).ok());
}

TEST_F(PreprocessTest, ImputerChargesWork) {
  MeanModeImputer imputer;
  const Dataset data = WithMissing();
  const double before = ctx_.counter()->total_flops();
  ASSERT_TRUE(imputer.Fit(data, &ctx_).ok());
  EXPECT_GT(ctx_.counter()->total_flops(), before);
}

// --- Scaler ---

TEST_F(PreprocessTest, StandardScalerNormalizes) {
  Dataset data("s", 1, 2);
  for (double v : {2.0, 4.0, 6.0, 8.0}) {
    ASSERT_TRUE(data.AppendRow({v}, 0).ok());
  }
  Scaler scaler(ScalerKind::kStandard);
  ASSERT_TRUE(scaler.Fit(data, &ctx_).ok());
  auto out = scaler.Transform(data, &ctx_);
  ASSERT_TRUE(out.ok());
  double mean = 0.0;
  for (size_t r = 0; r < 4; ++r) mean += out->At(r, 0);
  EXPECT_NEAR(mean / 4.0, 0.0, 1e-12);
  double var = 0.0;
  for (size_t r = 0; r < 4; ++r) var += out->At(r, 0) * out->At(r, 0);
  EXPECT_NEAR(var / 4.0, 1.0, 1e-12);
}

TEST_F(PreprocessTest, MinMaxScalerToUnitRange) {
  Dataset data("s", 1, 2);
  for (double v : {-10.0, 0.0, 30.0}) {
    ASSERT_TRUE(data.AppendRow({v}, 0).ok());
  }
  Scaler scaler(ScalerKind::kMinMax);
  ASSERT_TRUE(scaler.Fit(data, &ctx_).ok());
  auto out = scaler.Transform(data, &ctx_);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out->At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(out->At(2, 0), 1.0);
  EXPECT_NEAR(out->At(1, 0), 0.25, 1e-12);
}

TEST_F(PreprocessTest, ScalerSkipsCategorical) {
  Dataset data("s", 2, 2);
  data.SetFeatureType(1, FeatureType::kCategorical);
  ASSERT_TRUE(data.AppendRow({10.0, 3.0}, 0).ok());
  ASSERT_TRUE(data.AppendRow({20.0, 5.0}, 1).ok());
  Scaler scaler(ScalerKind::kStandard);
  ASSERT_TRUE(scaler.Fit(data, &ctx_).ok());
  auto out = scaler.Transform(data, &ctx_);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out->At(0, 1), 3.0);  // Untouched.
  EXPECT_DOUBLE_EQ(out->At(1, 1), 5.0);
}

TEST_F(PreprocessTest, ScalerConstantColumnSafe) {
  Dataset data("s", 1, 2);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(data.AppendRow({7.0}, 0).ok());
  Scaler scaler(ScalerKind::kStandard);
  ASSERT_TRUE(scaler.Fit(data, &ctx_).ok());
  auto out = scaler.Transform(data, &ctx_);
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(std::isnan(out->At(0, 0)));
  EXPECT_FALSE(std::isinf(out->At(0, 0)));
}

// --- OneHot ---

TEST_F(PreprocessTest, OneHotExpandsCategoricals) {
  Dataset data("o", 2, 2);
  data.SetFeatureType(1, FeatureType::kCategorical);
  ASSERT_TRUE(data.AppendRow({1.5, 0.0}, 0).ok());
  ASSERT_TRUE(data.AppendRow({2.5, 2.0}, 1).ok());
  ASSERT_TRUE(data.AppendRow({3.5, 1.0}, 0).ok());
  OneHotEncoder encoder;
  ASSERT_TRUE(encoder.Fit(data, &ctx_).ok());
  EXPECT_EQ(encoder.output_width(), 1u + 3u);
  auto out = encoder.Transform(data, &ctx_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_features(), 4u);
  EXPECT_DOUBLE_EQ(out->At(0, 0), 1.5);  // Numeric pass-through.
  EXPECT_DOUBLE_EQ(out->At(0, 1), 1.0);  // Code 0 indicator.
  EXPECT_DOUBLE_EQ(out->At(1, 3), 1.0);  // Code 2 indicator.
  EXPECT_DOUBLE_EQ(out->At(1, 1), 0.0);
}

TEST_F(PreprocessTest, OneHotUnseenCategoryAllZeros) {
  Dataset train("o", 1, 2);
  train.SetFeatureType(0, FeatureType::kCategorical);
  ASSERT_TRUE(train.AppendRow({0.0}, 0).ok());
  ASSERT_TRUE(train.AppendRow({1.0}, 1).ok());
  OneHotEncoder encoder;
  ASSERT_TRUE(encoder.Fit(train, &ctx_).ok());
  Dataset test("o", 1, 2);
  test.SetFeatureType(0, FeatureType::kCategorical);
  ASSERT_TRUE(test.AppendRow({5.0}, 0).ok());  // Unseen code.
  auto out = encoder.Transform(test, &ctx_);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out->At(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(out->At(0, 1), 0.0);
}

TEST_F(PreprocessTest, OneHotHighCardinalityGuard) {
  Dataset data("o", 1, 2);
  data.SetFeatureType(0, FeatureType::kCategorical);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(data.AppendRow({static_cast<double>(i)}, i % 2).ok());
  }
  OneHotEncoder encoder(/*max_cardinality=*/32);
  ASSERT_TRUE(encoder.Fit(data, &ctx_).ok());
  // 100 categories exceed the guard: passed through as a single column.
  EXPECT_EQ(encoder.output_width(), 1u);
}

TEST_F(PreprocessTest, OneHotOutputWidthHelper) {
  OneHotEncoder encoder;
  EXPECT_EQ(encoder.OutputWidth(7), 7u);  // Before fit: identity.
}

TEST_F(PreprocessTest, OneHotOutputNamesOnFittedAndOtherSchemas) {
  Dataset train("o", 2, 2);
  train.SetFeatureType(1, FeatureType::kCategorical);
  ASSERT_TRUE(train.AppendRow({1.5, 0.0}, 0).ok());
  ASSERT_TRUE(train.AppendRow({2.5, 1.0}, 1).ok());
  OneHotEncoder encoder;
  ASSERT_TRUE(encoder.Fit(train, &ctx_).ok());
  const std::vector<std::string> fitted_names = {"f0", "f1=0", "f1=1"};

  // Fitted-schema path: a view of the fit input, and a fresh dataset
  // with equal columns, share one output schema.
  auto a = encoder.Transform(train.Subset({1}), &ctx_);
  Dataset same("o", 2, 2);
  same.SetFeatureType(1, FeatureType::kCategorical);
  ASSERT_TRUE(same.AppendRow({3.5, 1.0}, 0).ok());
  auto b = encoder.Transform(same, &ctx_);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->schema()->names, fitted_names);
  EXPECT_EQ(a->schema(), b->schema());
  EXPECT_EQ(b->feature_type(2), FeatureType::kNumeric);

  // A differently named input gets its own names, and the fitted
  // schema is left as it was.
  Dataset named = same;
  named.SetFeatureName(0, "size");
  named.SetFeatureName(1, "colour");
  auto c = encoder.Transform(named, &ctx_);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->schema()->names,
            (std::vector<std::string>{"size", "colour=0", "colour=1"}));
  EXPECT_DOUBLE_EQ(c->At(0, 2), 1.0);
  auto again = encoder.Transform(train, &ctx_);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->schema()->names, fitted_names);
}

// Codes past the int range or non-finite are undefined behaviour to cast;
// the encoder treats them as high-cardinality (fit) or unseen (transform).
TEST_F(PreprocessTest, OneHotHostileCodes) {
  const double inf = std::numeric_limits<double>::infinity();
  for (double hostile : {2147483647.0, 1e300, inf}) {
    Dataset data("o", 1, 2);
    data.SetFeatureType(0, FeatureType::kCategorical);
    ASSERT_TRUE(data.AppendRow({0.0}, 0).ok());
    ASSERT_TRUE(data.AppendRow({1.0}, 1).ok());
    ASSERT_TRUE(data.AppendRow({hostile}, 0).ok());
    OneHotEncoder encoder;
    ASSERT_TRUE(encoder.Fit(data, &ctx_).ok());
    EXPECT_EQ(encoder.output_width(), 1u) << hostile;  // Passed through.
  }
  Dataset train("o", 1, 2);
  train.SetFeatureType(0, FeatureType::kCategorical);
  ASSERT_TRUE(train.AppendRow({0.0}, 0).ok());
  ASSERT_TRUE(train.AppendRow({1.0}, 1).ok());
  ASSERT_TRUE(train.AppendRow({-inf}, 1).ok());  // Negative: unseen.
  OneHotEncoder encoder;
  ASSERT_TRUE(encoder.Fit(train, &ctx_).ok());
  ASSERT_EQ(encoder.output_width(), 2u);
  Dataset test("o", 1, 2);
  test.SetFeatureType(0, FeatureType::kCategorical);
  for (double hostile : {2147483647.0, 1e300, inf, -inf, -5.0}) {
    ASSERT_TRUE(test.AppendRow({hostile}, 0).ok());
  }
  auto out = encoder.Transform(test, &ctx_);
  ASSERT_TRUE(out.ok());
  for (size_t r = 0; r < out->num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(out->At(r, 0), 0.0);
    EXPECT_DOUBLE_EQ(out->At(r, 1), 0.0);
  }
}

TEST_F(PreprocessTest, ImputerIgnoresHostileCodes) {
  const double inf = std::numeric_limits<double>::infinity();
  Dataset data("m", 1, 2);
  data.SetFeatureType(0, FeatureType::kCategorical);
  for (double v : std::vector<double>{2147483647.0, 2147483647.0, 1e300,
                                      1e300, inf, inf, -inf, 3.0, NAN}) {
    ASSERT_TRUE(data.AppendRow({v}, 0).ok());
  }
  MeanModeImputer imputer;
  ASSERT_TRUE(imputer.Fit(data, &ctx_).ok());
  auto out = imputer.Transform(data, &ctx_);
  ASSERT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out->At(8, 0), 3.0);  // The only in-range code.
}

// One fitted imputer -> scaler -> one_hot chain transforms batches on two
// threads while two more construct datasets of the same widths (sharing
// the per-thread default schemas); every output must match the
// single-threaded reference bit for bit.
TEST_F(PreprocessTest, SharedChainTransformsConcurrently) {
  Dataset train("c", 3, 2);
  train.SetFeatureType(2, FeatureType::kCategorical);
  Rng rng(7);
  for (int i = 0; i < 64; ++i) {
    const double x = i % 9 == 0 ? NAN : rng.NextGaussian();
    ASSERT_TRUE(train
                    .AppendRow({x, rng.NextGaussian(),
                                static_cast<double>(i % 4)},
                               i % 2)
                    .ok());
  }
  MeanModeImputer imputer;
  Scaler scaler(ScalerKind::kStandard);
  OneHotEncoder encoder;
  Dataset fitted = train;
  ASSERT_TRUE(imputer.Fit(fitted, &ctx_).ok());
  fitted = *imputer.Transform(fitted, &ctx_);
  ASSERT_TRUE(scaler.Fit(fitted, &ctx_).ok());
  fitted = *scaler.Transform(fitted, &ctx_);
  ASSERT_TRUE(encoder.Fit(fitted, &ctx_).ok());

  auto run = [&](const Dataset& batch, ExecutionContext* ctx) {
    Dataset d = *imputer.Transform(batch, ctx);
    d = *scaler.Transform(d, ctx);
    return *encoder.Transform(d, ctx);
  };
  std::vector<Dataset> batches;
  for (size_t start = 0; start + 8 <= train.num_rows(); start += 8) {
    batches.push_back(train.Subset({start}));
    std::vector<size_t> rows(8);
    for (size_t r = 0; r < 8; ++r) rows[r] = start + r;
    batches.push_back(train.Subset(rows));
  }
  std::vector<Dataset> expected;
  for (const Dataset& batch : batches) expected.push_back(run(batch, &ctx_));

  constexpr int kRounds = 50;
  std::vector<int> mismatches(2, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      VirtualClock clock;
      ExecutionContext ctx(&clock, &model_, 1);
      for (int round = 0; round < kRounds; ++round) {
        for (size_t b = 0; b < batches.size(); ++b) {
          const Dataset out = run(batches[b], &ctx);
          const Dataset& want = expected[b];
          const size_t cells = want.num_rows() * want.num_features();
          if (out.num_features() != want.num_features() ||
              out.num_rows() != want.num_rows() ||
              std::memcmp(out.RowPtr(0), want.RowPtr(0),
                          cells * sizeof(double)) != 0 ||
              out.schema()->names != want.schema()->names) {
            ++mismatches[static_cast<size_t>(t)];
          }
        }
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([] {
      for (int round = 0; round < kRounds * 8; ++round) {
        for (size_t width : {3u, 6u}) {
          Dataset d("noise", width, 2);
          if (d.feature_name(width - 1) != StrFormat("f%zu", width - 1)) {
            ADD_FAILURE() << "default schema corrupted";
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches, std::vector<int>(2, 0));
}

// --- VarianceThreshold ---

TEST_F(PreprocessTest, VarianceThresholdDropsConstant) {
  Dataset data("v", 3, 2);
  ASSERT_TRUE(data.AppendRow({1.0, 5.0, 0.0}, 0).ok());
  ASSERT_TRUE(data.AppendRow({2.0, 5.0, 0.0}, 1).ok());
  ASSERT_TRUE(data.AppendRow({3.0, 5.0, 0.0}, 0).ok());
  VarianceThreshold selector(0.0);
  ASSERT_TRUE(selector.Fit(data, &ctx_).ok());
  EXPECT_EQ(selector.kept_columns(), std::vector<size_t>{0});
  auto out = selector.Transform(data, &ctx_);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->num_features(), 1u);
}

TEST_F(PreprocessTest, VarianceThresholdKeepsAtLeastOne) {
  Dataset data("v", 2, 2);
  ASSERT_TRUE(data.AppendRow({5.0, 5.0}, 0).ok());
  ASSERT_TRUE(data.AppendRow({5.0, 5.0}, 1).ok());
  VarianceThreshold selector(0.0);
  ASSERT_TRUE(selector.Fit(data, &ctx_).ok());
  EXPECT_EQ(selector.kept_columns().size(), 1u);
}

// --- SelectKBest ---

TEST_F(PreprocessTest, SelectKBestPrefersInformative) {
  // Column 0 separates classes; column 1 is noise.
  Dataset data("k", 2, 2);
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const int y = i % 2;
    ASSERT_TRUE(
        data.AppendRow({y == 0 ? -2.0 + rng.NextGaussian() * 0.1
                               : 2.0 + rng.NextGaussian() * 0.1,
                        rng.NextGaussian()},
                       y)
            .ok());
  }
  SelectKBest selector(1);
  ASSERT_TRUE(selector.Fit(data, &ctx_).ok());
  EXPECT_EQ(selector.kept_columns(), std::vector<size_t>{0});
}

TEST_F(PreprocessTest, SelectKBestCapsAtWidth) {
  Dataset data("k", 2, 2);
  ASSERT_TRUE(data.AppendRow({1.0, 2.0}, 0).ok());
  ASSERT_TRUE(data.AppendRow({2.0, 1.0}, 1).ok());
  SelectKBest selector(10);
  ASSERT_TRUE(selector.Fit(data, &ctx_).ok());
  EXPECT_EQ(selector.kept_columns().size(), 2u);
  EXPECT_EQ(selector.OutputWidth(2), 2u);
}

TEST_F(PreprocessTest, SelectorsKeepColumnNames) {
  Dataset data("v", 3, 2);
  data.SetFeatureType(2, FeatureType::kCategorical);
  ASSERT_TRUE(data.AppendRow({1.0, 5.0, 0.0}, 0).ok());
  ASSERT_TRUE(data.AppendRow({2.0, 5.0, 1.0}, 1).ok());
  VarianceThreshold selector(0.0);
  ASSERT_TRUE(selector.Fit(data, &ctx_).ok());
  auto fitted = selector.Transform(data.Subset({1, 0}), &ctx_);
  ASSERT_TRUE(fitted.ok());
  EXPECT_EQ(fitted->schema()->names,
            (std::vector<std::string>{"f0", "f2"}));
  EXPECT_EQ(fitted->feature_type(1), FeatureType::kCategorical);
  EXPECT_DOUBLE_EQ(fitted->At(0, 1), 1.0);
  Dataset named = data;
  named.SetFeatureName(2, "colour");
  auto renamed = selector.Transform(named, &ctx_);
  ASSERT_TRUE(renamed.ok());
  EXPECT_EQ(renamed->feature_name(1), "colour");
  EXPECT_EQ(renamed->feature_type(1), FeatureType::kCategorical);
}

TEST_F(PreprocessTest, SelectorsRequireFit) {
  Dataset data = WithMissing();
  SelectKBest sk(1);
  VarianceThreshold vt(0.0);
  EXPECT_FALSE(sk.Transform(data, &ctx_).ok());
  EXPECT_FALSE(vt.Transform(data, &ctx_).ok());
}

}  // namespace
}  // namespace green
