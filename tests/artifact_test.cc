#include <gtest/gtest.h>

#include "green/automl/fitted_artifact.h"
#include "green/common/stringutil.h"
#include "green/data/synthetic.h"
#include "green/ml/metrics.h"
#include "green/ml/model_registry.h"
#include "green/table/split.h"

namespace green {
namespace {

class ArtifactTest : public ::testing::Test {
 protected:
  ArtifactTest()
      : model_(MachineModel::Minimal()), ctx_(&clock_, &model_, 1) {
    SyntheticSpec spec;
    spec.name = "task";
    spec.num_rows = 200;
    spec.num_features = 8;
    spec.num_informative = 8;
    spec.separation = 3.0;
    spec.seed = 6;
    auto data = GenerateSynthetic(spec);
    EXPECT_TRUE(data.ok());
    data_ = std::move(data).value();
  }

  std::shared_ptr<Pipeline> FitConfig(const std::string& model,
                                      uint64_t seed = 1) {
    PipelineConfig config;
    config.model = model;
    config.seed = seed;
    auto pipeline = BuildPipeline(config);
    EXPECT_TRUE(pipeline.ok());
    EXPECT_TRUE(pipeline->Fit(data_, &ctx_).ok());
    return std::make_shared<Pipeline>(std::move(pipeline).value());
  }

  VirtualClock clock_;
  EnergyModel model_;
  ExecutionContext ctx_;
  Dataset data_;
};

TEST_F(ArtifactTest, EmptyArtifactRejectsPredict) {
  FittedArtifact artifact;
  EXPECT_TRUE(artifact.empty());
  EXPECT_FALSE(artifact.PredictProba(data_, &ctx_).ok());
}

TEST_F(ArtifactTest, SingleMatchesUnderlyingPipeline) {
  auto pipeline = FitConfig("decision_tree");
  const FittedArtifact artifact = FittedArtifact::Single(pipeline);
  EXPECT_EQ(artifact.NumPipelines(), 1u);
  EXPECT_FALSE(artifact.stacked());
  auto artifact_preds = artifact.Predict(data_, &ctx_);
  auto pipeline_preds = pipeline->Predict(data_, &ctx_);
  ASSERT_TRUE(artifact_preds.ok() && pipeline_preds.ok());
  EXPECT_EQ(artifact_preds.value(), pipeline_preds.value());
}

TEST_F(ArtifactTest, WeightedBlendIsConvex) {
  FittedArtifact::Member a;
  a.folds.push_back(FitConfig("naive_bayes"));
  a.weight = 0.5;
  FittedArtifact::Member b;
  b.folds.push_back(FitConfig("logistic_regression"));
  b.weight = 0.5;
  const FittedArtifact artifact =
      FittedArtifact::Weighted({std::move(a), std::move(b)});
  auto proba = artifact.PredictProba(data_, &ctx_);
  ASSERT_TRUE(proba.ok());
  for (const auto& row : *proba) {
    double sum = 0.0;
    for (double p : row) {
      EXPECT_GE(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

TEST_F(ArtifactTest, ZeroWeightMemberIgnored) {
  FittedArtifact::Member a;
  a.folds.push_back(FitConfig("naive_bayes", 1));
  a.weight = 1.0;
  FittedArtifact::Member b;
  b.folds.push_back(FitConfig("decision_tree", 2));
  b.weight = 0.0;
  const FittedArtifact blended =
      FittedArtifact::Weighted({std::move(a), std::move(b)});
  FittedArtifact::Member only;
  only.folds.push_back(FitConfig("naive_bayes", 1));
  const FittedArtifact single =
      FittedArtifact::Weighted({std::move(only)});
  auto pa = blended.PredictProba(data_, &ctx_);
  auto pb = single.PredictProba(data_, &ctx_);
  ASSERT_TRUE(pa.ok() && pb.ok());
  for (size_t i = 0; i < pa->size(); ++i) {
    EXPECT_NEAR((*pa)[i][0], (*pb)[i][0], 1e-12);
  }
}

TEST_F(ArtifactTest, FoldAveragingUsesAllFolds) {
  FittedArtifact::Member member;
  member.folds.push_back(FitConfig("decision_tree", 1));
  member.folds.push_back(FitConfig("decision_tree", 2));
  member.folds.push_back(FitConfig("decision_tree", 3));
  const FittedArtifact artifact =
      FittedArtifact::Weighted({std::move(member)});
  EXPECT_EQ(artifact.NumPipelines(), 3u);
  auto proba = artifact.PredictProba(data_, &ctx_);
  ASSERT_TRUE(proba.ok());
}

TEST_F(ArtifactTest, StackedPredictsAndChargesMore) {
  std::vector<FittedArtifact::Member> base;
  for (const char* m : {"naive_bayes", "decision_tree"}) {
    FittedArtifact::Member member;
    member.folds.push_back(FitConfig(m));
    base.push_back(std::move(member));
  }
  // Meta layer trained on augmented features (raw + 2 members x 2
  // classes).
  Dataset augmented(data_.name(), data_.num_features() + 4,
                    data_.num_classes());
  {
    std::vector<double> row(augmented.num_features(), 0.25);
    for (size_t r = 0; r < data_.num_rows(); ++r) {
      for (size_t j = 0; j < data_.num_features(); ++j) {
        row[j] = data_.At(r, j);
      }
      ASSERT_TRUE(augmented.AppendRow(row, data_.Label(r)).ok());
    }
  }
  PipelineConfig meta_config;
  meta_config.model = "logistic_regression";
  auto meta_pipeline = BuildPipeline(meta_config);
  ASSERT_TRUE(meta_pipeline.ok());
  ASSERT_TRUE(meta_pipeline->Fit(augmented, &ctx_).ok());
  FittedArtifact::Member meta;
  meta.folds.push_back(
      std::make_shared<Pipeline>(std::move(meta_pipeline).value()));

  const FittedArtifact stacked =
      FittedArtifact::Stacked(std::move(base), {std::move(meta)});
  EXPECT_TRUE(stacked.stacked());
  EXPECT_EQ(stacked.NumPipelines(), 3u);

  const double before = ctx_.counter()->total_flops();
  auto proba = stacked.PredictProba(data_, &ctx_);
  ASSERT_TRUE(proba.ok());
  const double stack_work = ctx_.counter()->total_flops() - before;

  const FittedArtifact single = FittedArtifact::Single(
      FitConfig("naive_bayes"));
  const double before_single = ctx_.counter()->total_flops();
  ASSERT_TRUE(single.PredictProba(data_, &ctx_).ok());
  const double single_work =
      ctx_.counter()->total_flops() - before_single;
  // Observation O1 at artifact granularity: stacking costs strictly more
  // per prediction than a single model.
  EXPECT_GT(stack_work, 2.0 * single_work);

  // A zero-row batch predicts no rows, stacked or blended.
  for (const FittedArtifact* artifact : {&stacked, &single}) {
    auto none = artifact->PredictProba(data_.Subset({}), &ctx_);
    ASSERT_TRUE(none.ok()) << none.status().ToString();
    EXPECT_TRUE(none->empty());
  }
}

TEST_F(ArtifactTest, StackedInputKeepsColumnsAndAppendsProbabilities) {
  Dataset data = data_.Subset({0, 1});
  data.SetFeatureName(0, "size");
  data.SetFeatureType(1, FeatureType::kCategorical);
  const ProbaMatrix a = {{0.25, 0.75}, {1.0, 0.0}};
  const ProbaMatrix b = {{0.5, 0.5}, {0.0, 1.0}};
  auto stacked = StackProbabilities(data, {a, b}, 2, &ctx_);
  ASSERT_TRUE(stacked.ok());
  const size_t d = data.num_features();
  ASSERT_EQ(stacked->num_features(), d + 4);
  EXPECT_EQ(stacked->feature_name(0), "size");
  EXPECT_EQ(stacked->feature_type(1), FeatureType::kCategorical);
  EXPECT_EQ(stacked->feature_name(d), StrFormat("f%zu", d));
  EXPECT_EQ(stacked->feature_type(d + 3), FeatureType::kNumeric);
  EXPECT_DOUBLE_EQ(stacked->At(0, 0), data.At(0, 0));
  EXPECT_DOUBLE_EQ(stacked->At(0, d + 1), 0.75);
  EXPECT_DOUBLE_EQ(stacked->At(1, d + 3), 1.0);
  EXPECT_EQ(stacked->labels(), data.labels());
}

TEST_F(ArtifactTest, InferenceFlopsSumOverMembers) {
  auto p1 = FitConfig("decision_tree");
  auto p2 = FitConfig("random_forest");
  FittedArtifact::Member m1;
  m1.folds.push_back(p1);
  FittedArtifact::Member m2;
  m2.folds.push_back(p2);
  const FittedArtifact ensemble =
      FittedArtifact::Weighted({std::move(m1), std::move(m2)});
  const double sum = p1->InferenceFlopsPerRow(data_.num_features()) +
                     p2->InferenceFlopsPerRow(data_.num_features());
  EXPECT_NEAR(ensemble.InferenceFlopsPerRow(data_.num_features()), sum,
              1e-9);
}

TEST_F(ArtifactTest, DescribeMentionsMembers) {
  const FittedArtifact artifact =
      FittedArtifact::Single(FitConfig("naive_bayes"));
  EXPECT_NE(artifact.Describe().find("naive_bayes"), std::string::npos);
}

}  // namespace
}  // namespace green
