#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "green/common/stringutil.h"
#include "green/table/column.h"
#include "green/table/csv.h"
#include "green/table/dataset.h"
#include "green/table/metafeatures.h"
#include "green/table/split.h"

namespace green {
namespace {

Dataset TinyDataset() {
  Dataset data("tiny", 2, 2);
  data.SetFeatureType(1, FeatureType::kCategorical);
  EXPECT_TRUE(data.AppendRow({1.0, 0.0}, 0).ok());
  EXPECT_TRUE(data.AppendRow({2.0, 1.0}, 1).ok());
  EXPECT_TRUE(data.AppendRow({3.0, 0.0}, 0).ok());
  EXPECT_TRUE(data.AppendRow({4.0, 2.0}, 1).ok());
  return data;
}

/// Balanced k-class dataset with n rows and d features.
Dataset MakeDataset(size_t n, size_t d, int k, uint64_t seed = 1) {
  Dataset data("made", d, k);
  Rng rng(seed);
  std::vector<double> row(d);
  for (size_t i = 0; i < n; ++i) {
    for (double& v : row) v = rng.NextGaussian();
    EXPECT_TRUE(
        data.AppendRow(row, static_cast<int>(i % static_cast<size_t>(k)))
            .ok());
  }
  return data;
}

// --- Column ---

TEST(ColumnTest, BasicStats) {
  Column col("x", FeatureType::kNumeric);
  for (double v : std::vector<double>{1.0, 2.0, NAN, 4.0}) col.Append(v);
  EXPECT_EQ(col.size(), 4u);
  EXPECT_EQ(col.MissingCount(), 1u);
  EXPECT_NEAR(col.MeanIgnoringMissing(), 7.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(col.MinIgnoringMissing(), 1.0);
  EXPECT_DOUBLE_EQ(col.MaxIgnoringMissing(), 4.0);
}

TEST(ColumnTest, AllMissing) {
  Column col("x", FeatureType::kNumeric);
  col.Append(NAN);
  EXPECT_EQ(col.MeanIgnoringMissing(), 0.0);
  EXPECT_EQ(col.Cardinality(), 0);
}

TEST(ColumnTest, Cardinality) {
  Column col("c", FeatureType::kCategorical);
  for (double v : {0.0, 2.0, 1.0, 2.0}) col.Append(v);
  EXPECT_EQ(col.Cardinality(), 3);
}

// --- Dataset ---

TEST(DatasetTest, ShapeAndAccess) {
  const Dataset data = TinyDataset();
  EXPECT_EQ(data.num_rows(), 4u);
  EXPECT_EQ(data.num_features(), 2u);
  EXPECT_EQ(data.num_classes(), 2);
  EXPECT_DOUBLE_EQ(data.At(2, 0), 3.0);
  EXPECT_EQ(data.Label(3), 1);
  EXPECT_EQ(data.NumCategorical(), 1u);
}

TEST(DatasetTest, RejectsBadRows) {
  Dataset data("bad", 2, 2);
  EXPECT_FALSE(data.AppendRow({1.0}, 0).ok());          // Wrong width.
  EXPECT_FALSE(data.AppendRow({1.0, 2.0}, 2).ok());     // Label too big.
  EXPECT_FALSE(data.AppendRow({1.0, 2.0}, -1).ok());    // Negative label.
  EXPECT_EQ(data.num_rows(), 0u);
}

TEST(DatasetTest, ClassCounts) {
  const Dataset data = TinyDataset();
  const std::vector<int> counts = data.ClassCounts();
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 2);
}

TEST(DatasetTest, SubsetPreservesMetadata) {
  const Dataset data = TinyDataset();
  const Dataset sub = data.Subset({1, 3});
  EXPECT_EQ(sub.num_rows(), 2u);
  EXPECT_EQ(sub.Label(0), 1);
  EXPECT_DOUBLE_EQ(sub.At(1, 0), 4.0);
  EXPECT_EQ(sub.feature_type(1), FeatureType::kCategorical);
  EXPECT_EQ(sub.name(), "tiny");
}

TEST(DatasetTest, SelectFeatures) {
  const Dataset data = TinyDataset();
  const Dataset narrow = data.SelectFeatures({1}, data.schema()->Select({1}));
  EXPECT_EQ(narrow.num_features(), 1u);
  EXPECT_EQ(narrow.feature_type(0), FeatureType::kCategorical);
  EXPECT_DOUBLE_EQ(narrow.At(3, 0), 2.0);
  EXPECT_EQ(narrow.labels(), data.labels());
}

TEST(DatasetTest, ScaleFactor) {
  Dataset data = TinyDataset();
  EXPECT_DOUBLE_EQ(data.ScaleFactor(), 1.0);
  data.SetNominalSize(400, 2);
  EXPECT_DOUBLE_EQ(data.ScaleFactor(), 100.0);
  data.SetNominalSize(1, 2);  // Nominal smaller than instantiated.
  EXPECT_DOUBLE_EQ(data.ScaleFactor(), 1.0);
}

// --- Schema ---

TEST(DatasetSchemaTest, DatasetsOfOneWidthShareTheDefaultSchema) {
  const Dataset a("a", 5, 2);
  const Dataset b = Dataset::Regression("b", 5);
  EXPECT_EQ(a.schema(), b.schema());
  EXPECT_EQ(a.schema(), Schema::Default(5));
  // A width sharing the cache slot evicts width 5, which is then
  // formatted again with the same names.
  const Dataset c("c", 5 + 64, 3);
  const Dataset d("d", 5, 4);
  EXPECT_EQ(c.schema()->width(), 69u);
  EXPECT_EQ(c.feature_name(68), "f68");
  EXPECT_EQ(d.schema()->width(), 5u);
  for (size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(d.feature_name(j), StrFormat("f%zu", j));
    EXPECT_EQ(d.feature_type(j), FeatureType::kNumeric);
  }
  EXPECT_EQ(Dataset().schema()->width(), 0u);
}

TEST(DatasetSchemaTest, SettersCopyOnWrite) {
  const Dataset data = TinyDataset();
  const SchemaPtr before = data.schema();
  Dataset copy = data;
  copy.SetFeatureName(0, "renamed");
  copy.SetFeatureType(0, FeatureType::kCategorical);
  Dataset view = data.Subset({0, 2});
  view.SetFeatureName(1, "other");
  EXPECT_EQ(data.schema(), before);
  EXPECT_EQ(data.feature_name(0), "f0");
  EXPECT_EQ(data.feature_name(1), "f1");
  EXPECT_EQ(data.feature_type(0), FeatureType::kNumeric);
  EXPECT_EQ(copy.feature_name(0), "renamed");
  EXPECT_EQ(copy.feature_type(0), FeatureType::kCategorical);
  EXPECT_EQ(view.feature_name(1), "other");
  EXPECT_EQ(view.feature_type(1), FeatureType::kCategorical);
  EXPECT_DOUBLE_EQ(view.At(1, 0), 3.0);
  // The shared default schema is never written through.
  Dataset fresh("fresh", 2, 2);
  fresh.SetFeatureName(0, "x");
  EXPECT_EQ(Schema::Default(2)->names[0], "f0");
  EXPECT_EQ(Dataset("again", 2, 2).feature_name(0), "f0");
}

TEST(DatasetSchemaTest, NamesAndTypesSurviveViewsAndCopies) {
  Dataset data = TinyDataset();
  data.SetFeatureName(0, "size");
  data.SetFeatureName(1, "colour");
  const SchemaPtr schema = data.schema();

  const Dataset view = data.Subset({3, 1});
  EXPECT_EQ(view.schema(), schema);

  Dataset dense = view;
  dense.Materialize();
  EXPECT_FALSE(dense.IsView());
  EXPECT_EQ(dense.schema(), schema);

  Dataset written = view;
  written.MutableData()[0] = 9.0;
  EXPECT_EQ(written.schema(), schema);
  EXPECT_DOUBLE_EQ(view.At(0, 0), 4.0);

  const Dataset narrow =
      view.SelectFeatures({1, 0}, view.schema()->Select({1, 0}));
  EXPECT_EQ(narrow.feature_name(0), "colour");
  EXPECT_EQ(narrow.feature_type(0), FeatureType::kCategorical);
  EXPECT_EQ(narrow.feature_name(1), "size");
  EXPECT_EQ(narrow.feature_type(1), FeatureType::kNumeric);
  EXPECT_DOUBLE_EQ(narrow.At(0, 1), 4.0);
}

TEST(DatasetSchemaTest, SameSchemaComparesByPointerThenValue) {
  const SchemaPtr a = Schema::Default(3);
  const SchemaPtr b = std::make_shared<Schema>(*a);
  auto c = std::make_shared<Schema>(*a);
  c->names[2] = "z";
  auto d = std::make_shared<Schema>(*a);
  d->types[2] = FeatureType::kCategorical;
  EXPECT_TRUE(SameSchema(a, a));
  EXPECT_TRUE(SameSchema(a, b));
  EXPECT_FALSE(SameSchema(a, c));
  EXPECT_FALSE(SameSchema(a, d));
  EXPECT_FALSE(SameSchema(a, nullptr));
  EXPECT_TRUE(SameSchema(nullptr, nullptr));
}

// --- splits ---

TEST(SplitTest, StratifiedFractions) {
  const Dataset data = MakeDataset(300, 3, 3);
  Rng rng(5);
  const TrainTestIndices split = StratifiedSplit(data, 0.66, &rng);
  EXPECT_EQ(split.train.size() + split.test.size(), data.num_rows());
  EXPECT_NEAR(static_cast<double>(split.train.size()) /
                  static_cast<double>(data.num_rows()),
              0.66, 0.02);
  // Stratification: each class keeps its share on both sides.
  const Dataset train = data.Subset(split.train);
  const std::vector<int> counts = train.ClassCounts();
  for (int c : counts) EXPECT_NEAR(c, 66, 2);
}

TEST(SplitTest, SplitIsDisjointAndCovering) {
  const Dataset data = MakeDataset(100, 2, 2);
  Rng rng(7);
  const TrainTestIndices split = StratifiedSplit(data, 0.5, &rng);
  std::set<size_t> all(split.train.begin(), split.train.end());
  for (size_t t : split.test) {
    EXPECT_TRUE(all.insert(t).second) << "row in both sides";
  }
  EXPECT_EQ(all.size(), data.num_rows());
}

TEST(SplitTest, KFoldPartitions) {
  const Dataset data = MakeDataset(100, 2, 4);
  Rng rng(9);
  const auto folds = StratifiedKFold(data, 5, &rng);
  ASSERT_EQ(folds.size(), 5u);
  std::set<size_t> seen;
  for (const auto& fold : folds) {
    EXPECT_NEAR(fold.size(), 20, 1);
    for (size_t r : fold) EXPECT_TRUE(seen.insert(r).second);
  }
  EXPECT_EQ(seen.size(), data.num_rows());
}

TEST(SplitTest, SamplePerClassCaps) {
  const Dataset data = MakeDataset(90, 2, 3);
  Rng rng(11);
  const auto sample = SamplePerClass(data, 5, &rng);
  EXPECT_EQ(sample.size(), 15u);
  const Dataset sub = data.Subset(sample);
  for (int c : sub.ClassCounts()) EXPECT_EQ(c, 5);
}

TEST(SplitTest, SamplePerClassExhaustsSmallClasses) {
  const Dataset data = MakeDataset(10, 2, 2);
  Rng rng(13);
  const auto sample = SamplePerClass(data, 100, &rng);
  EXPECT_EQ(sample.size(), 10u);
}

TEST(SplitTest, SampleRows) {
  const Dataset data = MakeDataset(50, 2, 2);
  Rng rng(15);
  EXPECT_EQ(SampleRows(data, 20, &rng).size(), 20u);
  EXPECT_EQ(SampleRows(data, 500, &rng).size(), 50u);
}

TEST(SplitTest, DeterministicGivenSeed) {
  const Dataset data = MakeDataset(60, 2, 2);
  Rng rng1(21);
  Rng rng2(21);
  EXPECT_EQ(StratifiedSplit(data, 0.5, &rng1).train,
            StratifiedSplit(data, 0.5, &rng2).train);
}

// Property sweep: every class present on both sides for many fractions.
class SplitFractionTest : public ::testing::TestWithParam<double> {};

TEST_P(SplitFractionTest, BothSidesCoverAllClasses) {
  const Dataset data = MakeDataset(120, 3, 4);
  Rng rng(33);
  const TrainTestIndices split = StratifiedSplit(data, GetParam(), &rng);
  for (int c : data.Subset(split.train).ClassCounts()) EXPECT_GT(c, 0);
  for (int c : data.Subset(split.test).ClassCounts()) EXPECT_GT(c, 0);
}

INSTANTIATE_TEST_SUITE_P(Fractions, SplitFractionTest,
                         ::testing::Values(0.2, 0.34, 0.5, 0.66, 0.8));

// --- CSV ---

TEST(CsvTest, RoundTrip) {
  Dataset data = TinyDataset();
  data.Set(0, 0, NAN);  // Exercise a missing value.
  const std::string text = ToCsvString(data);
  auto parsed = FromCsvString(text, "tiny");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_rows(), 4u);
  EXPECT_EQ(parsed->num_classes(), 2);
  EXPECT_TRUE(std::isnan(parsed->At(0, 0)));
  EXPECT_DOUBLE_EQ(parsed->At(3, 0), 4.0);
  EXPECT_EQ(parsed->feature_type(1), FeatureType::kCategorical);
  EXPECT_EQ(parsed->Label(1), 1);
}

TEST(CsvTest, NamedMixedTypeOutputIsStable) {
  Dataset data = TinyDataset();
  data.SetFeatureName(0, "width");
  data.SetFeatureName(1, "shape");
  data.Set(1, 0, NAN);
  data.Set(2, 0, 0.125);
  EXPECT_EQ(ToCsvString(data),
            "width,shape#cat,label\n"
            "1,0,0\n"
            ",1,1\n"
            "0.125,0,0\n"
            "4,2,1\n");
  EXPECT_EQ(ToCsvString(data.Subset({0, 1, 2, 3})), ToCsvString(data));
  auto parsed = FromCsvString(ToCsvString(data), "x");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(ToCsvString(*parsed), ToCsvString(data));
}

TEST(CsvTest, RejectsHostileCategoryCodes) {
  for (const char* code : {"2147483647", "1e300", "inf", "-inf", "nan",
                           "-1", "1.5", "1000001"}) {
    const std::string text =
        StrFormat("a,b#cat,label\n1,0,0\n2,%s,1\n", code);
    auto parsed = FromCsvString(text, "x");
    ASSERT_FALSE(parsed.ok()) << code;
    EXPECT_EQ(parsed.status().code(), Status::Code::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("category code"),
              std::string::npos)
        << parsed.status().message();
    EXPECT_NE(parsed.status().message().find("column 1 on line 2"),
              std::string::npos)
        << parsed.status().message();
  }
  // The cap itself, zero and missing cells are fine; numeric columns
  // keep accepting any number.
  auto fine =
      FromCsvString("a,b#cat,label\n1e300,1000000,0\n-2,,1\n3,0,0\n", "x");
  ASSERT_TRUE(fine.ok());
  EXPECT_DOUBLE_EQ(fine->At(0, 1), 1000000.0);
  EXPECT_TRUE(std::isnan(fine->At(1, 1)));
}

TEST(CsvTest, RejectsMalformed) {
  EXPECT_FALSE(FromCsvString("", "x").ok());
  EXPECT_FALSE(FromCsvString("a,b\n1,2\n", "x").ok());  // No label col.
  EXPECT_FALSE(FromCsvString("a,label\n1\n", "x").ok());  // Short row.
  EXPECT_FALSE(FromCsvString("a,label\n", "x").ok());     // No rows.
  EXPECT_FALSE(FromCsvString("a,label\n1,-3\n", "x").ok());  // Neg label.
}

TEST(CsvTest, RejectsNonNumericCells) {
  // A word where a number belongs must be an error, not a silent 0.
  auto parsed = FromCsvString("a,b,label\n1,hello,0\n", "x");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("non-numeric"),
            std::string::npos);
  // Trailing garbage after a valid prefix is equally hostile.
  EXPECT_FALSE(FromCsvString("a,label\n12abc,0\n", "x").ok());
  EXPECT_FALSE(FromCsvString("a,label\n1e,0\n", "x").ok());
  // Scientific notation and signs are legitimate numbers.
  auto fine = FromCsvString("a,b,label\n-1.5e3,+2,1\n", "x");
  ASSERT_TRUE(fine.ok());
  EXPECT_DOUBLE_EQ(fine->At(0, 0), -1500.0);
}

TEST(CsvTest, RejectsGarbageLabels) {
  auto parsed = FromCsvString("a,label\n1,yes\n", "x");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("non-integer label"),
            std::string::npos);
  EXPECT_FALSE(FromCsvString("a,label\n1,2x\n", "x").ok());
  EXPECT_FALSE(FromCsvString("a,label\n1,\n", "x").ok());  // Empty label.
  EXPECT_FALSE(FromCsvString("a,label\n1,99999999\n", "x").ok());  // Range.
  EXPECT_FALSE(
      FromCsvString("a,label\n1,99999999999999999999\n", "x").ok());
}

TEST(CsvTest, RejectsTruncatedAndRaggedRows) {
  // A file cut off mid-row (e.g. interrupted download) must error.
  EXPECT_FALSE(FromCsvString("a,b,label\n1,2,0\n3,4", "x").ok());
  // Ragged rows: wrong field count either way.
  EXPECT_FALSE(FromCsvString("a,b,label\n1,2,0\n1,2,3,0\n", "x").ok());
  EXPECT_FALSE(FromCsvString("a,b,label\n1,2,0\n1,0\n", "x").ok());
  // Trailing newline and blank lines between rows are fine.
  auto ok = FromCsvString("a,label\n1,0\n\n2,1\n\n", "x");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->num_rows(), 2u);
}

TEST(CsvTest, HeaderOnlyAndWhitespaceFiles) {
  EXPECT_FALSE(FromCsvString("\n\n\n", "x").ok());
  EXPECT_FALSE(FromCsvString("   \n", "x").ok());
  // Missing feature values (empty cells) are NaN, not errors.
  auto parsed = FromCsvString("a,b,label\n,2,0\n1,,1\n", "x");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(std::isnan(parsed->At(0, 0)));
  EXPECT_TRUE(std::isnan(parsed->At(1, 1)));
}

TEST(CsvTest, FileRoundTrip) {
  const Dataset data = TinyDataset();
  const std::string path = ::testing::TempDir() + "/green_csv_test.csv";
  ASSERT_TRUE(WriteCsv(data, path).ok());
  auto loaded = ReadCsv(path, "tiny");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), data.num_rows());
  EXPECT_FALSE(ReadCsv("/nonexistent/no.csv", "x").ok());
}

// --- MetaFeatures ---

TEST(MetaFeaturesTest, BasicValues) {
  const Dataset data = MakeDataset(1000, 10, 2);
  const MetaFeatures mf = ComputeMetaFeatures(data);
  EXPECT_NEAR(mf.log_rows, 3.0, 1e-9);
  EXPECT_NEAR(mf.log_features, 1.0, 1e-9);
  EXPECT_NEAR(mf.log_classes, std::log10(2.0), 1e-9);
  EXPECT_NEAR(mf.class_entropy, 1.0, 1e-6);  // Perfectly balanced.
  EXPECT_NEAR(mf.class_imbalance, 0.0, 1e-9);
  EXPECT_EQ(mf.categorical_fraction, 0.0);
  EXPECT_EQ(mf.missing_fraction, 0.0);
}

TEST(MetaFeaturesTest, UsesNominalSizeWhenSet) {
  Dataset data = MakeDataset(100, 4, 2);
  data.SetNominalSize(100000, 400);
  const MetaFeatures mf = ComputeMetaFeatures(data);
  EXPECT_NEAR(mf.log_rows, 5.0, 1e-9);
  EXPECT_NEAR(mf.log_features, std::log10(400.0), 1e-9);
}

TEST(MetaFeaturesTest, ImbalanceDetected) {
  Dataset data("imb", 1, 2);
  for (int i = 0; i < 90; ++i) ASSERT_TRUE(data.AppendRow({0.0}, 0).ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(data.AppendRow({0.0}, 1).ok());
  const MetaFeatures mf = ComputeMetaFeatures(data);
  EXPECT_GT(mf.class_imbalance, 0.8);
  EXPECT_LT(mf.class_entropy, 0.6);
}

TEST(MetaFeaturesTest, DistanceIsMetricLike) {
  const MetaFeatures a = ComputeMetaFeatures(MakeDataset(100, 5, 2));
  const MetaFeatures b = ComputeMetaFeatures(MakeDataset(100, 5, 2, 9));
  const MetaFeatures c = ComputeMetaFeatures(MakeDataset(5000, 50, 10));
  EXPECT_NEAR(MetaFeatureDistance(a, a), 0.0, 1e-12);
  // Same-shape datasets are closer than differently-shaped ones.
  EXPECT_LT(MetaFeatureDistance(a, b), MetaFeatureDistance(a, c));
}

TEST(MetaFeaturesTest, VectorDimensionStable) {
  const MetaFeatures mf;
  EXPECT_EQ(mf.ToVector().size(), MetaFeatures::kDim);
}

}  // namespace
}  // namespace green
