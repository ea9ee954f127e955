#ifndef GREEN_ML_PREPROCESS_FEATURE_SELECTION_H_
#define GREEN_ML_PREPROCESS_FEATURE_SELECTION_H_

#include <vector>

#include "green/ml/estimator.h"

namespace green {

/// Keeps the columns chosen in Fit. Their schema is fixed in Fit too and
/// shared by every Transform of an input with the fitted columns.
class ColumnSelector : public Transformer {
 public:
  Result<Dataset> Transform(const Dataset& data,
                            ExecutionContext* ctx) const override;
  double TransformFlopsPerRow(size_t num_features) const override {
    return static_cast<double>(keep_.size());
  }
  size_t OutputWidth(size_t input_width) const override {
    return keep_.empty() ? input_width : keep_.size();
  }

  const std::vector<size_t>& kept_columns() const { return keep_; }

 protected:
  /// Completes a fit on `train` that keeps the columns `keep`.
  void Keep(const Dataset& train, std::vector<size_t> keep);

 private:
  std::vector<size_t> keep_;
  SchemaPtr input_schema_;
  SchemaPtr output_schema_;
  bool fitted_ = false;
};

/// Drops features whose variance is at or below `threshold`.
class VarianceThreshold : public ColumnSelector {
 public:
  explicit VarianceThreshold(double threshold = 0.0)
      : threshold_(threshold) {}

  Status Fit(const Dataset& train, ExecutionContext* ctx) override;
  std::string Name() const override { return "variance_threshold"; }
  std::string ConfigSignature() const override;

 private:
  double threshold_;
};

/// Keeps the k features with the highest ANOVA-style F score
/// (between-class variance over within-class variance) — the classic
/// univariate filter FLAML's feature pruning resembles.
class SelectKBest : public ColumnSelector {
 public:
  explicit SelectKBest(size_t k) : k_(k) {}

  Status Fit(const Dataset& train, ExecutionContext* ctx) override;
  std::string Name() const override { return "select_k_best"; }
  std::string ConfigSignature() const override {
    return "select_k_best(" + std::to_string(k_) + ")";
  }

 private:
  size_t k_;
};

}  // namespace green

#endif  // GREEN_ML_PREPROCESS_FEATURE_SELECTION_H_
