#ifndef GREEN_ML_PREPROCESS_ONE_HOT_H_
#define GREEN_ML_PREPROCESS_ONE_HOT_H_

#include <vector>

#include "green/ml/estimator.h"

namespace green {

/// Expands categorical columns into indicator columns; numeric columns are
/// copied through. Categories unseen at fit time map to all-zeros.
/// Columns whose cardinality exceeds `max_cardinality` are passed through
/// as numeric codes instead (the standard high-cardinality guard).
class OneHotEncoder : public Transformer {
 public:
  explicit OneHotEncoder(int max_cardinality = 32)
      : max_cardinality_(max_cardinality) {}

  Status Fit(const Dataset& train, ExecutionContext* ctx) override;
  Result<Dataset> Transform(const Dataset& data,
                            ExecutionContext* ctx) const override;
  std::string Name() const override { return "one_hot"; }
  std::string ConfigSignature() const override {
    return "one_hot(" + std::to_string(max_cardinality_) + ")";
  }
  double TransformFlopsPerRow(size_t num_features) const override {
    return static_cast<double>(output_width_ > 0
                                   ? output_width_
                                   : num_features);
  }

  size_t OutputWidth(size_t input_width) const override {
    return output_width_ > 0 ? output_width_ : input_width;
  }

  size_t output_width() const { return output_width_; }

 private:
  /// Output columns for `in`: encoded column `name` becomes `name=0`, ...
  SchemaPtr OutputSchema(const Schema& in) const;
  int max_cardinality_;
  std::vector<int> cardinality_;  ///< 0 = pass-through column.
  size_t input_width_ = 0;
  size_t output_width_ = 0;
  SchemaPtr input_schema_;   ///< The fit input's columns ...
  SchemaPtr output_schema_;  ///< ... and their encoding, fixed in Fit.
  bool fitted_ = false;
};

}  // namespace green

#endif  // GREEN_ML_PREPROCESS_ONE_HOT_H_
