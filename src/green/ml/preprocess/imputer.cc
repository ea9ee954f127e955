#include "green/ml/preprocess/imputer.h"

#include <cmath>
#include <map>

namespace green {

Status MeanModeImputer::Fit(const Dataset& train, ExecutionContext* ctx) {
  const size_t n = train.num_rows();
  const size_t d = train.num_features();
  if (n == 0) return Status::InvalidArgument("imputer: empty dataset");
  ChargeScope scope(ctx, Name());
  fill_values_.assign(d, 0.0);

  for (size_t j = 0; j < d; ++j) {
    if (train.feature_type(j) == FeatureType::kCategorical) {
      std::map<int, int> counts;
      for (size_t r = 0; r < n; ++r) {
        const double v = std::trunc(train.At(r, j));  // NaN: skipped.
        if (v >= 0 && v <= kMaxCategoryCode) ++counts[static_cast<int>(v)];
      }
      int best_code = 0;
      int best_count = -1;
      for (const auto& [code, count] : counts) {
        if (count > best_count) {
          best_count = count;
          best_code = code;
        }
      }
      fill_values_[j] = static_cast<double>(best_code);
    } else {
      double sum = 0.0;
      size_t seen = 0;
      for (size_t r = 0; r < n; ++r) {
        const double v = train.At(r, j);
        if (!std::isnan(v)) {
          sum += v;
          ++seen;
        }
      }
      fill_values_[j] = seen > 0 ? sum / static_cast<double>(seen) : 0.0;
    }
  }
  ctx->ChargeCpu(static_cast<double>(n * d), static_cast<double>(n * d) * 8);
  fitted_ = true;
  return Status::Ok();
}

Result<Dataset> MeanModeImputer::Transform(const Dataset& data,
                                           ExecutionContext* ctx) const {
  if (!fitted_) return Status::FailedPrecondition("imputer not fitted");
  if (data.num_features() != fill_values_.size()) {
    return Status::InvalidArgument("imputer: feature count mismatch");
  }
  ChargeScope scope(ctx, Name());
  Dataset out = data;
  const size_t n = data.num_rows();
  const size_t d = data.num_features();
  // Scan first: NaN-free data (the common case) passes through as a view
  // with no copy at all.
  bool has_nan = false;
  for (size_t r = 0; r < n && !has_nan; ++r) {
    const double* row = data.RowPtr(r);
    for (size_t j = 0; j < d; ++j) {
      if (std::isnan(row[j])) {
        has_nan = true;
        break;
      }
    }
  }
  if (has_nan) {
    double* x = out.MutableData();
    for (size_t r = 0; r < n; ++r) {
      double* row = x + r * d;
      for (size_t j = 0; j < d; ++j) {
        if (std::isnan(row[j])) row[j] = fill_values_[j];
      }
    }
  }
  ctx->ChargeCpu(static_cast<double>(out.num_rows() * out.num_features()),
                 out.FeatureBytes());
  return out;
}

}  // namespace green
