#ifndef GREEN_TABLE_COLUMN_H_
#define GREEN_TABLE_COLUMN_H_

#include <cmath>
#include <string>
#include <vector>

namespace green {

/// The two attribute kinds the paper's scope covers ("tabular data with
/// numeric and categorical attributes").
enum class FeatureType { kNumeric = 0, kCategorical = 1 };

/// Largest category code (and class label) a CSV may carry.
constexpr int kMaxCategoryCode = 1000000;

/// A single typed column. Values are stored as doubles; categorical
/// columns hold non-negative integral category codes; missing values are
/// NaN for both kinds.
class Column {
 public:
  Column(std::string name, FeatureType type)
      : name_(std::move(name)), type_(type) {}

  const std::string& name() const { return name_; }
  FeatureType type() const { return type_; }
  size_t size() const { return values_.size(); }

  void Reserve(size_t n) { values_.reserve(n); }
  void Append(double v) { values_.push_back(v); }
  double Get(size_t i) const { return values_[i]; }
  void Set(size_t i, double v) { values_[i] = v; }
  const std::vector<double>& values() const { return values_; }

  static bool IsMissing(double v) { return std::isnan(v); }

  /// Number of NaN entries.
  size_t MissingCount() const;

  /// Mean over non-missing entries; 0 if all missing.
  double MeanIgnoringMissing() const;

  /// Min/max over non-missing entries; 0 if all missing.
  double MinIgnoringMissing() const;
  double MaxIgnoringMissing() const;

  /// For categorical columns: one plus the largest observed code
  /// (0 if empty / all missing).
  int Cardinality() const;

 private:
  std::string name_;
  FeatureType type_;
  std::vector<double> values_;
};

}  // namespace green

#endif  // GREEN_TABLE_COLUMN_H_
