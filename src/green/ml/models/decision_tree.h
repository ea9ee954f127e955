#ifndef GREEN_ML_MODELS_DECISION_TREE_H_
#define GREEN_ML_MODELS_DECISION_TREE_H_

#include <memory>
#include <vector>

#include "green/common/rng.h"
#include "green/ml/estimator.h"
#include "green/ml/kernels/tree_kernels.h"

namespace green {

/// CART-style tree: Gini impurity for classification, variance reduction
/// with target-mean leaves for regression (the task is taken from the
/// training dataset; regression leaves store a single-element proba row
/// holding the leaf mean).
///
/// The paper's tuned CAML repeatedly selects decision trees because "they
/// can be both simple (shallow and narrow) and complex (deep and wide)" —
/// the depth/leaf hyperparameters below span exactly that range.
struct DecisionTreeParams {
  int max_depth = 8;
  int min_samples_leaf = 2;
  /// Features examined per split: 0 = all, otherwise ceil(fraction * d).
  double max_features_fraction = 0.0;
  /// If true, thresholds are drawn uniformly at random between the
  /// feature's node-local min/max instead of exhaustively searched —
  /// the Extra-Trees randomization.
  bool random_thresholds = false;
  /// > 0 replaces the exact classification split scan with a fixed-bin
  /// histogram scan of that many bins (kernel path only; ignored when
  /// GREEN_KERNELS=0 or random_thresholds is set). An approximation —
  /// default 0 keeps the exact sweep, which no reproduced system
  /// overrides, preserving the kernels-on/off byte-identity invariant.
  int histogram_bins = 0;
  uint64_t seed = 1;
};

class DecisionTree : public Estimator {
 public:
  explicit DecisionTree(const DecisionTreeParams& params)
      : params_(params) {}

  Status Fit(const Dataset& train, ExecutionContext* ctx) override;
  Result<ProbaMatrix> PredictProba(const Dataset& data,
                                   ExecutionContext* ctx) const override;
  std::string Name() const override { return "decision_tree"; }
  double InferenceFlopsPerRow(size_t num_features) const override;
  double ComplexityProxy() const override {
    return static_cast<double>(nodes_.size());
  }

  /// The presort shared by every tree one fit grows on `train` with
  /// `params`: a FeatureOrder when those trees take the kernel build's
  /// exact split search, null otherwise (kernels off, random thresholds,
  /// histogram scan). With a TransformCache on `ctx` the order comes from
  /// its presort memo, shared with earlier and later fits on the same
  /// storage and row view; without one it is built for this fit alone.
  static std::shared_ptr<const FeatureOrder> PresortFor(
      const Dataset& train, const DecisionTreeParams& params,
      ExecutionContext* ctx);

  /// Ensemble-internal entry points: train/score on behalf of a parent
  /// that does its own (parallel) work accounting. `flops` accumulates
  /// the abstract work performed. `order` is the fit's
  /// PresortFor(train, params, ctx) result.
  Status FitCounted(const Dataset& train,
                    const std::vector<size_t>& row_indices,
                    const FeatureOrder* order, Rng* rng, double* flops);
  void PredictProbaCounted(const Dataset& data, ProbaMatrix* out,
                           double* flops) const;
  /// Adds each row's leaf distribution into a flat rows x k accumulator
  /// (acc[r * k + c]) without materializing a per-tree ProbaMatrix —
  /// the ensemble-predict kernel path. Charges the same flops as
  /// PredictProbaCounted.
  void AccumulateProbaCounted(const Dataset& data, double* acc, size_t k,
                              double* flops) const;

  size_t num_nodes() const { return nodes_.size(); }
  double mean_leaf_depth() const { return mean_leaf_depth_; }

 private:
  struct Node {
    int feature = -1;           ///< -1 marks a leaf.
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    std::vector<double> proba;  ///< Leaf class distribution.
  };

  struct KernelSink;  ///< TreeNodeSink adapter (decision_tree.cc).

  int BuildNode(const Dataset& train, std::vector<size_t>* rows, int depth,
                Rng* rng, double* flops);
  int BuildRegNode(const Dataset& train, std::vector<size_t>* rows,
                   int depth, Rng* rng, double* flops);
  const std::vector<double>& RowProba(const Dataset& data, size_t row,
                                      double* flops) const;

  DecisionTreeParams params_;
  std::vector<Node> nodes_;
  double mean_leaf_depth_ = 0.0;
};

}  // namespace green

#endif  // GREEN_ML_MODELS_DECISION_TREE_H_
