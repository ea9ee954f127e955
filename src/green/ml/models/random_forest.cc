#include "green/ml/models/random_forest.h"

#include <cmath>
#include <memory>

#include "green/ml/kernels/kernels.h"

namespace green {

Status RandomForest::Fit(const Dataset& train, ExecutionContext* ctx) {
  if (train.num_rows() == 0) {
    return Status::InvalidArgument("random_forest: empty training data");
  }
  ChargeScope scope(ctx, Name());
  trees_.clear();
  Rng rng(params_.seed);
  double flops = 0.0;

  DecisionTreeParams tree_params;
  tree_params.max_depth = params_.max_depth;
  tree_params.min_samples_leaf = params_.min_samples_leaf;
  tree_params.max_features_fraction =
      params_.max_features_fraction > 0.0
          ? params_.max_features_fraction
          : std::sqrt(static_cast<double>(train.num_features())) /
                static_cast<double>(train.num_features());

  const size_t sample_size = std::max<size_t>(
      1, static_cast<size_t>(params_.bootstrap_fraction *
                             static_cast<double>(train.num_rows())));
  // One presort for the whole forest; each tree expands its bootstrap
  // sample from it.
  const std::shared_ptr<const FeatureOrder> order =
      DecisionTree::PresortFor(train, tree_params, ctx);
  for (int t = 0; t < params_.num_trees; ++t) {
    if (ctx->Interrupted()) {
      return Status::DeadlineExceeded("random_forest: interrupted mid-fit");
    }
    Rng tree_rng = rng.Fork();
    std::vector<size_t> sample(sample_size);
    for (size_t& s : sample) {
      s = static_cast<size_t>(tree_rng.NextBounded(train.num_rows()));
    }
    tree_params.seed = tree_rng.NextUint64();
    trees_.emplace_back(tree_params);
    GREEN_RETURN_IF_ERROR(
        trees_.back().FitCounted(train, sample, order.get(), &tree_rng,
                                 &flops));
  }
  // Independent trees: embarrassingly parallel training.
  ctx->ChargeCpu(flops, train.FeatureBytes(), /*parallel_fraction=*/0.95);
  if (ctx->Interrupted()) {
    return Status::DeadlineExceeded("random_forest: interrupted mid-fit");
  }
  MarkFitted(train.num_classes(), train.task());
  return Status::Ok();
}

Result<ProbaMatrix> RandomForest::PredictProba(const Dataset& data,
                                               ExecutionContext* ctx) const {
  if (!fitted()) return Status::FailedPrecondition("forest not fitted");
  ChargeScope scope(ctx, Name());
  const size_t k = static_cast<size_t>(num_classes());
  ProbaMatrix total(data.num_rows(), std::vector<double>(k, 0.0));
  double flops = 0.0;
  if (KernelsEnabled()) {
    // Each tree streams its leaf distributions straight into one flat
    // rows x k accumulator — no per-tree ProbaMatrix, same add order.
    std::vector<double> acc(data.num_rows() * k, 0.0);
    for (const DecisionTree& tree : trees_) {
      tree.AccumulateProbaCounted(data, acc.data(), k, &flops);
      flops += static_cast<double>(data.num_rows()) *
               static_cast<double>(num_classes());
    }
    for (size_t r = 0; r < data.num_rows(); ++r) {
      for (size_t c = 0; c < k; ++c) total[r][c] = acc[r * k + c];
    }
  } else {
    ProbaMatrix tree_out;
    for (const DecisionTree& tree : trees_) {
      tree.PredictProbaCounted(data, &tree_out, &flops);
      for (size_t r = 0; r < data.num_rows(); ++r) {
        for (size_t c = 0; c < total[r].size(); ++c) {
          total[r][c] += tree_out[r][c];
        }
      }
      flops += static_cast<double>(data.num_rows()) *
               static_cast<double>(num_classes());
    }
  }
  const double inv = trees_.empty()
                         ? 1.0
                         : 1.0 / static_cast<double>(trees_.size());
  for (auto& row : total) {
    for (double& p : row) p *= inv;
  }
  ctx->ChargeCpu(flops, data.FeatureBytes(), /*parallel_fraction=*/0.95);
  return total;
}

double RandomForest::InferenceFlopsPerRow(size_t num_features) const {
  double sum = 0.0;
  for (const DecisionTree& tree : trees_) {
    sum += tree.InferenceFlopsPerRow(num_features);
  }
  return sum + static_cast<double>(trees_.size() * num_classes());
}

double RandomForest::ComplexityProxy() const {
  double sum = 0.0;
  for (const DecisionTree& tree : trees_) sum += tree.ComplexityProxy();
  return sum;
}

}  // namespace green
