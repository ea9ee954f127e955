#include "green/ml/models/gradient_boosting.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>

#include "green/common/arena.h"
#include "green/common/mathutil.h"
#include "green/common/rng.h"
#include "green/ml/kernels/tree_kernels.h"
#include "green/ml/models/decision_tree.h"

namespace green {

namespace {

/// Writes kernel-built nodes into a RegTree; reserve order matches the
/// reference BuildRegNode's preorder emplace_back exactly.
struct RegTreeSink : TreeNodeSink {
  explicit RegTreeSink(std::vector<GradientBoosting::RegNode>* tree)
      : tree(tree) {}
  std::vector<GradientBoosting::RegNode>* tree;

  int ReserveNode() override {
    tree->emplace_back();
    return static_cast<int>(tree->size() - 1);
  }
  void SetLeafProba(int node, std::vector<double> proba) override {
    (*tree)[static_cast<size_t>(node)].value = proba[0];
  }
  void SetLeafValue(int node, double value) override {
    (*tree)[static_cast<size_t>(node)].value = value;
  }
  void SetSplit(int node, int feature, double threshold, int left,
                int right) override {
    GradientBoosting::RegNode& n = (*tree)[static_cast<size_t>(node)];
    n.feature = feature;
    n.threshold = threshold;
    n.left = left;
    n.right = right;
  }
};

}  // namespace

Status GradientBoosting::Fit(const Dataset& train, ExecutionContext* ctx) {
  const size_t n = train.num_rows();
  const int k = train.num_classes();
  if (n == 0) return Status::InvalidArgument("gboost: empty training data");

  ChargeScope scope(ctx, Name());
  trees_.clear();
  rounds_fitted_ = 0;
  total_nodes_ = 0.0;
  double flops = 0.0;
  Rng rng(params_.seed);

  const bool regression = train.task() == TaskType::kRegression;
  if (regression) {
    // Regression base score: the target mean (squared-loss optimum).
    base_score_.assign(1, train.TargetMean());
  } else {
    // Class log-priors as the base score.
    base_score_.assign(static_cast<size_t>(k), 0.0);
    const std::vector<int> counts = train.ClassCounts();
    for (int c = 0; c < k; ++c) {
      const double p = std::max(
          1e-6, static_cast<double>(counts[static_cast<size_t>(c)]) /
                    static_cast<double>(n));
      base_score_[static_cast<size_t>(c)] = std::log(p);
    }
  }

  // Raw scores per row per class.
  std::vector<std::vector<double>> score(
      n, std::vector<double>(base_score_.begin(), base_score_.end()));
  std::vector<double> target(n);
  std::vector<double> proba;

  // One presort for the whole run; each round rank-filters its row
  // sample out of it. Boosting trees always take the exact scan (the
  // default tree params' mode), so this is null only with kernels off.
  const std::shared_ptr<const FeatureOrder> order =
      DecisionTree::PresortFor(train, DecisionTreeParams{}, ctx);
  Arena* arena = ScratchArena();
  TreeKernelParams kp;
  kp.max_depth = params_.max_depth;
  kp.min_samples_leaf = params_.min_samples_leaf;

  for (int round = 0; round < params_.num_rounds; ++round) {
    if (ctx->Interrupted()) {
      return Status::DeadlineExceeded("gboost: interrupted mid-fit");
    }
    std::vector<size_t> rows;
    if (params_.subsample < 1.0) {
      for (size_t r = 0; r < n; ++r) {
        if (rng.NextBool(params_.subsample)) rows.push_back(r);
      }
      if (rows.size() < 4) {
        rows.resize(std::min<size_t>(n, 4));
        std::iota(rows.begin(), rows.end(), 0);
      }
    } else {
      rows.resize(n);
      std::iota(rows.begin(), rows.end(), 0);
    }

    // The k per-class trees of one round share the row sample, so the
    // kernel path derives its stripes once per round and hands every
    // tree a pristine copy.
    ArenaScope round_scope(arena);
    std::optional<GbRoundPresort> presort;
    if (order) presort.emplace(*order, rows, arena);

    std::vector<RegTree> round_trees;
    round_trees.reserve(static_cast<size_t>(k));
    for (int c = 0; c < k; ++c) {
      if (regression) {
        // Negative gradient of squared loss: the residual y - score.
        for (size_t r = 0; r < n; ++r) {
          target[r] = train.Target(r) - score[r][0];
        }
      } else {
        // Negative gradient of softmax cross-entropy: 1{y=c} - p_c.
        for (size_t r = 0; r < n; ++r) {
          proba = score[r];
          SoftmaxInPlace(&proba);
          target[r] = (train.Label(r) == c ? 1.0 : 0.0) -
                      proba[static_cast<size_t>(c)];
        }
      }
      flops += static_cast<double>(n) * static_cast<double>(k);
      RegTree tree;
      if (presort) {
        RegTreeSink sink(&tree);
        KernelBuildGbTree(*presort, target, kp, &flops, arena, &sink);
      } else {
        tree = FitRegTree(train, rows, target, &flops);
      }
      for (size_t r = 0; r < n; ++r) {
        score[r][static_cast<size_t>(c)] +=
            params_.learning_rate * PredictRegTree(tree, train, r, &flops);
      }
      total_nodes_ += static_cast<double>(tree.size());
      round_trees.push_back(std::move(tree));
    }
    trees_.push_back(std::move(round_trees));
    ++rounds_fitted_;
  }
  // Boosting is sequential across rounds; per-round tree fits parallelize
  // only over classes.
  ctx->ChargeCpu(flops, train.FeatureBytes(), /*parallel_fraction=*/0.4);
  if (ctx->Interrupted()) {
    return Status::DeadlineExceeded("gboost: interrupted mid-fit");
  }
  MarkFitted(k, train.task());
  return Status::Ok();
}

GradientBoosting::RegTree GradientBoosting::FitRegTree(
    const Dataset& train, const std::vector<size_t>& rows,
    const std::vector<double>& target, double* flops) const {
  RegTree tree;
  std::vector<size_t> work = rows;
  BuildRegNode(train, &work, target, 0, &tree, flops);
  return tree;
}

int GradientBoosting::BuildRegNode(const Dataset& train,
                                   std::vector<size_t>* rows,
                                   const std::vector<double>& target,
                                   int depth, RegTree* tree,
                                   double* flops) const {
  const int node_index = static_cast<int>(tree->size());
  tree->emplace_back();

  const double n = static_cast<double>(rows->size());
  double sum = 0.0;
  for (size_t r : *rows) sum += target[r];
  const double mean = n > 0.0 ? sum / n : 0.0;
  *flops += n;

  const bool stop =
      depth >= params_.max_depth ||
      rows->size() < 2 * static_cast<size_t>(params_.min_samples_leaf);
  if (!stop) {
    // Exact variance-reduction split search over all features.
    double best_gain = 1e-10;
    int best_feature = -1;
    double best_threshold = 0.0;
    std::vector<std::pair<double, size_t>> sorted;
    sorted.reserve(rows->size());
    for (size_t f = 0; f < train.num_features(); ++f) {
      sorted.clear();
      for (size_t r : *rows) sorted.emplace_back(train.At(r, f), r);
      std::sort(sorted.begin(), sorted.end());
      *flops += n * std::log2(std::max(2.0, n));
      double left_sum = 0.0;
      double left_n = 0.0;
      for (size_t i = 0; i + 1 < sorted.size(); ++i) {
        left_sum += target[sorted[i].second];
        left_n += 1.0;
        if (SkipSplitGap(sorted[i].first, sorted[i + 1].first)) continue;
        const double right_n = n - left_n;
        if (left_n < params_.min_samples_leaf ||
            right_n < params_.min_samples_leaf) {
          continue;
        }
        const double right_sum = sum - left_sum;
        // Variance-reduction gain (up to constants).
        const double gain = left_sum * left_sum / left_n +
                            right_sum * right_sum / right_n -
                            sum * sum / n;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_threshold =
              SplitThreshold(sorted[i].first, sorted[i + 1].first);
        }
      }
      *flops += n;
    }
    if (best_feature >= 0) {
      std::vector<size_t> left_rows;
      std::vector<size_t> right_rows;
      for (size_t r : *rows) {
        if (train.At(r, static_cast<size_t>(best_feature)) <=
            best_threshold) {
          left_rows.push_back(r);
        } else {
          right_rows.push_back(r);
        }
      }
      rows->clear();
      rows->shrink_to_fit();
      const int left =
          BuildRegNode(train, &left_rows, target, depth + 1, tree, flops);
      const int right =
          BuildRegNode(train, &right_rows, target, depth + 1, tree, flops);
      RegNode& node = (*tree)[static_cast<size_t>(node_index)];
      node.feature = best_feature;
      node.threshold = best_threshold;
      node.left = left;
      node.right = right;
      return node_index;
    }
  }
  (*tree)[static_cast<size_t>(node_index)].value = mean;
  return node_index;
}

double GradientBoosting::PredictRegTree(const RegTree& tree,
                                        const Dataset& data, size_t row,
                                        double* flops) {
  int idx = 0;
  for (;;) {
    const RegNode& node = tree[static_cast<size_t>(idx)];
    if (node.feature < 0) return node.value;
    *flops += 2.0;
    idx = data.At(row, static_cast<size_t>(node.feature)) <= node.threshold
              ? node.left
              : node.right;
  }
}

Result<ProbaMatrix> GradientBoosting::PredictProba(
    const Dataset& data, ExecutionContext* ctx) const {
  if (!fitted()) return Status::FailedPrecondition("gboost not fitted");
  ChargeScope scope(ctx, Name());
  const int k = num_classes();
  ProbaMatrix out(data.num_rows());
  double flops = 0.0;
  for (size_t r = 0; r < data.num_rows(); ++r) {
    std::vector<double> score(base_score_.begin(), base_score_.end());
    for (const auto& round_trees : trees_) {
      for (int c = 0; c < k; ++c) {
        score[static_cast<size_t>(c)] +=
            params_.learning_rate *
            PredictRegTree(round_trees[static_cast<size_t>(c)], data, r,
                           &flops);
      }
    }
    if (task() != TaskType::kRegression) SoftmaxInPlace(&score);
    flops += static_cast<double>(k);
    out[r] = std::move(score);
  }
  ctx->ChargeCpu(flops, data.FeatureBytes(), /*parallel_fraction=*/0.9);
  return out;
}

double GradientBoosting::InferenceFlopsPerRow(size_t num_features) const {
  return 2.0 * static_cast<double>(rounds_fitted_) *
             static_cast<double>(num_classes()) *
             static_cast<double>(params_.max_depth) +
         static_cast<double>(num_classes());
}

double GradientBoosting::ComplexityProxy() const { return total_nodes_; }

}  // namespace green
