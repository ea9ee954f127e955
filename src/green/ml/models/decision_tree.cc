#include "green/ml/models/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "green/common/arena.h"
#include "green/common/logging.h"
#include "green/ml/kernels/kernels.h"
#include "green/ml/transform_cache.h"

namespace green {

namespace {

/// Gini impurity of a count vector with total `n`.
double Gini(const std::vector<double>& counts, double n) {
  if (n <= 0.0) return 0.0;
  double g = 1.0;
  for (double c : counts) {
    const double p = c / n;
    g -= p * p;
  }
  return g;
}

std::vector<double> ClassDistribution(const Dataset& train,
                                      const std::vector<size_t>& rows) {
  std::vector<double> counts(static_cast<size_t>(train.num_classes()), 0.0);
  for (size_t r : rows) {
    counts[static_cast<size_t>(train.Label(r))] += 1.0;
  }
  return counts;
}

bool UseTreeKernels(const Dataset& train) {
  return KernelsEnabled() &&
         train.num_rows() <= std::numeric_limits<uint32_t>::max();
}

TreeKernelParams KernelParams(const DecisionTreeParams& params) {
  TreeKernelParams kp;
  kp.max_depth = params.max_depth;
  kp.min_samples_leaf = params.min_samples_leaf;
  kp.max_features_fraction = params.max_features_fraction;
  kp.random_thresholds = params.random_thresholds;
  kp.histogram_bins = params.histogram_bins;
  return kp;
}

void Normalize(std::vector<double>* v) {
  double sum = 0.0;
  for (double x : *v) sum += x;
  if (sum <= 0.0) {
    const double u = 1.0 / static_cast<double>(v->size());
    for (double& x : *v) x = u;
    return;
  }
  for (double& x : *v) x /= sum;
}

}  // namespace

/// Writes kernel-built nodes into the tree's flat node vector; reserve
/// order matches the reference builders' preorder emplace_back exactly.
struct DecisionTree::KernelSink : TreeNodeSink {
  explicit KernelSink(std::vector<Node>* nodes) : nodes(nodes) {}
  std::vector<Node>* nodes;

  int ReserveNode() override {
    nodes->emplace_back();
    return static_cast<int>(nodes->size() - 1);
  }
  void SetLeafProba(int node, std::vector<double> proba) override {
    (*nodes)[static_cast<size_t>(node)].proba = std::move(proba);
  }
  void SetLeafValue(int node, double value) override {
    (*nodes)[static_cast<size_t>(node)].proba = {value};
  }
  void SetSplit(int node, int feature, double threshold, int left,
                int right) override {
    Node& n = (*nodes)[static_cast<size_t>(node)];
    n.feature = feature;
    n.threshold = threshold;
    n.left = left;
    n.right = right;
  }
};

Status DecisionTree::Fit(const Dataset& train, ExecutionContext* ctx) {
  ChargeScope scope(ctx, Name());
  std::vector<size_t> all(train.num_rows());
  std::iota(all.begin(), all.end(), 0);
  Rng rng(params_.seed);
  double flops = 0.0;
  const std::shared_ptr<const FeatureOrder> order =
      PresortFor(train, params_, ctx);
  GREEN_RETURN_IF_ERROR(FitCounted(train, all, order.get(), &rng, &flops));
  // Single-tree induction is mostly sequential (node-by-node greedy).
  ctx->ChargeCpu(flops, train.FeatureBytes(), /*parallel_fraction=*/0.3);
  if (ctx->Interrupted()) {
    return Status::DeadlineExceeded("decision_tree: interrupted mid-fit");
  }
  return Status::Ok();
}

std::shared_ptr<const FeatureOrder> DecisionTree::PresortFor(
    const Dataset& train, const DecisionTreeParams& params,
    ExecutionContext* ctx) {
  if (!UseTreeKernels(train) ||
      !UsesFeatureOrder(KernelParams(params),
                        train.task() == TaskType::kRegression)) {
    return nullptr;
  }
  TransformCache* cache = ctx != nullptr ? ctx->transform_cache() : nullptr;
  if (cache != nullptr) return cache->FeatureOrderFor(train);
  return std::make_shared<const FeatureOrder>(train);
}

Status DecisionTree::FitCounted(const Dataset& train,
                                const std::vector<size_t>& row_indices,
                                const FeatureOrder* order, Rng* rng,
                                double* flops) {
  if (train.num_rows() == 0 || row_indices.empty()) {
    return Status::InvalidArgument("decision_tree: empty training data");
  }
  nodes_.clear();
  if (UseTreeKernels(train)) {
    const TreeKernelParams kp = KernelParams(params_);
    const bool regression = train.task() == TaskType::kRegression;
    if (UsesFeatureOrder(kp, regression) &&
        (!order || order->num_rows() != train.num_rows() ||
         order->num_features() != train.num_features())) {
      return Status::FailedPrecondition(
          "decision_tree: exact kernel build needs the fit's FeatureOrder");
    }
    KernelSink sink(&nodes_);
    if (regression) {
      KernelBuildRegTree(train, row_indices, order, kp, rng, flops,
                         ScratchArena(), &sink);
    } else {
      KernelBuildClsTree(train, row_indices, order, kp, train.num_classes(),
                         rng, flops, ScratchArena(), &sink);
    }
  } else {
    std::vector<size_t> rows = row_indices;
    if (train.task() == TaskType::kRegression) {
      BuildRegNode(train, &rows, 0, rng, flops);
    } else {
      BuildNode(train, &rows, 0, rng, flops);
    }
  }

  // Mean leaf depth drives the per-row inference cost estimate.
  double total_depth = 0.0;
  size_t leaves = 0;
  std::vector<std::pair<int, int>> stack = {{0, 0}};  // (node, depth)
  while (!stack.empty()) {
    auto [idx, depth] = stack.back();
    stack.pop_back();
    const Node& node = nodes_[static_cast<size_t>(idx)];
    if (node.feature < 0) {
      total_depth += depth;
      ++leaves;
    } else {
      stack.push_back({node.left, depth + 1});
      stack.push_back({node.right, depth + 1});
    }
  }
  mean_leaf_depth_ = leaves > 0 ? total_depth / static_cast<double>(leaves)
                                : 0.0;
  MarkFitted(train.num_classes(), train.task());
  return Status::Ok();
}

int DecisionTree::BuildRegNode(const Dataset& train,
                               std::vector<size_t>* rows, int depth,
                               Rng* rng, double* flops) {
  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();

  const double n = static_cast<double>(rows->size());
  double sum = 0.0;
  double sumsq = 0.0;
  for (size_t r : *rows) {
    const double y = train.Target(r);
    sum += y;
    sumsq += y * y;
  }
  *flops += 2.0 * n;
  const double mean = sum / n;
  const double node_sse = sumsq - sum * sum / n;

  const bool stop = depth >= params_.max_depth ||
                    rows->size() <
                        2 * static_cast<size_t>(params_.min_samples_leaf) ||
                    node_sse <= 1e-12;
  if (stop) {
    nodes_[static_cast<size_t>(node_index)].proba = {mean};
    return node_index;
  }

  // Candidate feature subset (same policy as the classification path).
  const size_t d = train.num_features();
  std::vector<size_t> features(d);
  std::iota(features.begin(), features.end(), 0);
  if (params_.max_features_fraction > 0.0 &&
      params_.max_features_fraction < 1.0) {
    const size_t d_used = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(params_.max_features_fraction *
                                         static_cast<double>(d))));
    rng->Shuffle(&features);
    features.resize(d_used);
  }

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_sse = node_sse;  // Must strictly improve.

  std::vector<std::pair<double, size_t>> sorted;
  sorted.reserve(rows->size());
  std::vector<double> col;
  col.reserve(rows->size());
  for (size_t f : features) {
    if (params_.random_thresholds) {
      // Extra-Trees: one uniformly random threshold per feature. The
      // min/max pass gathers the column so the threshold scan below
      // reads the gathered copy instead of re-fetching every value.
      double lo = train.At((*rows)[0], f);
      double hi = lo;
      col.clear();
      for (size_t r : *rows) {
        const double v = train.At(r, f);
        col.push_back(v);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      *flops += n;
      if (hi - lo <= 1e-12) continue;
      const double thr = rng->NextUniform(lo, hi);
      double left_sum = 0.0;
      double left_sumsq = 0.0;
      double n_left = 0.0;
      for (size_t i = 0; i < col.size(); ++i) {
        if (col[i] <= thr) {
          const double y = train.Target((*rows)[i]);
          left_sum += y;
          left_sumsq += y * y;
          n_left += 1.0;
        }
      }
      *flops += 2.0 * n;
      const double n_right = n - n_left;
      if (n_left < params_.min_samples_leaf ||
          n_right < params_.min_samples_leaf) {
        continue;
      }
      const double right_sum = sum - left_sum;
      const double right_sumsq = sumsq - left_sumsq;
      const double sse = (left_sumsq - left_sum * left_sum / n_left) +
                         (right_sumsq - right_sum * right_sum / n_right);
      if (sse < best_sse - 1e-12) {
        best_sse = sse;
        best_feature = static_cast<int>(f);
        best_threshold = thr;
      }
      continue;
    }

    // Exact search: sort node rows by feature value, sweep split points
    // keeping running sums so each candidate is O(1).
    sorted.clear();
    for (size_t r : *rows) sorted.emplace_back(train.At(r, f), r);
    std::sort(sorted.begin(), sorted.end());
    *flops += n * std::log2(std::max(2.0, n));

    double left_sum = 0.0;
    double left_sumsq = 0.0;
    double n_left = 0.0;
    for (size_t i = 0; i + 1 < sorted.size(); ++i) {
      const double y = train.Target(sorted[i].second);
      left_sum += y;
      left_sumsq += y * y;
      n_left += 1.0;
      if (SkipSplitGap(sorted[i].first, sorted[i + 1].first)) continue;
      const double n_right = n - n_left;
      if (n_left < params_.min_samples_leaf ||
          n_right < params_.min_samples_leaf) {
        continue;
      }
      const double right_sum = sum - left_sum;
      const double right_sumsq = sumsq - left_sumsq;
      const double sse = (left_sumsq - left_sum * left_sum / n_left) +
                         (right_sumsq - right_sum * right_sum / n_right);
      if (sse < best_sse - 1e-12) {
        best_sse = sse;
        best_feature = static_cast<int>(f);
        best_threshold =
            SplitThreshold(sorted[i].first, sorted[i + 1].first);
      }
    }
    *flops += 4.0 * n;
  }

  if (best_feature < 0) {
    nodes_[static_cast<size_t>(node_index)].proba = {mean};
    return node_index;
  }

  std::vector<size_t> left_rows;
  std::vector<size_t> right_rows;
  for (size_t r : *rows) {
    if (train.At(r, static_cast<size_t>(best_feature)) <= best_threshold) {
      left_rows.push_back(r);
    } else {
      right_rows.push_back(r);
    }
  }
  rows->clear();
  rows->shrink_to_fit();

  const int left = BuildRegNode(train, &left_rows, depth + 1, rng, flops);
  const int right = BuildRegNode(train, &right_rows, depth + 1, rng, flops);
  Node& node = nodes_[static_cast<size_t>(node_index)];
  node.feature = best_feature;
  node.threshold = best_threshold;
  node.left = left;
  node.right = right;
  return node_index;
}

int DecisionTree::BuildNode(const Dataset& train, std::vector<size_t>* rows,
                            int depth, Rng* rng, double* flops) {
  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();

  std::vector<double> counts = ClassDistribution(train, *rows);
  const double n = static_cast<double>(rows->size());
  const double node_gini = Gini(counts, n);
  *flops += n;

  const bool stop = depth >= params_.max_depth ||
                    rows->size() <
                        2 * static_cast<size_t>(params_.min_samples_leaf) ||
                    node_gini <= 1e-12;
  if (stop) {
    Normalize(&counts);
    nodes_[static_cast<size_t>(node_index)].proba = std::move(counts);
    return node_index;
  }

  // Candidate feature subset.
  const size_t d = train.num_features();
  std::vector<size_t> features(d);
  std::iota(features.begin(), features.end(), 0);
  size_t d_used = d;
  if (params_.max_features_fraction > 0.0 &&
      params_.max_features_fraction < 1.0) {
    d_used = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(params_.max_features_fraction *
                                         static_cast<double>(d))));
    rng->Shuffle(&features);
    features.resize(d_used);
  }

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_score = node_gini;  // Must strictly improve.
  std::vector<double> left_counts(counts.size());

  std::vector<std::pair<double, size_t>> sorted;
  sorted.reserve(rows->size());
  std::vector<double> col;
  col.reserve(rows->size());
  for (size_t f : features) {
    if (params_.random_thresholds) {
      // Extra-Trees: one uniformly random threshold per feature. The
      // min/max pass gathers the column so the threshold scan below
      // reads the gathered copy instead of re-fetching every value.
      double lo = train.At((*rows)[0], f);
      double hi = lo;
      col.clear();
      for (size_t r : *rows) {
        const double v = train.At(r, f);
        col.push_back(v);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      *flops += n;
      if (hi - lo <= 1e-12) continue;
      const double thr = rng->NextUniform(lo, hi);
      std::fill(left_counts.begin(), left_counts.end(), 0.0);
      double n_left = 0.0;
      for (size_t i = 0; i < col.size(); ++i) {
        if (col[i] <= thr) {
          left_counts[static_cast<size_t>(train.Label((*rows)[i]))] += 1.0;
          n_left += 1.0;
        }
      }
      *flops += n;
      const double n_right = n - n_left;
      if (n_left < params_.min_samples_leaf ||
          n_right < params_.min_samples_leaf) {
        continue;
      }
      std::vector<double> right_counts(counts.size());
      for (size_t c = 0; c < counts.size(); ++c) {
        right_counts[c] = counts[c] - left_counts[c];
      }
      const double score = (n_left * Gini(left_counts, n_left) +
                            n_right * Gini(right_counts, n_right)) /
                           n;
      if (score < best_score - 1e-12) {
        best_score = score;
        best_feature = static_cast<int>(f);
        best_threshold = thr;
      }
      continue;
    }

    // Exact search: sort node rows by feature value, sweep split points.
    sorted.clear();
    for (size_t r : *rows) sorted.emplace_back(train.At(r, f), r);
    std::sort(sorted.begin(), sorted.end());
    *flops += n * std::log2(std::max(2.0, n));

    std::fill(left_counts.begin(), left_counts.end(), 0.0);
    double n_left = 0.0;
    for (size_t i = 0; i + 1 < sorted.size(); ++i) {
      const size_t r = sorted[i].second;
      left_counts[static_cast<size_t>(train.Label(r))] += 1.0;
      n_left += 1.0;
      if (SkipSplitGap(sorted[i].first, sorted[i + 1].first)) continue;
      const double n_right = n - n_left;
      if (n_left < params_.min_samples_leaf ||
          n_right < params_.min_samples_leaf) {
        continue;
      }
      double right_gini = 1.0;
      double left_gini = 1.0;
      for (size_t c = 0; c < counts.size(); ++c) {
        const double pl = left_counts[c] / n_left;
        const double pr = (counts[c] - left_counts[c]) / n_right;
        left_gini -= pl * pl;
        right_gini -= pr * pr;
      }
      const double score = (n_left * left_gini + n_right * right_gini) / n;
      if (score < best_score - 1e-12) {
        best_score = score;
        best_feature = static_cast<int>(f);
        best_threshold =
            SplitThreshold(sorted[i].first, sorted[i + 1].first);
      }
    }
    *flops += n * static_cast<double>(counts.size());
  }

  if (best_feature < 0) {
    Normalize(&counts);
    nodes_[static_cast<size_t>(node_index)].proba = std::move(counts);
    return node_index;
  }

  std::vector<size_t> left_rows;
  std::vector<size_t> right_rows;
  for (size_t r : *rows) {
    if (train.At(r, static_cast<size_t>(best_feature)) <= best_threshold) {
      left_rows.push_back(r);
    } else {
      right_rows.push_back(r);
    }
  }
  rows->clear();
  rows->shrink_to_fit();

  const int left = BuildNode(train, &left_rows, depth + 1, rng, flops);
  const int right = BuildNode(train, &right_rows, depth + 1, rng, flops);
  Node& node = nodes_[static_cast<size_t>(node_index)];
  node.feature = best_feature;
  node.threshold = best_threshold;
  node.left = left;
  node.right = right;
  return node_index;
}

const std::vector<double>& DecisionTree::RowProba(const Dataset& data,
                                                  size_t row,
                                                  double* flops) const {
  int idx = 0;
  for (;;) {
    const Node& node = nodes_[static_cast<size_t>(idx)];
    if (node.feature < 0) return node.proba;
    *flops += 2.0;
    idx = data.At(row, static_cast<size_t>(node.feature)) <= node.threshold
              ? node.left
              : node.right;
  }
}

void DecisionTree::PredictProbaCounted(const Dataset& data,
                                       ProbaMatrix* out,
                                       double* flops) const {
  out->resize(data.num_rows());
  for (size_t r = 0; r < data.num_rows(); ++r) {
    (*out)[r] = RowProba(data, r, flops);
  }
}

void DecisionTree::AccumulateProbaCounted(const Dataset& data, double* acc,
                                          size_t k, double* flops) const {
  for (size_t r = 0; r < data.num_rows(); ++r) {
    const std::vector<double>& proba = RowProba(data, r, flops);
    double* row = acc + r * k;
    for (size_t c = 0; c < proba.size(); ++c) row[c] += proba[c];
  }
}

Result<ProbaMatrix> DecisionTree::PredictProba(const Dataset& data,
                                               ExecutionContext* ctx) const {
  if (!fitted()) return Status::FailedPrecondition("tree not fitted");
  ChargeScope scope(ctx, Name());
  ProbaMatrix out;
  double flops = 0.0;
  PredictProbaCounted(data, &out, &flops);
  ctx->ChargeCpu(flops, data.FeatureBytes(), /*parallel_fraction=*/0.9);
  return out;
}

double DecisionTree::InferenceFlopsPerRow(size_t num_features) const {
  return 2.0 * std::max(1.0, mean_leaf_depth_);
}

}  // namespace green
