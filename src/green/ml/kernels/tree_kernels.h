#ifndef GREEN_ML_KERNELS_TREE_KERNELS_H_
#define GREEN_ML_KERNELS_TREE_KERNELS_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "green/common/arena.h"
#include "green/common/rng.h"
#include "green/table/dataset.h"

namespace green {

/// Split-search parameters shared by the tree learners (a superset of
/// DecisionTreeParams' split knobs plus GradientBoosting's).
struct TreeKernelParams {
  int max_depth = 8;
  int min_samples_leaf = 2;
  /// Features examined per split: 0 = all, otherwise ceil(fraction * d).
  double max_features_fraction = 0.0;
  /// Extra-Trees randomization: one uniform threshold per feature.
  bool random_thresholds = false;
  /// > 0 selects the fixed-bin histogram split scan instead of the exact
  /// presorted sweep (classification only). An opt-in APPROXIMATION: the
  /// chosen split may differ from the exact scan wherever a bin holds
  /// more than one distinct value, so no reproduced system sets it — the
  /// GREEN_KERNELS byte-identity invariant covers the default (0) mode.
  int histogram_bins = 0;
};

/// Receives the nodes a kernel tree build emits. Node indices are handed
/// out in the same preorder as the reference recursive builders, so a
/// sink writing into a flat node vector reproduces the reference layout
/// exactly.
class TreeNodeSink {
 public:
  virtual ~TreeNodeSink() = default;
  /// Appends an empty node, returning its index (called at node entry).
  virtual int ReserveNode() = 0;
  /// Classification leaf (normalized class distribution) or
  /// single-element regression leaf ({mean}).
  virtual void SetLeafProba(int node, std::vector<double> proba) = 0;
  /// Scalar regression leaf (gradient-boosting trees).
  virtual void SetLeafValue(int node, double value) = 0;
  virtual void SetSplit(int node, int feature, double threshold, int left,
                        int right) = 0;
};

/// A training set's presort: every row argsorted per feature, stored as
/// d x n row ids plus the values in that order. A fit (DecisionTree,
/// RandomForest, AdaBoost, GradientBoosting) obtains it once through
/// DecisionTree::PresortFor and hands it to every tree it grows; each
/// tree then derives its own slot stripes with an O(n + m) counting pass
/// instead of sorting. Immutable once built, so fits on other threads may
/// share one instance (TransformCache's presort memo does).
///
/// Ordering contract, per feature: ascending value, ties broken by row
/// id. NaN sorts after every number (NaNs among themselves by row id);
/// -0.0 and +0.0 compare equal and so fall back to row id. For NaN-free
/// columns this is exactly the order std::sort on (value, row) pairs
/// gives. The object owns its d * n * 12 bytes; the build's column
/// gather borrows the calling thread's ScratchArena() only while the
/// constructor runs.
class FeatureOrder {
 public:
  explicit FeatureOrder(const Dataset& train);

  size_t num_rows() const { return n_; }
  size_t num_features() const { return d_; }
  /// Row ids of feature `f` in sorted order (num_rows() entries).
  const uint32_t* rows(size_t f) const { return rid_.get() + f * n_; }
  /// Feature `f`'s values in the same order.
  const double* values(size_t f) const { return val_.get() + f * n_; }
  /// Bytes held by the two arrays.
  size_t bytes() const {
    return d_ * n_ * (sizeof(uint32_t) + sizeof(double));
  }

 private:
  size_t n_ = 0;
  size_t d_ = 0;
  std::unique_ptr<uint32_t[]> rid_;
  std::unique_ptr<double[]> val_;
};

/// The exact scans' candidate rule between adjacent sorted values
/// `a` <= `b`: no split where the gap is at most 1e-12, nor where the two
/// values are equal (two equal infinities differ by NaN, not by 0). A
/// number followed by NaN (a NaN gap) stays a candidate.
inline bool SkipSplitGap(double a, double b) {
  return b == a || b - a <= 1e-12;
}

/// The threshold of an exact-scan split between adjacent sorted values
/// `a` < `b`: their midpoint, or `a` itself where the midpoint is not
/// finite although `b` is a number (an infinite endpoint, or 1e308-scale
/// values whose sum overflows). `v <= a` still routes `a` left and `b`
/// right; the midpoint would route every row to one side. A NaN `b`
/// keeps its NaN midpoint.
inline double SplitThreshold(double a, double b) {
  const double mid = 0.5 * (a + b);
  return std::isfinite(mid) || std::isnan(b) ? mid : a;
}

/// Gini score of one exact-scan candidate, with the scan's arithmetic:
/// `left_tally` holds the left side's integer class counts, `counts` the
/// node's, over `k` classes.
inline double ExactGiniScore(const uint32_t* left_tally,
                             const double* counts, size_t k, double n_left,
                             double n_right, double n) {
  double right_gini = 1.0;
  double left_gini = 1.0;
  for (size_t c = 0; c < k; ++c) {
    const double lc = static_cast<double>(left_tally[c]);
    const double pl = lc / n_left;
    const double pr = (counts[c] - lc) / n_right;
    left_gini -= pl * pl;
    right_gini -= pr * pr;
  }
  return (n_left * left_gini + n_right * right_gini) / n;
}

/// Division-free screen of an exact-scan Gini candidate: true when the
/// candidate provably cannot pass `ExactGiniScore(...) < best_score -
/// 1e-12`, so the scan may skip scoring it. `sq_left` = sum of squared
/// left class counts, `sq_right` the same on the right.
///
/// Why it is safe. In real arithmetic the score is
///   S = 1 - (sq_left / n_left + sq_right / n_right) / n,
/// so the screen skips exactly when S >= T + 1e-9 with
/// T = fl(best_score - 1e-12), up to its own rounding: the int -> double
/// conversions and five products and sums of non-negative terms, a few
/// ulps relative, i.e. at most about 16 * 2^-53 of S. The float score
/// ExactGiniScore computes differs from S by at most about
/// (3k + 6) * 2^-53 (k divisions, squares and subtractions per side, two
/// products, a sum and a division). A skipped candidate's float score is
/// therefore at least T + 1e-9 - (3k + 22) * 2^-53 > T for every k below
/// about 3e6 classes, so the reference comparison would have rejected it.
/// Candidates the screen passes are scored exactly as before.
inline bool GiniScreenSkips(uint64_t sq_left, uint64_t sq_right,
                            double n_left, double n_right, double n,
                            double best_score) {
  return static_cast<double>(sq_left) * n_right +
             static_cast<double>(sq_right) * n_left <=
         (1.0 - (best_score - 1e-12) - 1e-9) * n * n_left * n_right;
}

/// Expands `order` to the slot stripes of the row sample `rows`
/// (duplicates allowed): writes d x m slots (positions in `rows`) and
/// their values, each stripe in the FeatureOrder's (value, row id)
/// order. The slots of one duplicated row come out adjacent and are
/// interchangeable, since they carry the same row. O(n + m) per feature
/// via a row -> slots table on `arena` (inside a scope); a plain copy
/// when `rows` is every row in order. Writes exactly d x m cells of
/// each output, never past them.
void ExpandFeatureOrder(const FeatureOrder& order,
                        const std::vector<size_t>& rows, Arena* arena,
                        uint32_t* spos, double* sval);

/// True when a kernel build with `params` runs the exact presorted split
/// search and therefore needs the fit's FeatureOrder. Regression builds
/// ignore `histogram_bins`.
bool UsesFeatureOrder(const TreeKernelParams& params, bool regression);

/// Builds a classification tree over `rows` (duplicates allowed —
/// bootstrap samples), mirroring DecisionTree::BuildNode bit-for-bit in
/// the default mode: identical RNG consumption, identical split choices,
/// identical leaf distributions, identical `*flops` accumulation. The
/// exact path expands the fit's `order` (required when
/// UsesFeatureOrder(params, false), otherwise ignored) into per-tree slot
/// stripes and stable-partitions them down the recursion; the
/// random-threshold path gathers each node's column once (fixing the
/// double At() fetch) and scans contiguous arrays. Scratch lives on
/// `arena` inside a scope.
void KernelBuildClsTree(const Dataset& train,
                        const std::vector<size_t>& rows,
                        const FeatureOrder* order,
                        const TreeKernelParams& params, int num_classes,
                        Rng* rng, double* flops, Arena* arena,
                        TreeNodeSink* sink);

/// Regression analogue of KernelBuildClsTree, mirroring
/// DecisionTree::BuildRegNode (SSE criterion, {mean} proba leaves).
void KernelBuildRegTree(const Dataset& train,
                        const std::vector<size_t>& rows,
                        const FeatureOrder* order,
                        const TreeKernelParams& params, Rng* rng,
                        double* flops, Arena* arena, TreeNodeSink* sink);

/// Per-round pristine stripes for gradient boosting: the k per-class
/// trees of one boosting round share the same row sample, so its slot
/// stripes are derived from the fit's FeatureOrder once per round and
/// memcpy'd into each tree's working arrays.
class GbRoundPresort {
 public:
  /// Rank-filters `order` down to `rows` (ExpandFeatureOrder: a plain
  /// copy when `rows` is every row). Storage borrows `arena`; keep the
  /// surrounding ArenaScope open for this object's lifetime.
  GbRoundPresort(const FeatureOrder& order, const std::vector<size_t>& rows,
                 Arena* arena);

  size_t num_rows() const { return m_; }
  size_t num_features() const { return d_; }
  /// Slot -> original row id.
  const uint32_t* row_ids() const { return rid_; }
  /// Feature `f`'s slots in sorted order (num_rows() entries).
  const uint32_t* slots(size_t f) const { return spos_ + f * m_; }
  /// Feature `f`'s values in the same order.
  const double* values(size_t f) const { return sval_ + f * m_; }

 private:
  size_t m_ = 0;
  size_t d_ = 0;
  const uint32_t* rid_ = nullptr;
  const uint32_t* spos_ = nullptr;  ///< d x m sorted slot lists.
  const double* sval_ = nullptr;    ///< d x m values in sorted order.
};

/// Builds one gradient-boosting regression tree over the presorted round
/// cache, mirroring GradientBoosting::BuildRegNode bit-for-bit
/// (variance-reduction gain, scalar mean leaves, identical `*flops`).
/// `targets` is indexed by original row id.
void KernelBuildGbTree(const GbRoundPresort& presort,
                       const std::vector<double>& targets,
                       const TreeKernelParams& params, double* flops,
                       Arena* arena, TreeNodeSink* sink);

}  // namespace green

#endif  // GREEN_ML_KERNELS_TREE_KERNELS_H_
