#include "green/ml/kernels/tree_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "green/ml/kernels/histogram.h"

// Bit-identity contract (see kernels.h): every loop here reproduces the
// reference builders in decision_tree.cc / gradient_boosting.cc — same
// RNG draws, same candidate skip conditions, same strict-improvement
// comparisons, and the same accumulation order for every floating-point
// sum that reaches a model output. Integer class counts are order-free,
// so those loops may run over any enumeration of a node's rows; target
// sums are NOT, so node-order slot lists are carried down the recursion
// alongside the presorted per-feature lists. Work (`*flops`) is charged
// from logical dimensions at the same program points as the reference,
// never from what the kernel actually executes. The exact Gini scan also
// screens candidates without dividing (GiniScreenSkips); it skips only
// candidates the reference comparison provably rejects, so the chosen
// splits do not change.

namespace green {

namespace {

/// Gini impurity of a count vector with total `n` (mirrors the reference
/// helper in decision_tree.cc bit-for-bit).
double Gini(const std::vector<double>& counts, double n) {
  if (n <= 0.0) return 0.0;
  double g = 1.0;
  for (double c : counts) {
    const double p = c / n;
    g -= p * p;
  }
  return g;
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

enum class TreeMode { kExact, kApprox, kHistogram };

TreeMode ModeFor(const TreeKernelParams& p) {
  if (p.random_thresholds) return TreeMode::kApprox;
  if (p.histogram_bins > 0) return TreeMode::kHistogram;
  return TreeMode::kExact;
}

/// Per-tree working set. A "slot" is a position in the original row
/// sample (duplicates from bootstrap sampling get distinct slots), so
/// every per-slot array is immune to repeated row ids. Exact mode keeps
/// d presorted (slot, value) stripes that are stable-partitioned down
/// the recursion; approx/histogram modes keep the gathered column-major
/// matrix instead and gather each node's column contiguously once.
struct TreeWorkspace {
  size_t m = 0;
  size_t d = 0;
  uint32_t* rid = nullptr;    ///< slot -> original row id
  int32_t* lab = nullptr;     ///< slot -> label (classification)
  double* tgt = nullptr;      ///< slot -> target (regression / boosting)
  uint32_t* nslot = nullptr;  ///< node-order slot list (all modes)
  uint8_t* flag = nullptr;    ///< per-slot left/right partition flag
  uint32_t* uscratch = nullptr;
  double* dscratch = nullptr;
  uint32_t* spos = nullptr;  ///< d x m sorted slots (exact mode)
  double* sval = nullptr;    ///< d x m sorted values (exact mode)
  double* colT = nullptr;    ///< d x m column-major values (approx/hist)
  double* vals = nullptr;    ///< per-node contiguous column gather
  int32_t* nlab = nullptr;   ///< per-node contiguous labels (approx/hist)
  double* ntgt = nullptr;    ///< per-node contiguous targets (approx)
  double* hist = nullptr;    ///< histogram scratch, (bins + 2) * k
};

/// One row-major pass over the sample writing the transposed d x m
/// column-major matrix; every later column scan is then contiguous.
void GatherTransposed(const Dataset& train, const uint32_t* rid, size_t m,
                      size_t d, double* colT) {
  for (size_t slot = 0; slot < m; ++slot) {
    const double* row = train.RowPtr(rid[slot]);
    for (size_t f = 0; f < d; ++f) colT[f * m + slot] = row[f];
  }
}

/// Argsorts each of the d columns of the n x d column-major `colT`
/// (slot == row id) by the FeatureOrder contract. NaN cells are moved
/// behind the numbers first, in row-id order, so the sort only compares
/// numbers; (value, row id) is then a strict weak ordering, as std::sort
/// requires, and -0.0 == +0.0 falls back to row id. (This comparator
/// shape sorts measurably faster under GCC than `va != vb ? ...`.)
void PresortStripes(const double* colT, size_t n, size_t d, uint32_t* rid,
                    double* val) {
  for (size_t f = 0; f < d; ++f) {
    const double* colf = colT + f * n;
    uint32_t* sp = rid + f * n;
    size_t numbers = 0;
    for (size_t r = 0; r < n; ++r) {
      if (!std::isnan(colf[r])) sp[numbers++] = static_cast<uint32_t>(r);
    }
    for (size_t r = 0, k = numbers; k < n; ++r) {
      if (std::isnan(colf[r])) sp[k++] = static_cast<uint32_t>(r);
    }
    std::sort(sp, sp + numbers, [colf](uint32_t a, uint32_t b) {
      const double va = colf[a];
      const double vb = colf[b];
      if (va < vb) return true;
      if (vb < va) return false;
      return a < b;
    });
    double* sv = val + f * n;
    for (size_t i = 0; i < n; ++i) sv[i] = colf[sp[i]];
  }
}

/// True when `rows` is 0, 1, ..., n - 1: slot i is row i.
bool IsEveryRowInOrder(const std::vector<size_t>& rows, size_t n) {
  if (rows.size() != n) return false;
  for (size_t i = 0; i < n; ++i) {
    if (rows[i] != i) return false;
  }
  return true;
}

void InitWorkspace(const Dataset& train, const std::vector<size_t>& rows,
                   const FeatureOrder* order, TreeMode mode,
                   bool classification,
                   const std::vector<double>* ext_targets, int hist_bins,
                   int k, Arena* arena, TreeWorkspace* ws) {
  const size_t m = rows.size();
  const size_t d = train.num_features();
  ws->m = m;
  ws->d = d;
  ws->rid = arena->AllocArray<uint32_t>(m);
  for (size_t i = 0; i < m; ++i) {
    ws->rid[i] = static_cast<uint32_t>(rows[i]);
  }
  if (classification) {
    ws->lab = arena->AllocArray<int32_t>(m);
    for (size_t i = 0; i < m; ++i) {
      ws->lab[i] = train.Label(ws->rid[i]);
    }
  } else {
    ws->tgt = arena->AllocArray<double>(m);
    for (size_t i = 0; i < m; ++i) {
      ws->tgt[i] = ext_targets != nullptr
                       ? (*ext_targets)[ws->rid[i]]
                       : train.Target(ws->rid[i]);
    }
  }
  ws->nslot = arena->AllocArray<uint32_t>(m);
  std::iota(ws->nslot, ws->nslot + m, uint32_t{0});
  ws->flag = arena->AllocArray<uint8_t>(m);
  ws->uscratch = arena->AllocArray<uint32_t>(m);
  ws->dscratch = arena->AllocArray<double>(m);

  if (mode == TreeMode::kExact) {
    ws->spos = arena->AllocArray<uint32_t>(d * m);
    ws->sval = arena->AllocArray<double>(d * m);
    ExpandFeatureOrder(*order, rows, arena, ws->spos, ws->sval);
  } else {
    ws->colT = arena->AllocArray<double>(d * m);
    GatherTransposed(train, ws->rid, m, d, ws->colT);
    ws->vals = arena->AllocArray<double>(m);
    if (classification) {
      ws->nlab = arena->AllocArray<int32_t>(m);
    } else {
      ws->ntgt = arena->AllocArray<double>(m);
    }
    if (mode == TreeMode::kHistogram) {
      ws->hist = arena->AllocArray<double>(
          (static_cast<size_t>(hist_bins) + 2) * static_cast<size_t>(k));
    }
  }
}

/// Stable-partitions the node-order slot list [lo, hi) by per-slot flag
/// (1 = left). Returns the left-block size. Branch-free: every slot is
/// written to both the in-place left cursor and the right scratch
/// cursor, and only the cursor its flag selects advances.
size_t PartitionNodeOrder(TreeWorkspace* ws, size_t lo, size_t hi) {
  uint32_t* ns = ws->nslot + lo;
  const size_t len = hi - lo;
  size_t nl = 0;
  size_t nr = 0;
  for (size_t i = 0; i < len; ++i) {
    const uint32_t slot = ns[i];
    const size_t left = ws->flag[slot];
    ns[nl] = slot;
    ws->uscratch[nr] = slot;
    nl += left;
    nr += 1 - left;
  }
  std::memcpy(ns + nl, ws->uscratch, nr * sizeof(uint32_t));
  return nl;
}

/// Stable-partitions every presorted stripe's [lo, hi) subrange by the
/// per-slot flags, with PartitionNodeOrder's branch-free double write.
/// Left-compaction writes in place (the left cursor never passes the
/// read index); the right side stages through scratch. A sorted
/// subsequence filtered stably stays sorted, so each child stripe needs
/// no re-sort. Stripe `split_feature` is skipped: its left block is
/// already its prefix.
void PartitionStripes(TreeWorkspace* ws, size_t lo, size_t hi,
                      size_t split_feature) {
  const size_t len = hi - lo;
  for (size_t f = 0; f < ws->d; ++f) {
    if (f == split_feature) continue;
    uint32_t* sp = ws->spos + f * ws->m + lo;
    double* sv = ws->sval + f * ws->m + lo;
    size_t nl = 0;
    size_t nr = 0;
    for (size_t i = 0; i < len; ++i) {
      const uint32_t slot = sp[i];
      const double v = sv[i];
      const size_t left = ws->flag[slot];
      sp[nl] = slot;
      sv[nl] = v;
      ws->uscratch[nr] = slot;
      ws->dscratch[nr] = v;
      nl += left;
      nr += 1 - left;
    }
    std::memcpy(sp + nl, ws->uscratch, nr * sizeof(uint32_t));
    std::memcpy(sv + nl, ws->dscratch, nr * sizeof(double));
  }
}

/// Shared builder state for the three tree flavors.
struct TreeBuilder {
  const TreeKernelParams* params = nullptr;
  TreeMode mode = TreeMode::kExact;
  Rng* rng = nullptr;
  double* flops = nullptr;
  TreeNodeSink* sink = nullptr;
  TreeWorkspace ws;

  // Reused per-node scratch (consumed before recursing).
  std::vector<double> counts;
  std::vector<uint32_t> node_tally;  ///< Integer node class counts.
  std::vector<uint32_t> left_tally;  ///< Integer left-side class counts.
  std::vector<double> left_counts;
  std::vector<double> right_counts;
  std::vector<size_t> features;

  /// Candidate feature subset with the reference's exact RNG
  /// consumption: the full index vector is shuffled, then truncated.
  void SelectFeatures(size_t d) {
    features.resize(d);
    std::iota(features.begin(), features.end(), size_t{0});
    if (params->max_features_fraction > 0.0 &&
        params->max_features_fraction < 1.0) {
      const size_t d_used = std::max<size_t>(
          1,
          static_cast<size_t>(std::ceil(params->max_features_fraction *
                                        static_cast<double>(d))));
      rng->Shuffle(&features);
      features.resize(d_used);
    }
  }

  /// Gathers node column `f` contiguously (the reference's first At()
  /// scan) returning min/max; the split scan then reads the gathered
  /// copy instead of re-fetching every value.
  void GatherNodeColumn(size_t f, size_t lo, size_t hi, double* lo_v,
                        double* hi_v) {
    const double* colf = ws.colT + f * ws.m;
    double lov = colf[ws.nslot[lo]];
    double hiv = lov;
    for (size_t i = lo; i < hi; ++i) {
      const double v = colf[ws.nslot[i]];
      ws.vals[i - lo] = v;
      lov = std::min(lov, v);
      hiv = std::max(hiv, v);
    }
    *lo_v = lov;
    *hi_v = hiv;
  }

  /// Flags + partitions for an exact-mode split: the left block is the
  /// `v <= thr` prefix of the best feature's sorted subrange, and every
  /// other stripe plus the node-order list partitions stably by slot.
  size_t SplitExact(size_t lo, size_t hi, size_t best_feature,
                    double threshold) {
    const double* svb = ws.sval + best_feature * ws.m;
    const uint32_t* spb = ws.spos + best_feature * ws.m;
    // NaN sits after every number in the stripe, so it counts as
    // greater than any threshold; the range stays partitioned.
    const size_t nl = static_cast<size_t>(
        std::upper_bound(svb + lo, svb + hi, threshold,
                         [](double t, double v) {
                           return t < v || std::isnan(v);
                         }) -
        (svb + lo));
    for (size_t i = lo; i < hi; ++i) {
      ws.flag[spb[i]] = i < lo + nl ? 1 : 0;
    }
    PartitionStripes(&ws, lo, hi, best_feature);
    PartitionNodeOrder(&ws, lo, hi);
    return nl;
  }

  /// Flags + partitions for approx/histogram splits (predicate
  /// `value <= thr`, exactly the reference's row routing).
  size_t SplitByColumn(size_t lo, size_t hi, size_t best_feature,
                       double threshold) {
    const double* colf = ws.colT + best_feature * ws.m;
    for (size_t i = lo; i < hi; ++i) {
      const uint32_t slot = ws.nslot[i];
      ws.flag[slot] = colf[slot] <= threshold ? 1 : 0;
    }
    return PartitionNodeOrder(&ws, lo, hi);
  }

  int BuildClsNode(int num_classes, size_t lo, size_t hi, int depth);
  int BuildRegNode(size_t lo, size_t hi, int depth);
  int BuildGbNode(size_t lo, size_t hi, int depth);
};

int TreeBuilder::BuildClsNode(int num_classes, size_t lo, size_t hi,
                              int depth) {
  const int node_index = sink->ReserveNode();
  const TreeKernelParams& p = *params;
  const size_t len = hi - lo;
  const double n = static_cast<double>(len);
  const size_t kk = static_cast<size_t>(num_classes);

  // Integer tallies convert to exactly the doubles repeated `+= 1.0`
  // reaches (counts < 2^53).
  node_tally.assign(kk, 0u);
  for (size_t i = lo; i < hi; ++i) {
    ++node_tally[static_cast<size_t>(ws.lab[ws.nslot[i]])];
  }
  counts.resize(kk);
  uint64_t node_sq = 0;
  for (size_t c = 0; c < kk; ++c) {
    counts[c] = static_cast<double>(node_tally[c]);
    node_sq += uint64_t{node_tally[c]} * node_tally[c];
  }
  const double node_gini = Gini(counts, n);
  *flops += n;

  const bool stop =
      depth >= p.max_depth ||
      len < 2 * static_cast<size_t>(p.min_samples_leaf) ||
      node_gini <= 1e-12;
  if (stop) {
    std::vector<double> proba = counts;
    Normalize(&proba);
    sink->SetLeafProba(node_index, std::move(proba));
    return node_index;
  }

  SelectFeatures(ws.d);

  if (mode != TreeMode::kExact) {
    // Approx/histogram modes scan contiguous node gathers; stage the
    // node's labels once so every feature's pass is indirection-free.
    for (size_t i = lo; i < hi; ++i) {
      ws.nlab[i - lo] = ws.lab[ws.nslot[i]];
    }
  }

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_score = node_gini;  // Must strictly improve.
  left_tally.resize(kk);
  left_counts.resize(kk);

  for (size_t f : features) {
    if (mode == TreeMode::kApprox) {
      // Extra-Trees: one uniformly random threshold per feature.
      double lov;
      double hiv;
      GatherNodeColumn(f, lo, hi, &lov, &hiv);
      *flops += n;
      if (hiv - lov <= 1e-12) continue;
      const double thr = rng->NextUniform(lov, hiv);
      std::fill(left_tally.begin(), left_tally.end(), 0u);
      size_t left_n = 0;
      for (size_t i = 0; i < len; ++i) {
        const uint32_t le = ws.vals[i] <= thr;
        left_tally[static_cast<size_t>(ws.nlab[i])] += le;
        left_n += le;
      }
      *flops += n;
      for (size_t c = 0; c < kk; ++c) {
        left_counts[c] = static_cast<double>(left_tally[c]);
      }
      const double n_left = static_cast<double>(left_n);
      const double n_right = n - n_left;
      if (n_left < p.min_samples_leaf || n_right < p.min_samples_leaf) {
        continue;
      }
      right_counts.assign(kk, 0.0);
      for (size_t c = 0; c < kk; ++c) {
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

    if (mode == TreeMode::kHistogram) {
      double lov;
      double hiv;
      GatherNodeColumn(f, lo, hi, &lov, &hiv);
      *flops += n;
      if (hiv - lov <= 1e-12) continue;
      const HistogramSplit hs = HistogramSplitScanCls(
          ws.vals, ws.nlab, len, num_classes, lov, hiv, p.histogram_bins,
          p.min_samples_leaf, ws.hist);
      // Logical cost: one binning pass plus the bin-edge sweep.
      *flops += n + static_cast<double>(p.histogram_bins) *
                        static_cast<double>(num_classes);
      if (hs.found && hs.score < best_score - 1e-12) {
        best_score = hs.score;
        best_feature = static_cast<int>(f);
        best_threshold = hs.threshold;
      }
      continue;
    }

    // Exact search over the presorted stripe. The reference sorts this
    // node's rows here; the stripe already holds exactly that order, so
    // only the sort's logical cost is charged.
    const uint32_t* sp = ws.spos + f * ws.m;
    const double* sv = ws.sval + f * ws.m;
    *flops += n * std::log2(std::max(2.0, n));

    // Exact sums of squared class counts on each side, updated in O(1)
    // per row, feed the division-free screen: a candidate it rejects
    // provably cannot beat best_score (bound at GiniScreenSkips), so only
    // the survivors pay the k-class division loop.
    std::fill(left_tally.begin(), left_tally.end(), 0u);
    uint64_t sq_left = 0;
    uint64_t sq_right = node_sq;
    for (size_t i = lo; i + 1 < hi; ++i) {
      const size_t c = static_cast<size_t>(ws.lab[sp[i]]);
      const uint64_t lc = left_tally[c]++;
      sq_left += 2 * lc + 1;
      sq_right -= 2 * (node_tally[c] - lc) - 1;
      if (SkipSplitGap(sv[i], sv[i + 1])) continue;
      const double n_left = static_cast<double>(i + 1 - lo);
      const double n_right = n - n_left;
      if (n_left < p.min_samples_leaf || n_right < p.min_samples_leaf) {
        continue;
      }
      if (GiniScreenSkips(sq_left, sq_right, n_left, n_right, n,
                          best_score)) {
        continue;
      }
      const double score = ExactGiniScore(left_tally.data(), counts.data(),
                                          kk, n_left, n_right, n);
      if (score < best_score - 1e-12) {
        best_score = score;
        best_feature = static_cast<int>(f);
        best_threshold = SplitThreshold(sv[i], sv[i + 1]);
      }
    }
    *flops += n * static_cast<double>(kk);
  }

  if (best_feature < 0) {
    std::vector<double> proba = counts;
    Normalize(&proba);
    sink->SetLeafProba(node_index, std::move(proba));
    return node_index;
  }

  const size_t nl =
      mode == TreeMode::kExact
          ? SplitExact(lo, hi, static_cast<size_t>(best_feature),
                       best_threshold)
          : SplitByColumn(lo, hi, static_cast<size_t>(best_feature),
                          best_threshold);
  const size_t mid = lo + nl;
  const int left = BuildClsNode(num_classes, lo, mid, depth + 1);
  const int right = BuildClsNode(num_classes, mid, hi, depth + 1);
  sink->SetSplit(node_index, best_feature, best_threshold, left, right);
  return node_index;
}

int TreeBuilder::BuildRegNode(size_t lo, size_t hi, int depth) {
  const int node_index = sink->ReserveNode();
  const TreeKernelParams& p = *params;
  const size_t len = hi - lo;
  const double n = static_cast<double>(len);

  // Node-order accumulation: bit-identical to the reference's row loop.
  double sum = 0.0;
  double sumsq = 0.0;
  for (size_t i = lo; i < hi; ++i) {
    const double y = ws.tgt[ws.nslot[i]];
    sum += y;
    sumsq += y * y;
  }
  *flops += 2.0 * n;
  const double mean = sum / n;
  const double node_sse = sumsq - sum * sum / n;

  const bool stop = depth >= p.max_depth ||
                    len < 2 * static_cast<size_t>(p.min_samples_leaf) ||
                    node_sse <= 1e-12;
  if (stop) {
    sink->SetLeafProba(node_index, {mean});
    return node_index;
  }

  SelectFeatures(ws.d);

  if (mode == TreeMode::kApprox) {
    for (size_t i = lo; i < hi; ++i) {
      ws.ntgt[i - lo] = ws.tgt[ws.nslot[i]];
    }
  }

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_sse = node_sse;  // Must strictly improve.

  for (size_t f : features) {
    if (mode == TreeMode::kApprox) {
      double lov;
      double hiv;
      GatherNodeColumn(f, lo, hi, &lov, &hiv);
      *flops += n;
      if (hiv - lov <= 1e-12) continue;
      const double thr = rng->NextUniform(lov, hiv);
      double left_sum = 0.0;
      double left_sumsq = 0.0;
      size_t left_n = 0;
      for (size_t i = 0; i < len; ++i) {
        // A right-side row adds +0.0, which is exact: the sums start at
        // +0.0 and so can never become -0.0.
        const bool le = ws.vals[i] <= thr;
        const double y = le ? ws.ntgt[i] : 0.0;
        left_sum += y;
        left_sumsq += y * y;
        left_n += le;
      }
      *flops += 2.0 * n;
      const double n_left = static_cast<double>(left_n);
      const double n_right = n - n_left;
      if (n_left < p.min_samples_leaf || n_right < p.min_samples_leaf) {
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

    const uint32_t* sp = ws.spos + f * ws.m;
    const double* sv = ws.sval + f * ws.m;
    *flops += n * std::log2(std::max(2.0, n));

    double left_sum = 0.0;
    double left_sumsq = 0.0;
    for (size_t i = lo; i + 1 < hi; ++i) {
      const double y = ws.tgt[sp[i]];
      left_sum += y;
      left_sumsq += y * y;
      if (SkipSplitGap(sv[i], sv[i + 1])) continue;
      const double n_left = static_cast<double>(i + 1 - lo);
      const double n_right = n - n_left;
      if (n_left < p.min_samples_leaf || n_right < p.min_samples_leaf) {
        continue;
      }
      const double right_sum = sum - left_sum;
      const double right_sumsq = sumsq - left_sumsq;
      const double sse = (left_sumsq - left_sum * left_sum / n_left) +
                         (right_sumsq - right_sum * right_sum / n_right);
      if (sse < best_sse - 1e-12) {
        best_sse = sse;
        best_feature = static_cast<int>(f);
        best_threshold = SplitThreshold(sv[i], sv[i + 1]);
      }
    }
    *flops += 4.0 * n;
  }

  if (best_feature < 0) {
    sink->SetLeafProba(node_index, {mean});
    return node_index;
  }

  const size_t nl =
      mode == TreeMode::kExact
          ? SplitExact(lo, hi, static_cast<size_t>(best_feature),
                       best_threshold)
          : SplitByColumn(lo, hi, static_cast<size_t>(best_feature),
                          best_threshold);
  const size_t mid = lo + nl;
  const int left = BuildRegNode(lo, mid, depth + 1);
  const int right = BuildRegNode(mid, hi, depth + 1);
  sink->SetSplit(node_index, best_feature, best_threshold, left, right);
  return node_index;
}

int TreeBuilder::BuildGbNode(size_t lo, size_t hi, int depth) {
  const int node_index = sink->ReserveNode();
  const TreeKernelParams& p = *params;
  const size_t len = hi - lo;
  const double n = static_cast<double>(len);

  double sum = 0.0;
  for (size_t i = lo; i < hi; ++i) sum += ws.tgt[ws.nslot[i]];
  const double mean = n > 0.0 ? sum / n : 0.0;
  *flops += n;

  const bool stop = depth >= p.max_depth ||
                    len < 2 * static_cast<size_t>(p.min_samples_leaf);
  if (!stop) {
    // Exact variance-reduction split search over all features.
    double best_gain = 1e-10;
    int best_feature = -1;
    double best_threshold = 0.0;
    for (size_t f = 0; f < ws.d; ++f) {
      const uint32_t* sp = ws.spos + f * ws.m;
      const double* sv = ws.sval + f * ws.m;
      *flops += n * std::log2(std::max(2.0, n));
      double left_sum = 0.0;
      for (size_t i = lo; i + 1 < hi; ++i) {
        left_sum += ws.tgt[sp[i]];
        if (SkipSplitGap(sv[i], sv[i + 1])) continue;
        const double left_n = static_cast<double>(i + 1 - lo);
        const double right_n = n - left_n;
        if (left_n < p.min_samples_leaf || right_n < p.min_samples_leaf) {
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
          best_threshold = SplitThreshold(sv[i], sv[i + 1]);
        }
      }
      *flops += n;
    }
    if (best_feature >= 0) {
      const size_t nl = SplitExact(lo, hi, static_cast<size_t>(best_feature),
                                   best_threshold);
      const size_t mid = lo + nl;
      const int left = BuildGbNode(lo, mid, depth + 1);
      const int right = BuildGbNode(mid, hi, depth + 1);
      sink->SetSplit(node_index, best_feature, best_threshold, left, right);
      return node_index;
    }
  }
  sink->SetLeafValue(node_index, mean);
  return node_index;
}

}  // namespace

FeatureOrder::FeatureOrder(const Dataset& train)
    : n_(train.num_rows()),
      d_(train.num_features()),
      rid_(std::make_unique_for_overwrite<uint32_t[]>(d_ * n_)),
      val_(std::make_unique_for_overwrite<double[]>(d_ * n_)) {
  // The column gather only feeds the presort; reclaim it.
  Arena* arena = ScratchArena();
  ArenaScope gather_scope(arena);
  double* colT = arena->AllocArray<double>(d_ * n_);
  for (size_t r = 0; r < n_; ++r) {
    const double* row = train.RowPtr(r);
    for (size_t f = 0; f < d_; ++f) colT[f * n_ + r] = row[f];
  }
  PresortStripes(colT, n_, d_, rid_.get(), val_.get());
}

void ExpandFeatureOrder(const FeatureOrder& order,
                        const std::vector<size_t>& rows, Arena* arena,
                        uint32_t* spos, double* sval) {
  const size_t n = order.num_rows();
  const size_t m = rows.size();
  if (IsEveryRowInOrder(rows, n)) {
    // Slot == row id: the stripes are the shared order itself.
    const size_t cells = order.num_features() * n;
    std::memcpy(spos, order.rows(0), cells * sizeof(uint32_t));
    std::memcpy(sval, order.values(0), cells * sizeof(double));
    return;
  }
  ArenaScope scope(arena);
  // Row -> bootstrap-slots table: the slots of row r are
  // by_row[start[r], start[r + 1]), ascending.
  uint32_t* start = arena->AllocArray<uint32_t>(n + 1);
  std::fill(start, start + n + 1, uint32_t{0});
  for (size_t s = 0; s < m; ++s) ++start[rows[s] + 1];
  for (size_t r = 0; r < n; ++r) start[r + 1] += start[r];
  uint32_t* cursor = arena->AllocArray<uint32_t>(n);
  std::memcpy(cursor, start, n * sizeof(uint32_t));
  // Two zeroed pad entries: the unconditional two-slot read below may
  // look up to start[r] + 1 <= m + 1.
  uint32_t* by_row = arena->AllocArray<uint32_t>(m + 2);
  by_row[m] = by_row[m + 1] = 0;
  for (size_t s = 0; s < m; ++s) {
    by_row[cursor[rows[s]]++] = static_cast<uint32_t>(s);
  }
  // One walk of the shared order per feature emits every sampled row's
  // slots at its rank: the per-sample (value, row id) order, no sort.
  for (size_t f = 0; f < order.num_features(); ++f) {
    const uint32_t* fr = order.rows(f);
    const double* fv = order.values(f);
    uint32_t* sp = spos + f * m;
    double* sv = sval + f * m;
    size_t k = 0;
    size_t i = 0;
    // Bootstrap copy counts are mostly 0, 1 or 2: write two slots
    // unconditionally and advance by the row's count; only rows with
    // more copies loop. A slot written past the count holds junk until
    // a later row overwrites it, so this runs only while k + 2 <= m.
    for (; k + 2 <= m; ++i) {
      const uint32_t r = fr[i];
      const double v = fv[i];
      const uint32_t j = start[r];
      const uint32_t copies = start[r + 1] - j;
      sp[k] = by_row[j];
      sp[k + 1] = by_row[j + 1];
      sv[k] = v;
      sv[k + 1] = v;
      for (uint32_t c = 2; c < copies; ++c) {
        sp[k + c] = by_row[j + c];
        sv[k + c] = v;
      }
      k += copies;
    }
    // The last slot or two, exactly.
    for (; k < m; ++i) {
      const uint32_t r = fr[i];
      for (uint32_t j = start[r], end = start[r + 1]; j < end; ++j) {
        sp[k] = by_row[j];
        sv[k] = fv[i];
        ++k;
      }
    }
  }
}

bool UsesFeatureOrder(const TreeKernelParams& params, bool regression) {
  return !params.random_thresholds &&
         (regression || params.histogram_bins <= 0);
}

void KernelBuildClsTree(const Dataset& train,
                        const std::vector<size_t>& rows,
                        const FeatureOrder* order,
                        const TreeKernelParams& params, int num_classes,
                        Rng* rng, double* flops, Arena* arena,
                        TreeNodeSink* sink) {
  ArenaScope scope(arena);
  TreeBuilder b;
  b.params = &params;
  b.mode = ModeFor(params);
  b.rng = rng;
  b.flops = flops;
  b.sink = sink;
  InitWorkspace(train, rows, order, b.mode, /*classification=*/true,
                /*ext_targets=*/nullptr, params.histogram_bins, num_classes,
                arena, &b.ws);
  b.BuildClsNode(num_classes, 0, rows.size(), 0);
}

void KernelBuildRegTree(const Dataset& train,
                        const std::vector<size_t>& rows,
                        const FeatureOrder* order,
                        const TreeKernelParams& params, Rng* rng,
                        double* flops, Arena* arena, TreeNodeSink* sink) {
  ArenaScope scope(arena);
  TreeBuilder b;
  b.params = &params;
  // The regression reference has no histogram path; histogram_bins only
  // redirects classification scans.
  b.mode = params.random_thresholds ? TreeMode::kApprox : TreeMode::kExact;
  b.rng = rng;
  b.flops = flops;
  b.sink = sink;
  InitWorkspace(train, rows, order, b.mode, /*classification=*/false,
                /*ext_targets=*/nullptr, /*hist_bins=*/0, /*k=*/1, arena,
                &b.ws);
  b.BuildRegNode(0, rows.size(), 0);
}

GbRoundPresort::GbRoundPresort(const FeatureOrder& order,
                               const std::vector<size_t>& rows,
                               Arena* arena) {
  m_ = rows.size();
  d_ = order.num_features();
  uint32_t* rid = arena->AllocArray<uint32_t>(m_);
  for (size_t i = 0; i < m_; ++i) rid[i] = static_cast<uint32_t>(rows[i]);
  uint32_t* spos = arena->AllocArray<uint32_t>(d_ * m_);
  double* sval = arena->AllocArray<double>(d_ * m_);
  ExpandFeatureOrder(order, rows, arena, spos, sval);
  rid_ = rid;
  spos_ = spos;
  sval_ = sval;
}

void KernelBuildGbTree(const GbRoundPresort& presort,
                       const std::vector<double>& targets,
                       const TreeKernelParams& params, double* flops,
                       Arena* arena, TreeNodeSink* sink) {
  ArenaScope scope(arena);
  const size_t m = presort.num_rows();
  const size_t d = presort.num_features();
  TreeBuilder b;
  b.params = &params;
  b.mode = TreeMode::kExact;
  b.flops = flops;
  b.sink = sink;
  b.ws.m = m;
  b.ws.d = d;
  // Working copies: the per-class trees of one round partition the same
  // presorted stripes differently, so each starts from the pristine copy.
  b.ws.spos = arena->AllocArray<uint32_t>(d * m);
  b.ws.sval = arena->AllocArray<double>(d * m);
  std::memcpy(b.ws.spos, presort.slots(0), d * m * sizeof(uint32_t));
  std::memcpy(b.ws.sval, presort.values(0), d * m * sizeof(double));
  const uint32_t* rid = presort.row_ids();
  b.ws.tgt = arena->AllocArray<double>(m);
  for (size_t i = 0; i < m; ++i) b.ws.tgt[i] = targets[rid[i]];
  b.ws.nslot = arena->AllocArray<uint32_t>(m);
  std::iota(b.ws.nslot, b.ws.nslot + m, uint32_t{0});
  b.ws.flag = arena->AllocArray<uint8_t>(m);
  b.ws.uscratch = arena->AllocArray<uint32_t>(m);
  b.ws.dscratch = arena->AllocArray<double>(m);
  b.BuildGbNode(0, m, 0);
}

}  // namespace green
