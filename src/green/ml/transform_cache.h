#ifndef GREEN_ML_TRANSFORM_CACHE_H_
#define GREEN_ML_TRANSFORM_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "green/ml/estimator.h"
#include "green/ml/kernels/tree_kernels.h"
#include "green/sim/execution_context.h"
#include "green/table/dataset.h"

namespace green {

/// One memoized transformer-chain fit: the fitted transformers, the
/// transformed train set (sharing storage), and the charge tape recorded
/// during the original fit. `input` pins the source storage — while the
/// entry lives, its StorageId cannot be recycled by a different dataset,
/// which is what makes pointer-identity keys exact.
struct TransformCacheEntry {
  Dataset input;
  /// Fitted instances, shared with every pipeline that adopted them.
  /// Invariant: never re-Fit a cached transformer (Transform is const and
  /// thread-safe; Fit is not).
  std::vector<std::shared_ptr<Transformer>> transformers;
  Dataset transformed;
  ChargeTape tape;
  size_t bytes = 0;
  /// For predict-path memos only: the fitted-chain entry this memo was
  /// recorded through. Pins the chain so its address stays unique for the
  /// pointer-identity part of the memo key. Null for fit entries.
  std::shared_ptr<const TransformCacheEntry> parent;
};

struct TransformCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t predict_hits = 0;
  uint64_t predict_misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  size_t entries = 0;
  size_t bytes = 0;
  /// Presort memo (FeatureOrderFor), kept apart from the counters above:
  /// lookups served from the memo, lookups that built an order, orders
  /// dropped (LRU or larger than the memo budget), bytes resident.
  uint64_t order_hits = 0;
  uint64_t order_misses = 0;
  uint64_t order_evictions = 0;
  size_t order_bytes = 0;
  /// Fitted-model memo (LookupModel/InsertModel), likewise apart: fits
  /// replayed from the memo, fits run in full, entries dropped (LRU or
  /// larger than the memo budget), estimated bytes resident.
  uint64_t model_hits = 0;
  uint64_t model_misses = 0;
  uint64_t model_evictions = 0;
  size_t model_bytes = 0;
};

/// One memoized model fit: the fitted estimator and the charge tape
/// recorded while it was fitted.
struct ModelMemoEntry {
  /// Shared with every pipeline that adopted it. Invariant: never re-Fit
  /// a memoized model (PredictProba is const and thread-safe; Fit is not).
  std::shared_ptr<Estimator> model;
  ChargeTape tape;
};

/// Byte-bounded LRU of shared immutable values under string keys: the
/// one implementation behind TransformCache's small memos (presort
/// orders, fitted models). Each entry pins the Dataset it was keyed on,
/// so while the entry lives that StorageId cannot be recycled by another
/// dataset and copy-on-write forbids mutating the storage in place. The
/// key only names a candidate; `same(pinned, input)` decides whether it
/// really matches, so a fingerprint collision is a miss, never a wrong
/// value. Not thread-safe: the owner holds a lock around every call.
template <typename Value>
class PinnedLru {
 public:
  using SameInput = bool (*)(const Dataset& pinned, const Dataset& input);

  struct Entry {
    std::string key;
    Dataset input;  ///< Pin: keeps the storage identity exact.
    Value value;
    size_t bytes = 0;
  };
  /// Entries Admit dropped. The caller frees them after releasing its
  /// lock, so a large model or storage is never freed under it.
  using Evicted = std::list<Entry>;

  PinnedLru(size_t max_bytes, SameInput same)
      : max_bytes_(max_bytes), same_(same) {}

  /// The value under `key` whose pinned input matches `input`, marked
  /// most recently used; a null Value on a miss. Counts a hit or a miss.
  Value Find(const std::string& key, const Dataset& input) {
    auto it = index_.find(key);
    if (it == index_.end() || !same_(it->second->input, input)) {
      ++misses_;
      return Value();
    }
    list_.splice(list_.begin(), list_, it->second);
    ++hits_;
    return it->second->value;
  }

  /// Stores `value` under `key`, pinning `input`, and evicts from the
  /// tail (into `evicted`) until the budget holds. Returns the value now
  /// stored for `input`: `value`, or the incumbent of a racing insert of
  /// the same input. Returns a null Value, storing nothing, when `bytes`
  /// exceeds the whole budget (counted as an eviction) or a different
  /// input holds the key.
  Value Admit(std::string key, const Dataset& input, Value value,
              size_t bytes, Evicted* evicted) {
    if (bytes > max_bytes_) {
      ++evictions_;
      return Value();
    }
    auto it = index_.find(key);
    if (it != index_.end()) {
      if (!same_(it->second->input, input)) return Value();
      list_.splice(list_.begin(), list_, it->second);
      return it->second->value;
    }
    list_.push_front(Entry{std::move(key), input, std::move(value), bytes});
    index_.emplace(list_.front().key, list_.begin());
    bytes_ += bytes;
    while (bytes_ > max_bytes_) {  // Never reaches the new front entry.
      bytes_ -= list_.back().bytes;
      index_.erase(list_.back().key);
      evicted->splice(evicted->end(), list_, std::prev(list_.end()));
      ++evictions_;
    }
    return list_.front().value;
  }

  size_t max_bytes() const { return max_bytes_; }
  size_t bytes() const { return bytes_; }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }

 private:
  using List = std::list<Entry>;

  const size_t max_bytes_;
  const SameInput same_;
  List list_;  // Front = most recently used.
  /// Views into the keys of `list_`, whose nodes never move.
  std::unordered_map<std::string_view, typename List::iterator> index_;
  size_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

/// Thread-safe, byte-bounded, LRU-evicting memo of fitted transformer
/// chains, keyed by (dataset storage identity, exact row view, chain
/// config signature). Purely a *host-time* optimization: on a hit the
/// caller replays the recorded charge tape, so every simulated quantity is
/// bit-identical to recomputing. Failed or interrupted fits are never
/// inserted (same rule the ASKL meta-store follows).
class TransformCache {
 public:
  explicit TransformCache(size_t max_bytes)
      : max_bytes_(max_bytes),
        orders_(max_bytes / 128, &SameView),
        models_(max_bytes / 32, &SameFitInput) {}

  TransformCache(const TransformCache&) = delete;
  TransformCache& operator=(const TransformCache&) = delete;

  /// Exact-match lookup (storage pointer + full row-index comparison — a
  /// fingerprint collision can never surface a wrong entry). Returns null
  /// on miss. The returned entry stays valid after eviction.
  std::shared_ptr<const TransformCacheEntry> Lookup(
      const Dataset& input, const std::string& chain_signature);

  /// Memoizes a successfully fitted chain. Oversized entries (larger than
  /// the whole budget) are dropped and counted as evictions. Returns the
  /// admitted entry — the incumbent if a racing insert got there first, or
  /// null when the entry was too large to admit — so the caller can adopt
  /// the shared instance.
  std::shared_ptr<const TransformCacheEntry> Insert(
      const Dataset& input, const std::string& chain_signature,
      std::vector<std::shared_ptr<Transformer>> transformers,
      Dataset transformed, ChargeTape tape);

  /// Predict-path memo: the result of pushing `input` through the fitted
  /// chain `chain`. Memos are ordinary LRU entries (same byte budget and
  /// eviction), keyed by (chain identity, input storage identity, exact
  /// row view). Returns null on miss.
  std::shared_ptr<const TransformCacheEntry> LookupPredict(
      const std::shared_ptr<const TransformCacheEntry>& chain,
      const Dataset& input);

  /// Memoizes a completed (non-truncated) predict-path transform.
  void InsertPredict(
      const std::shared_ptr<const TransformCacheEntry>& chain,
      const Dataset& input, Dataset transformed, ChargeTape tape);

  /// Presort memo shared across fits: the FeatureOrder of `input`, keyed
  /// like the fit entries (storage identity, row count, width, view
  /// fingerprint, then an exact row-view comparison). On a miss the order
  /// is built outside the lock and memoized; a racing build of the same
  /// view yields the incumbent. Each memo entry pins its input Dataset,
  /// so the StorageId cannot be recycled and copy-on-write forbids
  /// in-place mutation while the entry lives. A separate LRU bounded by
  /// order_max_bytes(), outside the `bytes` accounting of the chain
  /// entries. An order larger than that budget is returned unshared.
  std::shared_ptr<const FeatureOrder> FeatureOrderFor(const Dataset& input);

  /// Fitted-model memo: the model `model_signature` fitted on `input`.
  /// Keyed like the fit entries (storage identity, row count, width, view
  /// fingerprint) plus the input's task, class count and nominal size and
  /// the signature; a candidate hits only when its pinned input has the
  /// same row view and bit-equal labels and targets (those live on each
  /// Dataset, not in the shared storage). Returns null on a miss. A
  /// separate LRU bounded by model_max_bytes(), outside the `bytes`
  /// accounting of the chain entries.
  std::shared_ptr<const ModelMemoEntry> LookupModel(
      const Dataset& input, const std::string& model_signature);

  /// Memoizes a completed (successful, non-truncated) model fit and its
  /// tape, pinning `input`. The size estimate is the key, the tape and
  /// 64 B per unit of ComplexityProxy() (nodes or parameters; for
  /// memorizing models the n x d context, which over-counts the storage
  /// it shares). Returns the admitted entry — the incumbent if a racing
  /// insert got there first — or null when the estimate exceeds the whole
  /// memo budget (counted as an eviction).
  std::shared_ptr<const ModelMemoEntry> InsertModel(
      const Dataset& input, const std::string& model_signature,
      std::shared_ptr<Estimator> model, ChargeTape tape);

  TransformCacheStats Stats() const;
  size_t max_bytes() const { return max_bytes_; }
  /// The presort memo's byte budget: 1/128 of max_bytes() (2 MiB of the
  /// default 256 MiB). The memo only has to hold the orders of the
  /// transformed sets in current use; holding all of them would cost far
  /// more memory than the sorts it saves.
  size_t order_max_bytes() const { return orders_.max_bytes(); }
  /// The model memo's byte budget: 1/32 of max_bytes() (8 MiB of the
  /// default 256 MiB). Repeats of a fit come within a few cells of each
  /// other, so a small window catches most of them; pinning every fitted
  /// model would cost far more memory than the refits it saves.
  size_t model_max_bytes() const { return models_.max_bytes(); }

 private:
  using LruList =
      std::list<std::pair<std::string,
                          std::shared_ptr<const TransformCacheEntry>>>;

  static std::string MapKey(const Dataset& input,
                            const std::string& chain_signature);
  static std::string PredictKey(const TransformCacheEntry* chain,
                                const Dataset& input);
  static std::string ModelKey(const Dataset& input,
                              const std::string& model_signature);
  static bool SameView(const Dataset& a, const Dataset& b);
  /// SameView plus equal labels and bit-equal targets.
  static bool SameFitInput(const Dataset& a, const Dataset& b);
  static size_t EstimateBytes(const TransformCacheEntry& entry,
                              const std::string& chain_signature);

  /// Admits `entry` under `key`, evicting from the LRU tail as needed.
  /// Returns the entry now stored under the key (incumbent on a race) or
  /// null if the entry exceeds the whole budget. Requires mutex_ held.
  std::shared_ptr<const TransformCacheEntry> AdmitLocked(
      std::string key, std::shared_ptr<const TransformCacheEntry> entry);

  struct OrderEntry {
    Dataset input;  ///< Pin: keeps the storage identity exact.
    std::shared_ptr<const FeatureOrder> order;
    size_t bytes = 0;
  };
  using OrderLru = std::list<std::pair<std::string, OrderEntry>>;

  const size_t max_bytes_;
  mutable std::mutex mutex_;
  LruList lru_;  // Front = most recently used.
  std::unordered_map<std::string, LruList::iterator> index_;
  size_t bytes_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t predict_hits_ = 0;
  uint64_t predict_misses_ = 0;
  uint64_t insertions_ = 0;
  uint64_t evictions_ = 0;

  mutable std::mutex order_mutex_;  // Guards orders_.
  PinnedLru<std::shared_ptr<const FeatureOrder>> orders_;
  mutable std::mutex model_mutex_;  // Guards models_.
  PinnedLru<std::shared_ptr<const ModelMemoEntry>> models_;
};

}  // namespace green

#endif  // GREEN_ML_TRANSFORM_CACHE_H_
