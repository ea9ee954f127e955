#ifndef GREEN_COMMON_KNOBS_H_
#define GREEN_COMMON_KNOBS_H_

#include <array>
#include <cstddef>
#include <string>
#include <string_view>

#include "green/common/status.h"

namespace green {

/// Every GREEN_* environment variable and green_automl_cli flag. The table
/// in knobs.cc gives each its spellings, type and range; knobs.cc alone
/// reads the environment and parses knob text, by README's one rule: empty
/// is the default, a bool is 0 or 1, a number parses in full and clamps
/// to [lo, hi]; a malformed env value warns and keeps the default, a
/// malformed flag is the error "<flag>: <reason>".
enum class Knob {
  // ExperimentConfig.
  kFull, kJobs, kShard, kFaults, kJournal, kResume, kRetries, kCellTimeout,
  kScopes, kTransformCache, kTransformCacheMb,
  // ServePolicy.
  kServeQueue, kServeBatch, kServeBatchDelayMs, kServeDeadlineMs,
  kServeEnergySloJ, kServePolicy, kServeShed,
  // Process-wide switches.
  kKernels, kTrace, kTune,
  // green_automl_cli only.
  kSystem, kBudget, kBudgets, kCsv, kTask, kCores, kConstraint, kJson,
  kSweep, kCompactJournal, kServe, kTraceKind, kTraceFile, kRps,
  kTraceSeconds, kCount
};
inline constexpr size_t kNumKnobs = static_cast<size_t>(Knob::kCount);

enum class KnobType { kBool, kInteger, kReal, kEnum, kText };

struct KnobSpec {
  Knob knob;
  const char* env;   ///< nullptr: a flag only.
  const char* flag;  ///< nullptr: an env var only.
  KnobType type;
  double lo = 0.0, hi = 0.0;  ///< A number's range.
  bool bare = false;          ///< The flag takes no value and means 1.
};

/// The table, in Knob order.
const std::array<KnobSpec, kNumKnobs>& AllKnobs();
/// The knob spelled `flag`, or nullptr.
const KnobSpec* FindKnobFlag(std::string_view flag);

/// The per-type parsers. GREEN_JOBS alone maps 0 to all hardware threads.
Result<bool> ParseBoolKnob(std::string_view text);
Result<long> ParseIntegerKnob(Knob knob, std::string_view text);
Result<double> ParseRealKnob(Knob knob, std::string_view text);

/// Every knob's text: the environment's, overridden by flags. Resolved at
/// start-up; nothing on a fit, predict or serve path reads it.
class KnobSettings {
 public:
  static KnobSettings FromEnv();
  /// Checks bool, number and shard text now, other enums in Enum(); empty
  /// text restores the default.
  Status SetFlag(Knob knob, std::string_view text);

  bool Bool(Knob knob, bool fallback) const;
  long Integer(Knob knob, long fallback) const;
  double Real(Knob knob, double fallback) const;
  std::string Text(Knob knob, std::string fallback = "") const;
  /// Parses with `from_name`; fails only for a malformed flag.
  template <typename T, typename FromName>
  Result<T> Enum(Knob knob, T fallback, FromName from_name) const {
    const std::string& text = text_[static_cast<size_t>(knob)];
    if (text.empty()) return fallback;
    Result<T> parsed = from_name(text);
    if (parsed.ok()) return parsed;
    GREEN_RETURN_IF_ERROR(Malformed(knob, parsed.status()));
    return fallback;
  }

 private:
  /// A flag's error; for an env value, one warning and OK.
  Status Malformed(Knob knob, const Status& reason) const;

  std::array<std::string, kNumKnobs> text_;  ///< Empty: unset.
  std::array<bool, kNumKnobs> from_flag_{};
};

}  // namespace green

#endif  // GREEN_COMMON_KNOBS_H_
