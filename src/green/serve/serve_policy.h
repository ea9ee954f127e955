#ifndef GREEN_SERVE_SERVE_POLICY_H_
#define GREEN_SERVE_SERVE_POLICY_H_

#include <cstddef>
#include <string>

#include "green/common/knobs.h"
#include "green/common/status.h"

namespace green {

/// Knobs governing how an InferenceServer trades latency, energy, and
/// answer quality under load. Each field is a knob (common/knobs.h): a
/// GREEN_SERVE_* variable and a --serve-* flag, range in the knob table.
struct ServePolicy {
  /// What happens when a request's deadline fires mid-predict (or, under
  /// kFail, when an answer would land after the deadline anyway).
  enum class DeadlineAction {
    kFail = 0,     ///< Strict SLO: the request fails DEADLINE_EXCEEDED.
    kDegrade = 1,  ///< Answer anyway, from the next cheaper ladder tier.
  };
  /// Which request is shed when the admission queue is full.
  enum class ShedPolicy {
    kNewest = 0,  ///< Reject the incoming request (tail drop).
    kOldest = 1,  ///< Evict the head of the queue, admit the newcomer.
  };

  /// Admission queue bound (requests).
  size_t queue_capacity = 64;
  /// Micro-batch size cap.
  size_t max_batch = 8;
  /// How long a freshly opened batch waits for more arrivals (virtual
  /// seconds); its knob is in ms.
  double batch_delay_seconds = 0.005;
  /// Per-request deadline measured from arrival (virtual seconds);
  /// 0 disables deadlines. Its knob is in ms.
  double deadline_seconds = 0.0;
  /// Per-request dynamic-energy SLO (Joules); 0 disables it. When set,
  /// the server preselects the best ladder tier whose probed
  /// Joules-per-row fits the SLO.
  double energy_slo_joules = 0.0;
  /// GREEN_SERVE_POLICY: "fail" | "degrade".
  DeadlineAction on_deadline = DeadlineAction::kFail;
  /// GREEN_SERVE_SHED: "newest" | "oldest".
  ShedPolicy shed = ShedPolicy::kNewest;
};

const char* DeadlineActionName(ServePolicy::DeadlineAction action);
Result<ServePolicy::DeadlineAction> DeadlineActionFromName(
    const std::string& name);

const char* ShedPolicyName(ServePolicy::ShedPolicy shed);
Result<ServePolicy::ShedPolicy> ShedPolicyFromName(const std::string& name);

/// Defaults overridden by the GREEN_SERVE_* knobs. Fails only for a
/// malformed --serve-policy or --serve-shed flag.
Result<ServePolicy> ServePolicyFromKnobs(const KnobSettings& knobs);

}  // namespace green

#endif  // GREEN_SERVE_SERVE_POLICY_H_
