#include "green/serve/serve_policy.h"

namespace green {

const char* DeadlineActionName(ServePolicy::DeadlineAction action) {
  switch (action) {
    case ServePolicy::DeadlineAction::kFail:
      return "fail";
    case ServePolicy::DeadlineAction::kDegrade:
      return "degrade";
  }
  return "?";
}

Result<ServePolicy::DeadlineAction> DeadlineActionFromName(
    const std::string& name) {
  if (name == "fail") return ServePolicy::DeadlineAction::kFail;
  if (name == "degrade") return ServePolicy::DeadlineAction::kDegrade;
  return Status::InvalidArgument("unknown deadline policy '" + name +
                                 "' (want fail|degrade)");
}

const char* ShedPolicyName(ServePolicy::ShedPolicy shed) {
  switch (shed) {
    case ServePolicy::ShedPolicy::kNewest:
      return "newest";
    case ServePolicy::ShedPolicy::kOldest:
      return "oldest";
  }
  return "?";
}

Result<ServePolicy::ShedPolicy> ShedPolicyFromName(const std::string& name) {
  if (name == "newest") return ServePolicy::ShedPolicy::kNewest;
  if (name == "oldest") return ServePolicy::ShedPolicy::kOldest;
  return Status::InvalidArgument("unknown shed policy '" + name +
                                 "' (want newest|oldest)");
}

Result<ServePolicy> ServePolicyFromKnobs(const KnobSettings& knobs) {
  ServePolicy policy;
  policy.queue_capacity = static_cast<size_t>(knobs.Integer(
      Knob::kServeQueue, static_cast<long>(policy.queue_capacity)));
  policy.max_batch = static_cast<size_t>(
      knobs.Integer(Knob::kServeBatch, static_cast<long>(policy.max_batch)));
  policy.batch_delay_seconds =
      knobs.Real(Knob::kServeBatchDelayMs, policy.batch_delay_seconds * 1e3) /
      1e3;
  policy.deadline_seconds =
      knobs.Real(Knob::kServeDeadlineMs, policy.deadline_seconds * 1e3) / 1e3;
  policy.energy_slo_joules =
      knobs.Real(Knob::kServeEnergySloJ, policy.energy_slo_joules);
  GREEN_ASSIGN_OR_RETURN(policy.on_deadline,
                         knobs.Enum(Knob::kServePolicy, policy.on_deadline,
                                    DeadlineActionFromName));
  GREEN_ASSIGN_OR_RETURN(
      policy.shed,
      knobs.Enum(Knob::kServeShed, policy.shed, ShedPolicyFromName));
  return policy;
}

}  // namespace green
