#include "green/common/knobs.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "green/common/logging.h"
#include "green/common/shard.h"
#include "green/common/thread_pool.h"

namespace green {

namespace {

using enum KnobType;
using K = Knob;

// Defaults live with the fields the knobs set (ExperimentConfig,
// ServePolicy, the CLI); README's knob table lists them.
constexpr std::array<KnobSpec, kNumKnobs> kKnobs = {{
    // {knob, env, flag, type[, lo, hi[, bare]]}
    {K::kFull, "GREEN_FULL", nullptr, kBool},
    {K::kJobs, "GREEN_JOBS", "--jobs", kInteger, 1, 4096},
    {K::kShard, "GREEN_SHARD", "--shard", kEnum},
    {K::kFaults, "GREEN_FAULTS", "--faults", kText},
    {K::kJournal, "GREEN_JOURNAL", "--journal", kText},
    {K::kResume, "GREEN_RESUME", "--resume", kBool, 0, 0, true},
    {K::kRetries, "GREEN_RETRIES", "--retries", kInteger, 1, 100},
    // Finite, so the watchdog's hi * 1e9 ns fits in int64_t.
    {K::kCellTimeout, "GREEN_CELL_TIMEOUT", "--cell-timeout", kReal, 0, 1e9},
    {K::kScopes, "GREEN_SCOPES", "--breakdown", kBool, 0, 0, true},
    {K::kTransformCache, "GREEN_TRANSFORM_CACHE", "--transform-cache", kBool},
    {K::kTransformCacheMb, "GREEN_TRANSFORM_CACHE_MB", nullptr, kReal, 1,
     65536},
    {K::kServeQueue, "GREEN_SERVE_QUEUE", "--serve-queue", kInteger, 1,
     1 << 20},
    {K::kServeBatch, "GREEN_SERVE_BATCH", "--serve-batch", kInteger, 1, 4096},
    {K::kServeBatchDelayMs, "GREEN_SERVE_BATCH_DELAY_MS",
     "--serve-batch-delay-ms", kReal, 0, 60000},
    {K::kServeDeadlineMs, "GREEN_SERVE_DEADLINE_MS", "--serve-deadline-ms",
     kReal, 0, 3600000},
    {K::kServeEnergySloJ, "GREEN_SERVE_ENERGY_SLO_J", "--serve-energy-slo-j",
     kReal, 0, 1e12},
    {K::kServePolicy, "GREEN_SERVE_POLICY", "--serve-policy", kEnum},
    {K::kServeShed, "GREEN_SERVE_SHED", "--serve-shed", kEnum},
    {K::kKernels, "GREEN_KERNELS", nullptr, kBool},
    {K::kTrace, "GREEN_TRACE", nullptr, kText},
    {K::kTune, "GREEN_TUNE", nullptr, kBool},
    {K::kSystem, nullptr, "--system", kText},
    {K::kBudget, nullptr, "--budget", kReal, 0, 1e6},
    {K::kBudgets, nullptr, "--budgets", kText},  // Each entry a --budget.
    {K::kCsv, nullptr, "--csv", kText},
    {K::kTask, nullptr, "--task", kEnum},
    {K::kCores, nullptr, "--cores", kInteger, 1, 1024},
    {K::kConstraint, nullptr, "--constraint", kReal, 0, 1e6},
    {K::kJson, nullptr, "--json", kText},
    {K::kSweep, nullptr, "--sweep", kText},
    {K::kCompactJournal, nullptr, "--compact-journal", kText},
    {K::kServe, nullptr, "--serve", kBool, 0, 0, true},
    {K::kTraceKind, nullptr, "--trace", kEnum},
    {K::kTraceFile, nullptr, "--trace-file", kText},
    {K::kRps, nullptr, "--rps", kReal, 0, 1e6},
    {K::kTraceSeconds, nullptr, "--trace-seconds", kReal, 0, 1e6},
}};

const KnobSpec& SpecOf(Knob knob) {
  return kKnobs[static_cast<size_t>(knob)];
}

Status Unparsable(std::string_view text, const char* want) {
  return Status::InvalidArgument(
      std::string(1, '\'').append(text).append("' is not ").append(want));
}

}  // namespace

const std::array<KnobSpec, kNumKnobs>& AllKnobs() { return kKnobs; }

const KnobSpec* FindKnobFlag(std::string_view flag) {
  for (const KnobSpec& spec : kKnobs) {
    if (spec.flag != nullptr && flag == spec.flag) return &spec;
  }
  return nullptr;
}

Result<bool> ParseBoolKnob(std::string_view text) {
  if (text == "0" || text == "1") return text == "1";
  return Unparsable(text, "0 or 1");
}

Result<long> ParseIntegerKnob(Knob knob, std::string_view text) {
  const std::string s(text);
  char* end = nullptr;
  // Saturates at LONG_MIN/LONG_MAX, which the clamp maps onto the range.
  const long parsed = std::strtol(s.c_str(), &end, 10);
  if (s.empty() || end != s.c_str() + s.size()) {
    return Unparsable(text, "an integer");
  }
  if (knob == Knob::kJobs && parsed == 0) {
    return static_cast<long>(ThreadPool::DefaultThreads());
  }
  return std::clamp(parsed, static_cast<long>(SpecOf(knob).lo),
                    static_cast<long>(SpecOf(knob).hi));
}

Result<double> ParseRealKnob(Knob knob, std::string_view text) {
  const std::string s(text);
  char* end = nullptr;
  const double parsed = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || std::isnan(parsed)) {
    return Unparsable(text, "a number");
  }
  return std::clamp(parsed, SpecOf(knob).lo, SpecOf(knob).hi);
}

KnobSettings KnobSettings::FromEnv() {
  KnobSettings settings;
  for (size_t i = 0; i < kNumKnobs; ++i) {
    const char* value = kKnobs[i].env ? std::getenv(kKnobs[i].env) : nullptr;
    if (value != nullptr) settings.text_[i] = value;
  }
  return settings;
}

Status KnobSettings::SetFlag(Knob knob, std::string_view text) {
  const size_t i = static_cast<size_t>(knob);
  text_[i] = text;
  from_flag_[i] = true;
  if (text.empty()) return Status::Ok();
  Status checked;
  const KnobType type = kKnobs[i].type;
  if (type == kBool) checked = ParseBoolKnob(text).status();
  if (type == kInteger) checked = ParseIntegerKnob(knob, text).status();
  if (type == kReal) checked = ParseRealKnob(knob, text).status();
  if (knob == K::kShard) checked = ParseShardSpec(text).status();
  if (checked.ok()) return checked;
  text_[i].clear();
  return Malformed(knob, checked);
}

// SetFlag checked a flag's text, so these never see a failed Enum().
bool KnobSettings::Bool(Knob knob, bool fallback) const {
  return Enum(knob, fallback, ParseBoolKnob).value();
}

long KnobSettings::Integer(Knob knob, long fallback) const {
  auto parse = [knob](std::string_view s) { return ParseIntegerKnob(knob, s); };
  return Enum(knob, fallback, parse).value();
}

double KnobSettings::Real(Knob knob, double fallback) const {
  auto parse = [knob](std::string_view s) { return ParseRealKnob(knob, s); };
  return Enum(knob, fallback, parse).value();
}

std::string KnobSettings::Text(Knob knob, std::string fallback) const {
  const std::string& text = text_[static_cast<size_t>(knob)];
  return text.empty() ? fallback : text;
}

Status KnobSettings::Malformed(Knob knob, const Status& reason) const {
  const size_t i = static_cast<size_t>(knob);
  if (from_flag_[i]) {
    return Status::InvalidArgument(std::string(kKnobs[i].flag) + ": " +
                                   reason.message());
  }
  LogWarning(std::string(kKnobs[i].env) + "=" + text_[i] + ": " +
             reason.message() + "; keeping the default");
  return Status::Ok();
}

}  // namespace green
