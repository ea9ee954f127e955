#include "green/ml/kernels/kernels.h"

#include <atomic>

#include "green/common/knobs.h"

namespace green {

namespace {

/// GREEN_KERNELS, resolved once on first use.
std::atomic<bool>& KernelsState() {
  static std::atomic<bool> enabled{
      KnobSettings::FromEnv().Bool(Knob::kKernels, true)};
  return enabled;
}

}  // namespace

bool KernelsEnabled() {
  return KernelsState().load(std::memory_order_relaxed);
}

void SetKernelsEnabled(bool enabled) {
  KernelsState().store(enabled, std::memory_order_relaxed);
}

}  // namespace green
