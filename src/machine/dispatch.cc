#include "machine/dispatch.h"

#include <mutex>

#include "obs/metrics.h"

namespace faultlab::machine {

const char* dispatch_mode_name(DispatchMode mode) noexcept {
  return mode == DispatchMode::Switch ? "switch" : "threaded";
}

DispatchCounters& dispatch_counters() noexcept {
  static DispatchCounters counters;
  return counters;
}

DispatchCountersSnapshot dispatch_counters_snapshot() noexcept {
  const DispatchCounters& c = dispatch_counters();
  DispatchCountersSnapshot out;
  out.trace_decodes = c.trace_decodes.load(std::memory_order_relaxed);
  out.trace_hits = c.trace_hits.load(std::memory_order_relaxed);
  out.trace_invalidations =
      c.trace_invalidations.load(std::memory_order_relaxed);
  return out;
}

void publish_dispatch_metrics() {
  if (!obs::metrics_enabled()) return;
  // The registry's counters are cumulative sums of add() calls; publish
  // the delta since the last publish so the mirror tracks the atomics.
  static std::mutex mutex;
  static DispatchCountersSnapshot last;
  const DispatchCountersSnapshot now = dispatch_counters_snapshot();
  std::lock_guard<std::mutex> lock(mutex);
  obs::Registry& registry = obs::Registry::global();
  registry.counter("dispatch.trace_decodes")
      .add(now.trace_decodes - last.trace_decodes);
  registry.counter("dispatch.trace_hits")
      .add(now.trace_hits - last.trace_hits);
  registry.counter("dispatch.trace_invalidations")
      .add(now.trace_invalidations - last.trace_invalidations);
  last = now;
}

}  // namespace faultlab::machine
