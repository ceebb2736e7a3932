#include "machine/dispatch.h"

#include <mutex>

#include "obs/metrics.h"
#include "support/env.h"

namespace faultlab::machine {

namespace {

std::atomic<int>& mode_cell() noexcept {
  static std::atomic<int> cell{[] {
    static const char* const kChoices[] = {"threaded", "switch"};
    const std::size_t picked =
        support::parse_env_choice("FAULTLAB_DISPATCH", kChoices, 2, 0);
    return picked == 1 ? static_cast<int>(DispatchMode::Switch)
                       : static_cast<int>(DispatchMode::Threaded);
  }()};
  return cell;
}

}  // namespace

DispatchMode dispatch_mode() noexcept {
  return static_cast<DispatchMode>(
      mode_cell().load(std::memory_order_relaxed));
}

void set_dispatch_mode(DispatchMode mode) noexcept {
  mode_cell().store(static_cast<int>(mode), std::memory_order_relaxed);
}

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
  out.decoded_blocks = c.decoded_blocks.load(std::memory_order_relaxed);
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
  registry.gauge("dispatch.decoded_blocks")
      .set(static_cast<std::int64_t>(now.decoded_blocks));
  last = now;
}

}  // namespace faultlab::machine
