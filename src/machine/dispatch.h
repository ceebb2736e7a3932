// Dispatch-mode selection and trace-cache counters shared by both
// execution engines (vm::Interpreter and x86::Simulator).
//
// Each engine owns two execution paths over the same semantics:
//
//  * the *slow* path — the original per-instruction switch loop with fault
//    hooks, snapshot capture, and timeout checks woven into every step;
//  * the *fast* path — pre-decoded micro-op traces run by a threaded
//    (computed-goto) dispatch loop with no hook callouts at all. The
//    engine enters it only while no hook can observe execution (hook
//    detached with its re-arm point out of reach) and side-exits back to
//    the slow path at window boundaries.
//
// `DispatchMode::Switch` disables the fast path entirely, pinning the
// engines to the historical loop: equivalence fixtures A/B the two modes
// and require byte-identical campaign results. The mode is a per-run value
// (vm::RunLimits / x86::SimLimits::dispatch, set by the injector engines
// from their fault::ExecConfig), so engines in different modes can run
// side by side in one process.
//
// The counters here are always-on relaxed atomics (they are touched once
// per trace entry / decode, not per instruction, so gating them behind
// FAULTLAB_METRICS buys nothing). The scheduler calls
// `publish_dispatch_metrics()` at the end of each run to copy them into the
// obs registry for exporters, and diffs `dispatch_counters_snapshot()`
// around a run for the manifest CSV and the status snapshot.
#pragma once

#include <atomic>
#include <cstdint>

namespace faultlab::machine {

enum class DispatchMode : int {
  Threaded = 0,  ///< pre-decoded micro-op traces + slow path for armed windows
  Switch = 1,    ///< original hooked switch loop only
};

/// Canonical spelling, matching the FAULTLAB_DISPATCH values.
const char* dispatch_mode_name(DispatchMode mode) noexcept;

/// Trace-cache counters, accumulated process-wide across both engines.
struct DispatchCounters {
  /// Basic blocks (VM) / instruction slots (x86) decoded into micro-ops.
  std::atomic<std::uint64_t> trace_decodes{0};
  /// Fast-path entries served entirely from already-decoded traces.
  std::atomic<std::uint64_t> trace_hits{0};
  /// Fast-to-slow side exits forced by an armed/armable hook window,
  /// an imminent snapshot point, or a non-traceable program state.
  std::atomic<std::uint64_t> trace_invalidations{0};
};

DispatchCounters& dispatch_counters() noexcept;

/// Plain-value copy for manifest deltas and tests.
struct DispatchCountersSnapshot {
  std::uint64_t trace_decodes = 0;
  std::uint64_t trace_hits = 0;
  std::uint64_t trace_invalidations = 0;
};

DispatchCountersSnapshot dispatch_counters_snapshot() noexcept;

/// Mirrors the counters into the global obs registry
/// (dispatch.trace_hits / trace_decodes / trace_invalidations counters).
/// Publishes deltas since the previous publish, so repeated calls — one
/// per scheduler run — stay cumulative. No-op while FAULTLAB_METRICS is
/// off.
void publish_dispatch_metrics();

}  // namespace faultlab::machine
