// Injector-engine interface: what a SWiFI tool must provide for the
// campaign runner. LLFI implements it over the IR interpreter; PINFI over
// the machine simulator.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "fault/model.h"
#include "fault/outcome.h"
#include "ir/category.h"
#include "machine/dispatch.h"
#include "support/rng.h"

namespace faultlab::fault {

/// Knobs of the fault model. Defaults reproduce the paper's setup; the
/// ablation bench flips them individually.
struct FaultModel {
  /// PINFI heuristic 1: for compares, flip only the EFLAGS bit(s) the
  /// following conditional jump reads (Figure 2a).
  bool pinfi_flag_heuristic = true;
  /// PINFI heuristic 2: for double-precision ops, prune the 128-bit XMM
  /// injection space to the low 64 bits (Figure 2b).
  bool pinfi_xmm_prune = true;
  /// LLFI flips within the destination *type* width; turning this off
  /// flips within the full 64-bit register instead (ablation).
  bool llfi_type_width = true;
  /// Section VII item 1: treat getelementptr as an arithmetic instruction
  /// when LLFI selects 'arithmetic' targets (off = paper's default LLFI).
  bool llfi_gep_as_arithmetic = false;
};

/// Checkpoint configuration shared by both engines. During the engine's one
/// fault-free run (profile_all) the engine captures a copy-on-write
/// snapshot every `stride` dynamic instructions, together with the
/// per-category instance counters at that point; each trial then resumes
/// from the nearest snapshot at or before its injection point instead of
/// re-executing the golden prefix.
struct CheckpointPolicy {
  /// Dynamic-instruction stride between snapshots. 0 = automatic: capture
  /// starts at kMinStride and the stride doubles (every second snapshot is
  /// dropped) each time 2 * kAutoWindows snapshots are held, so a run ends
  /// with kAutoWindows to 2 * kAutoWindows - 1 windows, or one per
  /// kMinStride instructions when it is shorter. An explicit stride never
  /// changes.
  std::uint64_t stride = 0;
  /// Master switch; with checkpointing off every trial runs from main().
  bool enabled = true;

  static constexpr std::uint64_t kAutoWindows = 64;
  static constexpr std::uint64_t kMinStride = 20'000;

  /// Environment overrides: FAULTLAB_CHECKPOINTS=0 disables,
  /// FAULTLAB_SNAPSHOT_STRIDE=<n> fixes the stride.
  static CheckpointPolicy from_env();
};

/// How an engine executes its runs. Every choice here is result-neutral:
/// two engines that differ only in their ExecConfig produce identical
/// trial records (propagation tracing only adds TrialRecord::prop). Each
/// engine owns its value, so strategies can be compared side by side in
/// one process.
struct ExecConfig {
  /// Dispatch of every run the engine makes (machine/dispatch.h).
  machine::DispatchMode dispatch = machine::DispatchMode::Threaded;
  /// Propagation tracing (obs/propagation.h): the profiling run captures
  /// the golden pc journal, and every trial carries a PropSummary.
  bool trace_prop = false;

  /// Read when an engine is constructed: FAULTLAB_DISPATCH=threaded|switch
  /// (unknown values warn and keep threaded), FAULTLAB_PROP=1 traces.
  static ExecConfig from_env();
};

/// Observability counters for the checkpoint layer (per engine). Atomic
/// accumulation happens inside the engines; this is the plain value handed
/// to benches and the perf manifest. The engines' atomics are the only
/// count: the campaign scheduler reads them for the run manifest and the
/// status snapshot, and publishes each run's share as the metrics
/// registry's `checkpoint.*` counters when the run ends.
struct CheckpointStats {
  std::uint64_t snapshots = 0;        ///< snapshots captured by profile_all
  std::uint64_t stride = 0;           ///< final capture stride
  std::uint64_t trials = 0;           ///< trials run
  std::uint64_t restored_trials = 0;  ///< trials resumed from a snapshot
  std::uint64_t skipped_instructions = 0;  ///< golden prefix not re-executed
  std::uint64_t delta_restores = 0;   ///< restores on the O(dirty) path
  std::uint64_t restored_pages = 0;   ///< page-table entries rewritten
  /// Trials that stopped early because their state converged on a golden
  /// snapshot (DESIGN §4), and the golden-suffix instructions they did not
  /// simulate. TrialRecord totals still count those instructions.
  std::uint64_t converged_trials = 0;
  std::uint64_t converged_instructions = 0;
  /// Instructions trials ran with their injection hook live before the
  /// fault fired, from the wake point (a mark, the resume point or the
  /// time trigger) to the injection, or to the run's end without one: the
  /// hooked slow path a trial cannot avoid.
  std::uint64_t armed_instructions = 0;

  double hit_rate() const noexcept {
    return trials != 0
               ? static_cast<double>(restored_trials) /
                     static_cast<double>(trials)
               : 0.0;
  }
  /// Mean pages rewritten per resumed trial (the delta path's headline
  /// number: O(dirty) instead of O(mapped)).
  double mean_restored_pages() const noexcept {
    return restored_trials != 0
               ? static_cast<double>(restored_pages) /
                     static_cast<double>(restored_trials)
               : 0.0;
  }
  CheckpointStats& operator+=(const CheckpointStats& o) noexcept {
    snapshots += o.snapshots;
    stride = stride == 0 ? o.stride : (o.stride == 0 ? stride
                                                     : std::min(stride, o.stride));
    trials += o.trials;
    restored_trials += o.restored_trials;
    skipped_instructions += o.skipped_instructions;
    delta_restores += o.delta_restores;
    restored_pages += o.restored_pages;
    converged_trials += o.converged_trials;
    converged_instructions += o.converged_instructions;
    armed_instructions += o.armed_instructions;
    return *this;
  }
};

/// Wall-time split of the trial loop's three phases, accumulated across
/// every trial an engine ran (always on: the cost is two steady_clock
/// reads per phase, trivial against a trial's execute time). This is the
/// aggregate behind the obs layer's per-trial phase spans, so the perf
/// manifest can report the execute-phase share without event tracing.
struct PhaseStats {
  double restore_seconds = 0.0;   ///< snapshot lookup + executor restore
  double execute_seconds = 0.0;   ///< interpreter / simulator run
  double classify_seconds = 0.0;  ///< outcome classification
  PhaseStats& operator+=(const PhaseStats& o) noexcept {
    restore_seconds += o.restore_seconds;
    execute_seconds += o.execute_seconds;
    classify_seconds += o.classify_seconds;
    return *this;
  }
};

/// Dynamic instruction counts for every Table III category, indexed by
/// `ir::Category`. Produced by `InjectorEngine::profile_all()` so one
/// fault-free run covers the whole category grid.
struct CategoryCounts {
  std::array<std::uint64_t, ir::kNumCategories> counts{};

  std::uint64_t operator[](ir::Category c) const noexcept {
    return counts[static_cast<std::size_t>(c)];
  }
  std::uint64_t& operator[](ir::Category c) noexcept {
    return counts[static_cast<std::size_t>(c)];
  }
};

/// Opaque per-worker execution state created by an engine's
/// make_context(). A context may only be used by one thread at a time;
/// feeding consecutive same-window trials of one campaign to the same
/// context keeps every reset on Memory's O(dirty pages) delta path,
/// because the context's resident address space still derives from that
/// window's snapshot.
class TrialContext {
 public:
  virtual ~TrialContext() = default;
};

class InjectorEngine {
 public:
  /// window_of() result for trials that run from scratch (no snapshot).
  static constexpr std::uint64_t kNoWindow = ~std::uint64_t{0};

  virtual ~InjectorEngine() = default;

  virtual const char* tool_name() const noexcept = 0;

  /// Dynamic counts for every category (the paper's Table IV entries);
  /// the campaign scheduler calls it once per engine before any trial, on
  /// its worker threads. LlfiEngine and PinfiEngine make their one
  /// fault-free run here: it counts every category on the fast path,
  /// records the golden output and length, and captures the checkpoint
  /// snapshots. It runs once, whichever thread calls first; later calls
  /// return the cached counts. Their hooked profile(category) is the
  /// oracle these counts must match.
  virtual CategoryCounts profile_all() = 0;

  /// Fresh per-worker execution state for inject_in(); never null. Callable
  /// from any thread; LlfiEngine and PinfiEngine profile first if nobody
  /// has.
  virtual std::unique_ptr<TrialContext> make_context() = 0;

  /// Runs one trial against a resident context, flipping one random bit
  /// in the destination of the k-th dynamic instance (1-based) of
  /// `category`. `rng` drives the bit choice only; k comes from the
  /// campaign so both tools sample uniformly. `context` must come from this
  /// engine's make_context() and be used by one thread at a time; the
  /// context only changes how much state the reset has to rewrite, never
  /// the result.
  virtual TrialRecord inject_in(TrialContext* context, ir::Category category,
                                std::uint64_t k, Rng& rng) = 0;

  /// inject_in() on a fresh context: one self-contained trial.
  TrialRecord inject(ir::Category category, std::uint64_t k, Rng& rng) {
    const std::unique_ptr<TrialContext> context = make_context();
    return inject_in(context.get(), category, k, rng);
  }

  /// Index of the snapshot window trial (category, k) resumes from, or
  /// kNoWindow for a from-scratch run. Valid after profiling; the
  /// scheduler uses it to run a window's trials back-to-back on one
  /// context. Purely a scheduling hint — grouping never changes results.
  virtual std::uint64_t window_of(ir::Category category,
                                  std::uint64_t k) const = 0;

  /// The hardware fault model this engine injects (fault::Model, not the
  /// tool-heuristic FaultModel knobs above). The base default is the
  /// paper's transient single-bit model.
  virtual const Model& fault_model() const noexcept {
    static const Model kDefault{};
    return kDefault;
  }

  /// Output of the fault-free run (SDC reference). For LlfiEngine and
  /// PinfiEngine, valid after profile_all() or make_context().
  virtual const std::string& golden_output() const noexcept = 0;
  /// Dynamic instruction count of the fault-free run (same validity).
  virtual std::uint64_t golden_instructions() const noexcept = 0;

  /// Checkpoint-layer counters (zero for engines without checkpointing).
  virtual CheckpointStats checkpoint_stats() const { return {}; }

  /// Accumulated restore/execute/classify wall time over every trial this
  /// engine ran (zero for engines that don't track it).
  virtual PhaseStats phase_stats() const { return {}; }

  /// The execution strategy this engine runs with (the run manifest
  /// reports its dispatch mode). The default fits engines without one.
  virtual ExecConfig exec_config() const { return {}; }
};

}  // namespace faultlab::fault
