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
#include "obs/metrics.h"
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

/// Checkpoint configuration shared by both engines. During the single-pass
/// instrumented profiling run (profile_all) the engine captures a
/// copy-on-write snapshot every `stride` dynamic instructions, together
/// with the per-category instance counters at that point; inject() then
/// resumes each trial from the nearest snapshot at or before its injection
/// point instead of re-executing the golden prefix.
struct CheckpointPolicy {
  /// Dynamic-instruction stride between snapshots (0 = automatic: the
  /// golden run length divided into kAutoWindows, floored at kMinStride).
  std::uint64_t stride = 0;
  /// Master switch; with checkpointing off every trial runs from main().
  bool enabled = true;
  /// Cap on the engine's resident snapshot pages, summed over live
  /// snapshots' mapped-page counts (0 = unlimited). Over-budget snapshots
  /// are evicted (LRU, interval-thinning tie-break); trials whose window
  /// was evicted fall back to the nearest earlier live snapshot, so
  /// campaign outcomes are unchanged.
  std::uint64_t budget_pages = 0;

  static constexpr std::uint64_t kAutoWindows = 64;
  static constexpr std::uint64_t kMinStride = 20'000;

  /// Environment overrides: FAULTLAB_CHECKPOINTS=0 disables,
  /// FAULTLAB_SNAPSHOT_STRIDE=<n> fixes the stride,
  /// FAULTLAB_SNAPSHOT_BUDGET=<pages> caps resident snapshot pages.
  static CheckpointPolicy from_env();

  std::uint64_t effective_stride(std::uint64_t golden_instructions) const;
};

/// Handles to the checkpoint layer's counters in the process-wide metrics
/// registry (shared by LlfiEngine and PinfiEngine; the per-engine split
/// lives in CheckpointStats below). Call sites gate every use on
/// obs::metrics_enabled(), so the disabled path costs one cached-bool
/// branch.
struct CheckpointMetrics {
  obs::Counter snapshots;             ///< snapshots captured by profile_all
  obs::Counter restores;              ///< trials resumed from a snapshot
  obs::Counter restored_pages;        ///< page-table entries rewritten
  obs::Counter skipped_instructions;  ///< golden prefix not re-executed
  obs::Counter delta_restores;        ///< restores that walked only dirty pages
  obs::Counter delta_pages;           ///< pages rewritten by delta restores
  obs::Counter evictions;             ///< snapshots evicted by the budget
  obs::Counter converged_trials;      ///< trials stopped on the golden state
  obs::Counter converged_instructions;  ///< golden suffix not simulated
  obs::Histogram dirty_pages;         ///< dirty-set size per delta restore
};

/// Lazily-registered singleton over Registry::global().
CheckpointMetrics& checkpoint_metrics();

/// Observability counters for the checkpoint layer (per engine). Atomic
/// accumulation happens inside the engines; this is the plain value handed
/// to benches and the perf manifest.
struct CheckpointStats {
  std::uint64_t snapshots = 0;        ///< snapshots captured by profile_all
  std::uint64_t stride = 0;           ///< effective stride in force
  std::uint64_t trials = 0;           ///< inject() calls observed
  std::uint64_t restored_trials = 0;  ///< trials resumed from a snapshot
  std::uint64_t skipped_instructions = 0;  ///< golden prefix not re-executed
  std::uint64_t delta_restores = 0;   ///< restores on the O(dirty) path
  std::uint64_t restored_pages = 0;   ///< page-table entries rewritten
  std::uint64_t evictions = 0;        ///< snapshots evicted by the budget
  /// Trials that stopped early because their state converged on a golden
  /// snapshot (DESIGN §4), and the golden-suffix instructions they did not
  /// simulate. TrialRecord totals still count those instructions.
  std::uint64_t converged_trials = 0;
  std::uint64_t converged_instructions = 0;

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
    evictions += o.evictions;
    converged_trials += o.converged_trials;
    converged_instructions += o.converged_instructions;
    return *this;
  }
};

/// Wall-time split of the trial loop's three phases, accumulated across
/// every trial an engine ran (always on: the cost is two steady_clock
/// reads per phase, trivial against a trial's execute time). This is the
/// aggregate behind the obs layer's per-trial phase spans, so the perf
/// manifest can report the execute-phase share without event tracing.
struct PhaseStats {
  double restore_seconds = 0.0;   ///< snapshot lookup + state reset
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
/// instrumented golden run covers the whole category grid.
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

  /// Dynamic count of category instructions in a fault-free run (the
  /// paper's Table IV entries). Also primes golden output/limits.
  virtual std::uint64_t profile(ir::Category category) = 0;

  /// Dynamic counts for *all* categories from a single instrumented run.
  /// The default falls back to one profile() run per category; LlfiEngine
  /// and PinfiEngine override it with a genuine single-pass version, which
  /// is what the campaign scheduler uses to avoid per-category golden
  /// re-runs. Must agree with profile() for every category.
  virtual CategoryCounts profile_all() {
    CategoryCounts out;
    for (ir::Category c : ir::kAllCategories) out[c] = profile(c);
    return out;
  }

  /// Runs one trial, flipping one random bit in the destination of the
  /// k-th dynamic instance (1-based) of `category`. `rng` drives the bit
  /// choice only; k comes from the campaign so both tools sample uniformly.
  virtual TrialRecord inject(ir::Category category, std::uint64_t k,
                             Rng& rng) = 0;

  /// Fresh per-worker execution state for inject_in(), or nullptr when the
  /// engine has none (the scheduler then falls back to inject()). Called
  /// after profiling, from any thread.
  virtual std::unique_ptr<TrialContext> make_context() { return nullptr; }

  /// inject() against a resident context. `context` must come from this
  /// engine's make_context() and be used by one thread at a time; trial
  /// results are identical to inject()'s — the context only changes how
  /// much state the reset has to rewrite.
  virtual TrialRecord inject_in(TrialContext* context, ir::Category category,
                                std::uint64_t k, Rng& rng) {
    (void)context;
    return inject(category, k, rng);
  }

  /// Index of the snapshot window trial (category, k) resumes from, or
  /// kNoWindow for a from-scratch run. Valid after profiling; the
  /// scheduler uses it to run a window's trials back-to-back on one
  /// context. Purely a scheduling hint — grouping never changes results.
  virtual std::uint64_t window_of(ir::Category category,
                                  std::uint64_t k) const {
    (void)category;
    (void)k;
    return kNoWindow;
  }

  /// The hardware fault model this engine injects (fault::Model, not the
  /// tool-heuristic FaultModel knobs above). The base default is the
  /// paper's transient single-bit model.
  virtual const Model& fault_model() const noexcept {
    static const Model kDefault{};
    return kDefault;
  }

  /// Output of the fault-free run (SDC reference).
  virtual const std::string& golden_output() const noexcept = 0;
  /// Dynamic instruction count of the fault-free run.
  virtual std::uint64_t golden_instructions() const noexcept = 0;

  /// Checkpoint-layer counters (zero for engines without checkpointing).
  virtual CheckpointStats checkpoint_stats() const { return {}; }

  /// Accumulated restore/execute/classify wall time over every trial this
  /// engine ran (zero for engines that don't track it).
  virtual PhaseStats phase_stats() const { return {}; }
};

}  // namespace faultlab::fault
