// Shared trial core of the injector engines.
//
// LLFI and PINFI differ in *where* they corrupt state (an IR SSA
// destination vs an x86 register) and in nothing else. This template holds
// everything else once, over a tool binding (LlfiTool / PinfiTool) that
// names the executor, its snapshot/result/limits types, how it runs from
// main, and the tool's bit-draw width:
//  * profile_all()'s single fault-free run, which records the golden
//    output and length, counts every category over the engine's site
//    profile, captures the checkpoint snapshots at a doubling stride and
//    the marks between them and, with propagation tracing on, the golden
//    pc journal,
//  * time-trigger placement and window_of(),
//  * the restore -> execute -> classify skeleton of one trial, with the
//    wake point its injection hook sleeps to,
//  * the engine's ExecConfig, applied to the profiling run and to every
//    trial, and
//  * the checkpoint and phase accounting behind checkpoint_stats() and
//    phase_stats(), and each record's restore/execute/classify split,
//    which the event log carries per trial.
// An engine derives from TrialCore<Tool>, enumerates its sites for
// profile_once(), supplies its injection hook to run_trial(), and keeps its
// hooked profile(c).
// The hook type is a template argument, so trials add no virtual call
// beyond the executor's own hook dispatch. Both injection hooks derive from
// InjectionHookBase, which holds their trigger, record facts and release
// protocol.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "fault/checkpoint_store.h"
#include "fault/engine.h"
#include "fault/site_profile.h"
#include "obs/propagation.h"

namespace faultlab::fault {

/// Where a trial's injection hook starts: what run_trial() hands the
/// engine's hook factory besides the FaultPlan.
///
/// Until its fault fires a trial replays the golden run, so the hook need
/// not watch the prefix: it sleeps from the resume point `base` to the
/// wake point `wake`, and the executor runs that stretch on its fast path.
/// For the access trigger the wake point is the last profiling mark whose
/// prefix holds fewer than k category instances (CheckpointStore::
/// mark_before), for the time trigger the instruction before the trigger
/// point; without a mark past the resume point it is the resume point.
struct TrialStart {
  /// Category instances in the golden prefix up to `wake`: primes the
  /// hook's instance counter so the k-th instance is still the k-th.
  std::uint64_t seen = 0;
  /// Absolute dynamic-instruction position of the resume point (0 for a
  /// run from main).
  std::uint64_t base = 0;
  /// Absolute position after which the hook goes live (>= base): it
  /// observes instruction wake + 1 onward.
  std::uint64_t wake = 0;
  /// Time-trigger point, or 0 for the access trigger.
  std::uint64_t arm_time = 0;
  /// Golden journal when propagation tracing is on, else null (a non-null
  /// journal arms the hook's tracer).
  const obs::GoldenJournal* journal = nullptr;
};

/// What LLFI's and PINFI's injection hooks share over their executor's hook
/// interface `Hook` (vm::ExecHook, x86::SimHook) and propagation tracer
/// `Tracer`: the trigger, the record facts run_trial() reads, and the
/// release protocol that lets the hook leave the slow path.
///
/// The hook starts dormant (detached with rearm_at = start.wake + 1) when
/// its wake point lies past the resume point, and counts instances from
/// `start.seen` once awake. A nonzero `start.arm_time` selects the time
/// trigger: the hook wakes just before that absolute position and
/// corrupts the first category instruction at or after it. A non-null
/// `start.journal` arms the propagation tracer: once the fault's own work
/// is done the hook stays attached only until the tracer is quiet (see
/// release()), so the post-fault suffix runs on the hooked slow path for
/// as long as some taint is live. Persistent models already stay attached
/// to run end, so staying attached is semantics-identical — only slower.
template <typename Hook, typename Tracer>
class InjectionHookBase : public Hook {
 public:
  bool tracing() const noexcept { return tracing_; }
  obs::PropSummary prop_summary() const noexcept { return tracer_.summary(); }
  bool injected() const noexcept { return injected_; }
  bool activated() const noexcept { return activated_; }
  unsigned bit() const noexcept { return bit_; }
  std::uint64_t static_site() const noexcept { return static_site_; }
  /// Absolute position of the first injection (base included).
  std::uint64_t inject_at() const noexcept { return inject_at_; }
  const char* site_opcode() const noexcept { return site_opcode_; }
  const char* site_function() const noexcept { return site_function_; }

 protected:
  /// Corrupts category instance `k`, or the first instance at or after
  /// `start.arm_time` when that is nonzero.
  InjectionHookBase(std::uint64_t k, const TrialStart& start)
      : executed_(start.wake),
        tracing_(start.journal != nullptr),
        tracer_(start.journal),
        target_k_(k),
        seen_(start.seen),
        arm_time_(start.arm_time) {
    if (start.wake > start.base) this->detach(start.wake + 1);  // sleep
  }

  /// Call once per category instruction before injection, with executed_
  /// already counting it: true when this is the instance to corrupt.
  bool arms_here() noexcept {
    return arm_time_ != 0 ? executed_ >= arm_time_ : ++seen_ == target_k_;
  }

  /// The fault's verdict is final and nothing is left to corrupt. An
  /// untraced hook detaches on the spot; a traced one waits for a quiet
  /// tracer (release()).
  void finish() noexcept {
    done_ = true;
    release();
  }

  /// Leaves the slow path once neither the fault nor the tracer needs
  /// callbacks (call after each tracer update). A quiet tracer stays quiet
  /// — no root is planted after finish() — so its counters are final and
  /// only an unrecorded divergence is left to watch for: a diverged tracer
  /// detaches for good; otherwise the hook settles and keeps comparing pcs
  /// with the journal, which lets the executor stop on golden convergence,
  /// and detaches if the journal mismatches first.
  void release() noexcept {
    if (!done_ || this->detached()) return;
    if (!tracing_) {
      this->detach();
    } else if (tracer_.quiet()) {
      if (tracer_.diverged()) {
        this->detach();
      } else {
        this->settle();
      }
    }
  }

  std::uint64_t executed_ = 0;  // absolute dynamic-instruction position
  bool injected_ = false;
  bool activated_ = false;
  unsigned bit_ = 0;
  std::uint64_t static_site_ = 0;
  std::uint64_t inject_at_ = 0;
  const char* site_opcode_ = nullptr;    // borrows a static name table
  const char* site_function_ = nullptr;  // borrows the code's storage
  bool tracing_ = false;
  Tracer tracer_;  // inert (empty) when tracing_ is false

 private:
  std::uint64_t target_k_;
  std::uint64_t seen_;
  std::uint64_t arm_time_;
  bool done_ = false;  // finish() reached: the fault needs no more callbacks
};

template <typename Tool>
class TrialCore : public InjectorEngine {
 public:
  using Code = typename Tool::Code;
  using Executor = typename Tool::Executor;
  using Snapshot = typename Tool::Snapshot;
  using Result = typename Tool::Result;
  using Limits = typename Tool::Limits;
  using Store = CheckpointStore<Snapshot>;

  const char* tool_name() const noexcept override { return Tool::kName; }
  std::unique_ptr<TrialContext> make_context() override {
    profile_all();  // every trial needs the golden run and the snapshots
    return std::make_unique<Context>(code_);
  }
  std::uint64_t window_of(ir::Category category,
                          std::uint64_t k) const override {
    if (fault_model_.trigger == FaultTrigger::Time) {
      const std::uint64_t t = time_trigger_point(category, k);
      if (t != 0) return checkpoints_.window_of_time(t);
    }
    return checkpoints_.window_of(category, k);
  }
  const Model& fault_model() const noexcept override { return fault_model_; }
  /// golden_output() and golden_instructions() are valid after
  /// profile_all() or make_context().
  const std::string& golden_output() const noexcept override {
    return golden_output_;
  }
  std::uint64_t golden_instructions() const noexcept override {
    return golden_instructions_;
  }
  CheckpointStats checkpoint_stats() const override;
  PhaseStats phase_stats() const override;
  ExecConfig exec_config() const override { return exec_; }
  /// The snapshots and marks the profiling run captured; valid after
  /// profile_all() or make_context().
  const Store& checkpoint_store() const noexcept { return checkpoints_; }

 protected:
  /// The code must outlive the engine. Binds the code, the policies and
  /// the execution strategy; executes nothing (the fault-free run waits for
  /// profile_once()).
  TrialCore(const Code& code, FaultModel model, CheckpointPolicy checkpoints,
            Model fault_model, ExecConfig exec)
      : code_(code),
        model_(model),
        fault_model_(fault_model),
        checkpoint_policy_(checkpoints),
        exec_(exec) {}

  /// profile_all(): the engine's one fault-free run, executed by the first
  /// call only (std::call_once: concurrent first callers wait for it; a
  /// program whose fault-free run does not complete throws on every call,
  /// and the engine stays unusable). `make_sites()`
  /// returns the engine's site profile (masks set, hits sized to the
  /// executor's site numbering). Returns the cached category counts.
  template <typename JournalHook, typename MakeSites>
  CategoryCounts profile_once(MakeSites make_sites) {
    std::call_once(profiled_, [&] {
      SiteProfile sites = make_sites();
      profile_sites<JournalHook>(sites);
    });
    return profile_counts_;
  }

  /// One trial: restore from the nearest snapshot, run with the hook that
  /// `make_hook(plan, start)` returns, classify. `context` must come from
  /// make_context().
  template <typename MakeHook>
  TrialRecord run_trial(TrialContext* context, ir::Category category,
                        std::uint64_t k, Rng& rng, MakeHook make_hook);

  /// Default limits of every run the engine makes: its dispatch mode.
  Limits exec_limits() const {
    Limits limits;
    limits.dispatch = exec_.dispatch;
    return limits;
  }

  const Code& code_;
  FaultModel model_;

 private:
  /// Per-worker resident executor: its address space persists between
  /// trials, so same-window trials reset via the O(dirty) delta path.
  struct Context final : TrialContext {
    explicit Context(const Code& code) : exec(code) {}
    Executor exec;
  };

  /// The fault-free run behind profile_once(): counts every category
  /// through `sites.hits`, captures the checkpoint snapshots and marks,
  /// and records golden_output()/golden_instructions() from its own
  /// result. It runs unhooked on the fast path, unless propagation
  /// tracing is on: then
  /// `JournalHook` rides along and captures the golden pc journal in the
  /// same pass (hooked, so on the slow path).
  template <typename JournalHook>
  void profile_sites(SiteProfile& sites);

  static std::uint64_t nanos_since(std::chrono::steady_clock::time_point t0) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  /// Hang limit: the paper detects hangs as "substantially longer than the
  /// golden run".
  Limits faulty_limits() const {
    Limits limits = exec_limits();
    limits.max_instructions = golden_instructions_ * 10 + 100'000;
    return limits;
  }

  /// Dynamic instruction index at which a time-triggered fault arms for
  /// trial (category, k): k's share of the golden run, scaled by the
  /// profiled category density. Zero (= fall back to access trigger) for a
  /// category without instances.
  std::uint64_t time_trigger_point(ir::Category category,
                                   std::uint64_t k) const {
    const std::uint64_t count = profile_counts_[category];
    if (count == 0) return 0;  // nothing to arm on: use the access trigger
    // The k-th of `count` instances maps to its proportional position in
    // the golden run; +1 keeps the trigger strictly after instruction 0.
    return (k - 1) * golden_instructions_ / count + 1;
  }

  /// Restore-side accounting into the engine atomics. Call only for trials
  /// that actually resumed from a snapshot.
  void account_restore(const machine::Memory::RestoreStats& restore,
                       std::uint64_t snapshot_executed) const;

  /// Record-fill tail: the hook's injection facts plus the run's terminal
  /// state — everything except outcome classification. `restore` is null
  /// for a run from main.
  template <typename Hook>
  static void fill_record(TrialRecord& record, const Hook& hook,
                          const Result& r, std::uint64_t k,
                          const machine::Memory::RestoreStats* restore);

  Model fault_model_;
  CheckpointPolicy checkpoint_policy_;
  /// Execution strategy. With exec_.trace_prop the golden pc journal is
  /// captured by the profiling run, then read-only during trials.
  ExecConfig exec_;
  /// Guards the one profiling run; everything below up to the counters is
  /// written by it and only read afterwards.
  std::once_flag profiled_;
  std::string golden_output_;
  std::uint64_t golden_instructions_ = 0;
  obs::GoldenJournal journal_;
  /// During the trial phase workers only query the store (thread-safe), so
  /// concurrent trials are safe.
  Store checkpoints_;
  CategoryCounts profile_counts_;
  std::uint64_t checkpoint_stride_ = 0;  ///< final capture stride
  mutable std::atomic<std::uint64_t> trials_{0};
  mutable std::atomic<std::uint64_t> restored_trials_{0};
  mutable std::atomic<std::uint64_t> skipped_instructions_{0};
  mutable std::atomic<std::uint64_t> delta_restores_{0};
  mutable std::atomic<std::uint64_t> restored_pages_{0};
  mutable std::atomic<std::uint64_t> converged_trials_{0};
  mutable std::atomic<std::uint64_t> converged_instructions_{0};
  mutable std::atomic<std::uint64_t> armed_instructions_{0};
  mutable std::atomic<std::uint64_t> restore_nanos_{0};
  mutable std::atomic<std::uint64_t> execute_nanos_{0};
  mutable std::atomic<std::uint64_t> classify_nanos_{0};
};

template <typename Tool>
template <typename JournalHook>
void TrialCore<Tool>::profile_sites(SiteProfile& sites) {
  JournalHook journal_hook(&journal_);
  Executor exec(code_, exec_.trace_prop ? &journal_hook : nullptr);
  Limits limits = exec_limits();
  limits.site_hits = sites.hits.data();
  if (checkpoint_policy_.enabled) {
    // The golden length is unknown until this run ends, so an automatic
    // stride starts at kMinStride and doubles each time the store fills up
    // to 2 * kAutoWindows snapshots; halve() then keeps every second one,
    // the grid of the doubled stride. The run ends with between
    // kAutoWindows and 2 * kAutoWindows - 1 windows (fewer only when the
    // run is shorter than that many kMinStride windows).
    const bool automatic = checkpoint_policy_.stride == 0;
    checkpoint_stride_ =
        automatic ? CheckpointPolicy::kMinStride : checkpoint_policy_.stride;
    // A capture boundary falls every mark spacing, and a snapshot is
    // taken at the first boundary a stride or more past the previous one
    // (the boundary stride is cut short to land on it). A boundary fires
    // between two dynamic instructions, so the site hits there fold into
    // exactly the per-category instance counts of its prefix; every
    // boundary is a mark.
    limits.capture_stride = Store::mark_spacing(checkpoint_stride_);
    limits.capture_sink = [this, &sites, automatic,
                           next_snapshot = checkpoint_stride_](
                              std::uint64_t executed,
                              const typename Limits::Capture& capture) mutable {
      const CategoryCounts seen = sites.counts();
      checkpoints_.mark(executed, seen);
      if (executed >= next_snapshot) {
        checkpoints_.add(capture(), seen);
        if (automatic &&
            checkpoints_.size() == 2 * CheckpointPolicy::kAutoWindows) {
          checkpoints_.halve();
          checkpoint_stride_ *= 2;
        }
        next_snapshot = executed + checkpoint_stride_;
      }
      return std::min(Store::mark_spacing(checkpoint_stride_),
                      next_snapshot - executed);
    };
  }
  Result r = Tool::run(exec, limits);
  if (!r.completed())
    throw std::runtime_error(std::string(Tool::kName) +
                             ": fault-free run did not complete");
  golden_output_ = std::move(r.output);
  golden_instructions_ = r.dynamic_instructions;
  profile_counts_ = sites.counts();
}

template <typename Tool>
template <typename MakeHook>
TrialRecord TrialCore<Tool>::run_trial(TrialContext* context,
                                       ir::Category category, std::uint64_t k,
                                       Rng& rng, MakeHook make_hook) {
  Executor& exec = static_cast<Context&>(*context).exec;
  const FaultPlan plan(fault_model_, rng, Tool::kDrawBits);
  const std::uint64_t arm_time = fault_model_.trigger == FaultTrigger::Time
                                     ? time_trigger_point(category, k)
                                     : 0;
  // Restore phase: the snapshot lookup plus, on a hit, the executor's
  // restore of memory, runtime and registers.
  auto phase_t0 = std::chrono::steady_clock::now();
  const typename Store::Entry* cp = arm_time != 0
                                        ? checkpoints_.before_time(arm_time)
                                        : checkpoints_.before(category, k);
  machine::Memory::RestoreStats restore;
  if (cp != nullptr) restore = exec.restore(cp->snapshot);
  const std::uint64_t restore_ns = nanos_since(phase_t0);
  TrialStart start;
  start.base = cp != nullptr ? cp->snapshot.executed : 0;
  start.wake = start.base;
  start.seen = cp != nullptr ? cp->seen[category] : 0;
  start.arm_time = arm_time;
  start.journal = exec_.trace_prop ? &journal_ : nullptr;
  if (arm_time != 0) {
    start.wake = arm_time - 1;  // before_time(): base < arm_time
  } else if (const typename Store::Mark* mark =
                 checkpoints_.mark_before(category, k);
             mark != nullptr && mark->executed > start.base) {
    start.wake = mark->executed;
    start.seen = mark->seen[category];
  }
  auto hook = make_hook(plan, start);
  exec.set_hook(&hook);
  trials_.fetch_add(1, std::memory_order_relaxed);
  Limits limits = faulty_limits();
  // Golden-convergence early exit (DESIGN §4). It fires once the hook has
  // detached for good or settled with a quiet propagation tracer.
  limits.golden_after = [this](std::uint64_t executed) {
    return checkpoints_.after(executed);
  };
  phase_t0 = std::chrono::steady_clock::now();
  Result r = cp != nullptr ? exec.resume(limits) : Tool::run(exec, limits);
  const std::uint64_t execute_ns = nanos_since(phase_t0);
  exec.set_hook(nullptr);  // the hook dies with this call
  if (cp != nullptr) account_restore(restore, start.base);
  // The armed window: instructions run with the hook live before the
  // fault fired (to the run's end when it never did).
  const std::uint64_t armed_end =
      hook.injected() ? hook.inject_at() : r.dynamic_instructions;
  if (armed_end > start.wake)
    armed_instructions_.fetch_add(armed_end - start.wake,
                                  std::memory_order_relaxed);
  if (r.converged != nullptr) {
    const std::uint64_t suffix =
        complete_converged(r, golden_output_, golden_instructions_);
    converged_trials_.fetch_add(1, std::memory_order_relaxed);
    converged_instructions_.fetch_add(suffix, std::memory_order_relaxed);
  }

  TrialRecord record;
  fill_record(record, hook, r, k, cp != nullptr ? &restore : nullptr);
  phase_t0 = std::chrono::steady_clock::now();
  record.outcome = classify(hook.injected(), hook.activated(), r.trapped,
                            r.timed_out, r.output, golden_output_);
  record.restore_ns = restore_ns;
  record.execute_ns = execute_ns;
  record.classify_ns = nanos_since(phase_t0);
  restore_nanos_.fetch_add(restore_ns, std::memory_order_relaxed);
  execute_nanos_.fetch_add(execute_ns, std::memory_order_relaxed);
  classify_nanos_.fetch_add(record.classify_ns, std::memory_order_relaxed);
  return record;
}

template <typename Tool>
template <typename Hook>
void TrialCore<Tool>::fill_record(
    TrialRecord& record, const Hook& hook, const Result& r, std::uint64_t k,
    const machine::Memory::RestoreStats* restore) {
  record.dynamic_target = k;
  record.bit = hook.bit();
  record.static_site = hook.static_site();
  record.injected = hook.injected();
  record.site_opcode = hook.site_opcode();
  record.site_function = hook.site_function();
  record.total_instructions = r.dynamic_instructions;
  if (hook.injected())
    record.inject_instruction = hook.inject_at();  // absolute position
  if (r.trapped) {
    record.trap_pc = r.trap_pc;
    record.trap = r.trap;
  }
  if (restore != nullptr) {
    record.restored = true;
    record.delta_restored = restore->delta;
    record.restored_pages = static_cast<std::uint32_t>(restore->pages);
  }
  if (hook.tracing()) record.prop = hook.prop_summary();
}

template <typename Tool>
void TrialCore<Tool>::account_restore(
    const machine::Memory::RestoreStats& restore,
    std::uint64_t snapshot_executed) const {
  restored_trials_.fetch_add(1, std::memory_order_relaxed);
  skipped_instructions_.fetch_add(snapshot_executed, std::memory_order_relaxed);
  restored_pages_.fetch_add(restore.pages, std::memory_order_relaxed);
  if (restore.delta) delta_restores_.fetch_add(1, std::memory_order_relaxed);
}

template <typename Tool>
CheckpointStats TrialCore<Tool>::checkpoint_stats() const {
  CheckpointStats stats;
  stats.snapshots = checkpoints_.size();
  stats.stride = checkpoint_stride_;
  stats.trials = trials_.load(std::memory_order_relaxed);
  stats.restored_trials = restored_trials_.load(std::memory_order_relaxed);
  stats.skipped_instructions =
      skipped_instructions_.load(std::memory_order_relaxed);
  stats.delta_restores = delta_restores_.load(std::memory_order_relaxed);
  stats.restored_pages = restored_pages_.load(std::memory_order_relaxed);
  stats.converged_trials = converged_trials_.load(std::memory_order_relaxed);
  stats.converged_instructions =
      converged_instructions_.load(std::memory_order_relaxed);
  stats.armed_instructions =
      armed_instructions_.load(std::memory_order_relaxed);
  return stats;
}

template <typename Tool>
PhaseStats TrialCore<Tool>::phase_stats() const {
  const auto seconds = [](const std::atomic<std::uint64_t>& nanos) {
    return static_cast<double>(nanos.load(std::memory_order_relaxed)) * 1e-9;
  };
  PhaseStats p;
  p.restore_seconds = seconds(restore_nanos_);
  p.execute_seconds = seconds(execute_nanos_);
  p.classify_seconds = seconds(classify_nanos_);
  return p;
}

}  // namespace faultlab::fault
