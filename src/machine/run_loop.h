// Run control shared by the IR interpreter and the x86 simulator.
//
// Both executors run a program one dynamic instruction at a time on the
// hooked slow path, or in stretches on a pre-decoded threaded fast path,
// and both stop at the same boundaries: the timeout, a capture boundary
// (a profiling mark or snapshot), a dormant hook's re-arm point (a
// trial's wake point among them) and golden convergence. This header holds
// that boundary logic once:
//  * HookControl, the detach / re-arm / settle protocol every
//    instrumentation hook (vm::ExecHook, x86::SimHook) derives from;
//  * RunLimits and RunResult, the per-run parameters and outcome, typed
//    over the executor's snapshot;
//  * RunLoop, a CRTP base that owns the resident memory and runtime, the
//    instruction count and the per-run state, and drives the executor's
//    fast loop and slow step between the boundaries. No virtual call is
//    added: every customization point is resolved at compile time.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "machine/dispatch.h"
#include "machine/memory.h"
#include "machine/runtime.h"
#include "machine/trap.h"
#include "obs/metrics.h"

namespace faultlab::machine {

template <typename Executor, typename Hook, typename Limits>
class RunLoop;

/// The part of an instrumentation hook the run loop controls. Hooks derive
/// from it through vm::ExecHook or x86::SimHook, which add the callbacks.
class HookControl {
 public:
  /// True once the hook has nothing left to observe right now. The
  /// executor checks this at instruction boundaries; when `rearm_at()` is
  /// zero it drops the hook for the rest of the run (the transient fast
  /// path), so an injection hook done with its fault stops taxing every
  /// remaining instruction with virtual calls. With a nonzero `rearm_at()`
  /// the hook merely goes dormant: callbacks are suppressed until the
  /// executed-instruction count reaches the re-arm point, then the
  /// executor re-arms the hook and resumes delivery. The hook object stays
  /// alive and queryable either way.
  bool detached() const noexcept { return detached_; }
  /// Absolute executed-instruction count at which a dormant hook wants
  /// callbacks again; zero means detachment is final.
  std::uint64_t rearm_at() const noexcept { return rearm_at_; }
  /// True once the hook still observes but no longer changes anything
  /// the run's outcome or its own record depends on. The executor then
  /// treats it like a detached hook for golden convergence: a state equal
  /// to the golden snapshot would replay the golden suffix, callbacks
  /// included.
  bool settled() const noexcept { return settled_; }

 protected:
  /// For subclasses whose instrumentation completes mid-run. Passing a
  /// nonzero `rearm_at` requests dormancy instead of final detachment:
  /// the executor suppresses callbacks until that many instructions have
  /// executed (absolute count, including any restored prefix), then
  /// re-arms the hook. Time-triggered and persistent fault models use
  /// this to sleep through uninteresting stretches without giving up the
  /// hook pointer.
  void detach(std::uint64_t rearm_at = 0) noexcept {
    detached_ = true;
    rearm_at_ = rearm_at;
  }
  /// For subclasses that stay attached only to watch for an event the
  /// golden suffix can never produce (see settled()).
  void settle() noexcept { settled_ = true; }

 private:
  template <typename, typename, typename>
  friend class RunLoop;
  /// Reactivates a dormant hook; the run loop calls it when the re-arm
  /// point is reached.
  void rearm() noexcept {
    detached_ = false;
    rearm_at_ = 0;
  }

  bool detached_ = false;
  bool settled_ = false;
  std::uint64_t rearm_at_ = 0;
};

/// Per-run parameters of an executor whose snapshots are `SnapshotT`.
template <typename SnapshotT, std::uint64_t kDefaultMaxInstructions>
struct RunLimits {
  using Snapshot = SnapshotT;

  /// Budget on *total* dynamic instructions, including any golden prefix a
  /// resumed run skipped: resume() keeps counting from the snapshot's
  /// `executed`, so a restored trial times out exactly where a full run
  /// would.
  std::uint64_t max_instructions = kDefaultMaxInstructions;
  /// Takes a Snapshot of the state at a capture boundary.
  using Capture = std::function<Snapshot()>;
  /// Capture boundaries. When nonzero, the run stops between two
  /// instructions once `capture_stride` more have retired and calls
  /// `capture_sink(executed, capture)` there. The sink takes a Snapshot
  /// through `capture()` only where it wants one (copy-on-write memory,
  /// runtime and registers) and returns the stride to the next boundary
  /// (0 stops). Profiling records a mark (the position and the category
  /// counts) at every boundary and takes a snapshot at one in
  /// CheckpointStore::kMarksPerWindow.
  std::uint64_t capture_stride = 0;
  std::function<std::uint64_t(std::uint64_t executed, const Capture& capture)>
      capture_sink;
  /// Golden-convergence early exit. When set, returns the golden run's
  /// snapshot captured at the first position strictly after `executed`
  /// (nullptr when none is left). Once the hook has detached for good or
  /// settled (HookControl::settled), the run compares its live state with
  /// that snapshot on reaching its position — the architectural state, the
  /// runtime heap and the memory image; output is write-only and excluded
  /// — and on a match stops with RunResult::converged set: the rest would
  /// replay the golden suffix instruction for instruction.
  std::function<const Snapshot*(std::uint64_t executed)> golden_after;
  /// When non-null, each executed instruction increments its static
  /// site's counter (the interpreter indexes by vm::site_order, the
  /// simulator by code index plus one slot for the fetch-past-the-end
  /// sentinel); the array must cover every site. Counting happens before
  /// the instruction runs, so when capture_sink fires the counters hold
  /// exactly the boundary's prefix. Profiling uses this to count category
  /// instances without a hook; runs without it take the non-counting fast
  /// loop.
  std::uint64_t* site_hits = nullptr;
  /// Execution strategy (machine/dispatch.h). Threaded runs pre-decoded
  /// traces while no hook can observe execution; Switch pins the hooked
  /// loop. Results are identical either way.
  DispatchMode dispatch = DispatchMode::Threaded;
};

/// Outcome of one run()/resume().
template <typename Snapshot>
struct RunResult {
  bool trapped = false;
  TrapKind trap = TrapKind::UnmappedAccess;
  /// Static location of the trap when `trapped`, in the injector's
  /// static_site space: the per-function IR instruction id for the
  /// interpreter, the code index (rip) for the simulator. Zero otherwise.
  std::uint64_t trap_pc = 0;
  /// Faulting address carried by the trap (memory address, divisor site,
  /// or jump target).
  std::uint64_t trap_address = 0;
  bool timed_out = false;
  std::int64_t exit_value = 0;
  std::uint64_t dynamic_instructions = 0;
  std::string output;
  /// The golden snapshot the run converged on (RunLimits::golden_after),
  /// or nullptr when it ran to its end. A converged result stops there:
  /// `dynamic_instructions` is the snapshot's position and `output` the
  /// output so far; the caller completes both from the golden run.
  const Snapshot* converged = nullptr;

  bool completed() const noexcept { return !trapped && !timed_out; }
};

/// The resident run loop of an executor. `Executor` derives from
/// RunLoop<Executor, Hook, Limits> and supplies what differs between the
/// interpreter and the simulator:
///  * `static constexpr const char* kName` and `kRunHistogram`;
///  * `fetch()`: the next instruction, trapping on a bad fetch (before the
///    instruction counts), and `count_site(fetched)`;
///  * `step(fetched, &ret)`: the rest of one slow step, with live_hook_
///    gating every callback; true when the program ended;
///  * `fast_run<kCount>(stop, &ret)`: the threaded loop up to `stop`;
///  * `capture(snap)`, `same_state(snap)` and `load(snap)`: the
///    architectural part of a snapshot;
///  * `exit_value(ret)` and `trap_pc()` for the result.
///
/// Two dispatch paths share the executor's state. The *slow* path
/// (slow_step) is the hooked switch loop: capture boundaries, timeout
/// accounting, hook re-arm checks and callbacks at every instruction. The
/// *fast* path executes pre-decoded micro-op traces with no per-instruction
/// hook or snapshot machinery at all; exec_loop only enters it while no
/// hook can observe execution, and fast_eligible pre-computes the
/// dynamic-instruction index where it must side-exit, so timeouts,
/// capture boundaries, hook re-arms and convergence checks land on exactly
/// the same instruction as a pure slow-path run. RunLimits::dispatch =
/// Switch pins the slow path for A/B equivalence checks.
template <typename Executor, typename Hook, typename Limits>
class RunLoop {
 public:
  using Snapshot = typename Limits::Snapshot;
  using Result = RunResult<Snapshot>;

  /// The executor's resident instance in `slot`, created on first use:
  /// memory, runtime and frame storage then persist between runs, so
  /// consecutive restores stay on Memory's delta path.
  template <typename... Args>
  static Executor& resident(std::unique_ptr<Executor>& slot,
                            const Args&... args) {
    if (slot == nullptr) slot = std::make_unique<Executor>(args...);
    return *slot;
  }

  /// Runs the program from a fresh image: `Executor::start(args...)` lays
  /// it out, then the loop drives it to its end.
  template <typename... Args>
  Result run(Hook* hook, const Limits& limits, const Args&... args) {
    prepare(hook, limits);
    self().start(args...);
    Result r = drive();
    record_run_instructions(r.dynamic_instructions);
    return r;
  }

  /// Loads `snapshot` as the state the next resume() runs from and reports
  /// what the page-table restore did.
  Memory::RestoreStats restore(const Snapshot& snapshot) {
    const Memory::RestoreStats stats = memory_.restore_delta(snapshot.memory);
    runtime_.restore(snapshot.runtime);
    self().load(snapshot);
    executed_ = snapshot.executed;
    loaded_ = true;
    return stats;
  }

  /// Runs the state the last restore() of `executor` (null when it was
  /// never created) loaded. Snapshots already past this run's budget time
  /// out on the next instruction, matching where the non-checkpointed run
  /// would stop. Each restore() allows one resume(); any other call throws
  /// std::logic_error.
  static Result resume(Executor* executor, Hook* hook, const Limits& limits) {
    RunLoop* loop = executor;
    if (loop == nullptr || !loop->loaded_)
      throw std::logic_error(std::string(Executor::kName) +
                             "::resume() without a pending restore()");
    loop->prepare(hook, limits);
    loop->loaded_ = false;
    const std::uint64_t base = loop->executed_;
    Result r = loop->drive();
    // dynamic_instructions is snapshot-primed (absolute position in the
    // golden schedule); the histogram tracks work actually done here.
    record_run_instructions(r.dynamic_instructions - base);
    return r;
  }

 protected:
  RunLoop() : runtime_(memory_) {}

  /// Releases the image for a run from scratch. Releasing the mappings
  /// also disarms delta tracking, so a later restore() knows to fall back
  /// to a full restore.
  void fresh_image() {
    loaded_ = false;
    memory_.reset();
    runtime_.reset();
    executed_ = 0;
  }

  void bump_instruction_count() {
    if (++executed_ > limits_.max_instructions) throw TimeoutException();
  }

  /// One iteration of the hooked slow path. Returns true when the program
  /// ended, with the executor's raw exit value in *ret, or when the run
  /// converged on the golden state (converged_ set).
  bool slow_step(std::uint64_t* ret) {
    maybe_capture();
    if (golden_next_ != nullptr && converges()) return true;
    const auto fetched = self().fetch();
    bump_instruction_count();
    if (limits_.site_hits != nullptr) self().count_site(fetched);
    if (hook_ != nullptr && hook_->detached()) {
      const std::uint64_t at = hook_->rearm_at();
      if (at == 0) {
        hook_ = nullptr;  // rest of the run executes at unhooked speed
      } else if (executed_ >= at) {
        hook_->rearm();  // dormant hook reached its re-arm point
      }
    }
    // Dormant hooks (detached with a future rearm_at) are suppressed for
    // the whole instruction: live_hook_ gates every callback site. A hook
    // that detaches inside a callback still gets the rest of this
    // instruction's callbacks.
    live_hook_ = hook_ != nullptr && !hook_->detached() ? hook_ : nullptr;
    return self().step(fetched, ret);
  }

  Hook* hook_ = nullptr;
  /// hook_ gated per instruction: null while the hook is dormant awaiting
  /// its re-arm point, so no callback fires mid-sleep.
  Hook* live_hook_ = nullptr;
  Limits limits_;
  Memory memory_;
  Runtime runtime_;
  std::uint64_t executed_ = 0;

 private:
  Executor& self() { return static_cast<Executor&>(*this); }

  /// Arms the per-run parameters; the state itself is resident.
  void prepare(Hook* hook, const Limits& limits) {
    hook_ = hook;
    live_hook_ = nullptr;
    limits_ = limits;
    next_capture_at_ = 0;
  }

  Result drive() {
    if (limits_.capture_stride != 0)
      next_capture_at_ = executed_ + limits_.capture_stride;
    golden_next_ =
        limits_.golden_after ? limits_.golden_after(executed_) : nullptr;
    converged_ = nullptr;
    Result result;
    try {
      std::uint64_t ret = 0;
      if (limits_.site_hits != nullptr) {
        exec_loop<true>(&ret);
      } else {
        exec_loop<false>(&ret);
      }
      if (converged_ != nullptr) {
        result.converged = converged_;
      } else {
        result.exit_value = self().exit_value(ret);
      }
    } catch (const TrapException& trap) {
      result.trapped = true;
      result.trap = trap.kind();
      result.trap_address = trap.address();
      result.trap_pc = self().trap_pc();
    } catch (const TimeoutException&) {
      result.timed_out = true;
    }
    result.dynamic_instructions = executed_;
    result.output = runtime_.output();
    return result;
  }

  /// Runs to the program's end (or to golden convergence). Switch mode is
  /// the pure slow loop; threaded mode alternates trace execution with
  /// single hooked slow steps at window boundaries. kCount selects the
  /// fast loop that also fills RunLimits::site_hits.
  template <bool kCount>
  void exec_loop(std::uint64_t* ret) {
    if (limits_.dispatch == DispatchMode::Switch) {
      while (!slow_step(ret)) {
      }
      return;
    }
    while (true) {
      std::uint64_t stop = limits_.max_instructions;
      if (fast_eligible(&stop) &&
          self().template fast_run<kCount>(stop, ret))
        return;
      if (slow_step(ret)) return;
    }
  }

  /// Whether the fast path may run right now, and — via `stop` — up to
  /// which dynamic-instruction count. The slow path's per-instruction
  /// checks all fire at positions known in advance:
  ///  * timeout: the bump of instruction max+1 throws, so the fast loop
  ///    may execute while executed_ < max;
  ///  * hook re-arm: a dormant hook re-arms on the instruction that brings
  ///    executed_ to rearm_at, which must run hooked → stop at rearm_at-1.
  ///    A trial's injection hook sleeps this way to its wake point (the
  ///    profiling mark before its target instance, or its time trigger),
  ///    so the golden prefix up to there runs here;
  ///  * capture boundaries: the sink is called before the instruction that
  ///    has executed_ >= next_capture_at_ → stop there. Profiling takes a
  ///    mark at each and a snapshot at some;
  ///  * golden convergence: checked at the next golden snapshot's position
  ///    once the hook is gone → stop there too.
  /// One slow step at the boundary then performs the actual throw /
  /// re-arm / capture / compare with unchanged semantics.
  bool fast_eligible(std::uint64_t* stop) {
    if (hook_ != nullptr) {
      if (!hook_->detached()) return false;
      const std::uint64_t at = hook_->rearm_at();
      if (at == 0) {
        hook_ = nullptr;  // finally detached: same nulling as the slow loop
      } else {
        *stop = std::min(*stop, at - 1);
      }
    }
    if (next_capture_at_ != 0 && limits_.capture_sink)
      *stop = std::min(*stop, next_capture_at_);
    if (hook_ == nullptr && golden_next_ != nullptr)
      *stop = std::min(*stop, golden_next_->executed);
    return executed_ < *stop;
  }

  /// A capture boundary: hands the position and a capture of the state
  /// there to the sink, which returns the stride to the next boundary.
  void maybe_capture() {
    if (next_capture_at_ == 0 || executed_ < next_capture_at_ ||
        !limits_.capture_sink)
      return;
    const std::uint64_t stride =
        limits_.capture_sink(executed_, [this] { return snapshot(); });
    next_capture_at_ = stride != 0 ? executed_ + stride : 0;
  }

  /// The state between two instructions, memory copy-on-write.
  Snapshot snapshot() {
    Snapshot snap;
    self().capture(snap);
    snap.executed = executed_;
    snap.memory = memory_.snapshot();
    snap.runtime = runtime_.save();
    return snap;
  }

  /// Golden-convergence check between two instructions (see
  /// RunLimits::golden_after); call with golden_next_ set. It applies only
  /// once the hook is gone (dropped when it detaches for good) or settled.
  /// True when the live state equals the golden snapshot captured at
  /// exactly this position: the rest of the run would replay the golden
  /// suffix, so the caller stops with converged_ set.
  bool converges() {
    if ((hook_ != nullptr && !hook_->settled()) ||
        executed_ < golden_next_->executed)
      return false;
    const Snapshot& golden = *golden_next_;
    golden_next_ = limits_.golden_after(executed_);
    if (golden.executed != executed_ || !self().same_state(golden) ||
        !runtime_.same_heap(golden.runtime) ||
        !memory_.same_image(golden.memory))
      return false;
    converged_ = &golden;
    return true;
  }

  /// Instructions actually executed per run()/resume() call (the delta,
  /// not the snapshot-primed absolute count), log2-bucketed in the global
  /// registry. One handle lookup per process; one branch when disabled.
  static void record_run_instructions(std::uint64_t delta) {
    if (!obs::metrics_enabled()) return;
    static obs::Histogram histogram =
        obs::Registry::global().histogram(Executor::kRunHistogram);
    histogram.record(delta);
  }

  std::uint64_t next_capture_at_ = 0;
  const Snapshot* golden_next_ = nullptr;  // next convergence candidate
  const Snapshot* converged_ = nullptr;    // set when converges() matched
  bool loaded_ = false;  // restore() ran and resume() has not consumed it
};

}  // namespace faultlab::machine
