// Machine simulator for the x86-flavoured ISA — the "hardware + PIN" that
// PINFI instruments. Executes a Program against the shared memory model,
// with a hook interface that can observe every dynamic instruction and
// mutate machine state after an instruction retires (fault injection).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "machine/dispatch.h"
#include "machine/memory.h"
#include "machine/runtime.h"
#include "x86/program.h"

namespace faultlab::x86 {

/// Full architectural state, exposed to hooks so injectors can flip bits in
/// destination registers, XMM lanes, or EFLAGS.
struct MachineState {
  std::uint64_t gpr[kNumGprs] = {};
  std::uint64_t xmm[kNumXmms][2] = {};  // [0] = low 64 bits, [1] = high
  std::uint64_t rflags = 0;
  std::uint64_t rip_index = 0;  // instruction index, not byte address
};

class SimHook {
 public:
  virtual ~SimHook() = default;
  /// True once the hook has nothing left to observe right now. The
  /// simulator checks this at instruction boundaries; when `rearm_at()` is
  /// zero it drops the hook for the rest of the run (the transient fast
  /// path), so an injection hook done tracking activation stops taxing
  /// every remaining instruction with virtual calls. With a nonzero
  /// `rearm_at()` the hook merely goes dormant: callbacks are suppressed
  /// until the executed-instruction count reaches the re-arm point, then
  /// the simulator calls `rearm()` and resumes delivery. The hook object
  /// stays alive and queryable either way.
  bool detached() const noexcept { return detached_; }
  /// Absolute executed-instruction count at which a dormant hook wants
  /// callbacks again; zero means detachment is final.
  std::uint64_t rearm_at() const noexcept { return rearm_at_; }
  /// Reactivates a dormant hook. Called by the simulator when the re-arm
  /// point is reached; not for subclass use.
  void rearm() noexcept {
    detached_ = false;
    rearm_at_ = 0;
  }
  /// True once the hook still observes but no longer changes anything
  /// the run's outcome or its own record depends on. The simulator then
  /// treats it like a detached hook for golden convergence: a state equal
  /// to the golden snapshot would replay the golden suffix, callbacks
  /// included.
  bool settled() const noexcept { return settled_; }
  /// Called before executing instruction `code[index]`.
  virtual void on_before(std::size_t index, const Inst& inst) {
    (void)index;
    (void)inst;
  }
  /// Called between on_before and execution for each memory access the
  /// instruction is about to make, with the exact effective address
  /// computed from pre-execution register state. Covers explicit memory
  /// operands (loads, stores) and the implicit stack accesses of
  /// push/pop/call/ret; builtin-call argument reads are not reported.
  virtual void on_memory(std::size_t index, const Inst& inst,
                         std::uint64_t address, unsigned size,
                         bool is_store) {
    (void)index;
    (void)inst;
    (void)address;
    (void)size;
    (void)is_store;
  }
  /// Called after the instruction retires; the hook may mutate `state`
  /// (this is where PINFI's bit flips land).
  virtual void on_after(std::size_t index, const Inst& inst,
                        MachineState& state) {
    (void)index;
    (void)inst;
    (void)state;
  }

 protected:
  /// For subclasses whose instrumentation completes mid-run. Passing a
  /// nonzero `rearm_at` requests dormancy instead of final detachment:
  /// the simulator suppresses callbacks until that many instructions have
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
  bool detached_ = false;
  bool settled_ = false;
  std::uint64_t rearm_at_ = 0;
};

/// Resumable machine state captured between two retired instructions:
/// architectural registers plus copy-on-write memory and runtime state.
/// `executed == n` means the snapshot resumes exactly before dynamic
/// instruction n+1. Any simulator over the same program can restore() it,
/// including several concurrently (each gets its own copy-on-write view).
struct SimSnapshot {
  MachineState state;
  std::uint64_t executed = 0;
  machine::Memory::Snapshot memory;
  machine::Runtime::State runtime;
};

struct SimLimits {
  /// Budget on *total* dynamic instructions, including any golden prefix a
  /// resumed run skipped: resume() keeps counting from the snapshot's
  /// `executed`, so a restored trial times out exactly where a full run
  /// would.
  std::uint64_t max_instructions = 400'000'000;
  /// When nonzero, capture a SimSnapshot once `snapshot_stride` more
  /// instructions have retired and hand it to `snapshot_sink`, which
  /// returns the stride to the next capture (0 stops capturing).
  std::uint64_t snapshot_stride = 0;
  std::function<std::uint64_t(SimSnapshot&&)> snapshot_sink;
  /// Golden-convergence early exit (see vm::RunLimits::golden_after): the
  /// golden snapshot captured at the first position strictly after
  /// `executed`, or nullptr. Once the hook has detached for good or
  /// settled (SimHook::settled), the run compares the MachineState bytes, the runtime heap and the memory
  /// image with it on reaching its position, and stops on a match with
  /// SimResult::converged set.
  std::function<const SimSnapshot*(std::uint64_t executed)> golden_after;
  /// When non-null, each executed instruction increments the counter at
  /// its code index; the array needs code.size() + 1 slots (the last is
  /// the fetch-past-the-end sentinel, which traps and ends up at zero).
  /// Counting happens before the instruction runs, so when snapshot_sink
  /// fires the counters hold exactly the snapshot's prefix. Profiling uses
  /// this to count category instances without a hook; runs without it
  /// take the non-counting fast loop.
  std::uint64_t* site_hits = nullptr;
  /// Execution strategy (see vm::RunLimits::dispatch).
  machine::DispatchMode dispatch = machine::DispatchMode::Threaded;
};

struct SimResult {
  bool trapped = false;
  machine::TrapKind trap = machine::TrapKind::UnmappedAccess;
  /// Static location of the trap when `trapped`: the instruction index
  /// (rip) that was executing — the same id space as PINFI's static_site.
  /// Zero otherwise.
  std::uint64_t trap_pc = 0;
  /// Faulting address carried by the trap (memory address, divisor site,
  /// or jump target).
  std::uint64_t trap_address = 0;
  bool timed_out = false;
  std::int64_t exit_value = 0;
  std::uint64_t dynamic_instructions = 0;
  std::string output;
  /// The golden snapshot the run converged on, or nullptr when it ran to
  /// its end. A converged result stops there: `dynamic_instructions` is
  /// the snapshot's position and `output` the output so far.
  const SimSnapshot* converged = nullptr;

  bool completed() const noexcept { return !trapped && !timed_out; }
};

class Machine;

class Simulator {
 public:
  explicit Simulator(const Program& program, SimHook* hook = nullptr);
  ~Simulator();
  // The resident machine (machine_) holds references into this object;
  // moving or copying would leave them dangling.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Swaps the instrumentation hook for subsequent runs. A resident
  /// simulator serves many trials, each with its own injection hook.
  void set_hook(SimHook* hook) noexcept { hook_ = hook; }

  /// Runs the program's entry function to completion on a fresh machine
  /// image.
  SimResult run(const SimLimits& limits = {});

  /// Loads `snapshot` (captured on this program) as the state the next
  /// resume() runs from, and reports what the page-table restore did.
  ///
  /// The machine is resident: it persists across calls, so restoring the
  /// same snapshot repeatedly rides Memory::restore_delta()'s O(pages the
  /// previous trial touched) path instead of rebuilding the page table.
  machine::Memory::RestoreStats restore(const SimSnapshot& snapshot);

  /// Runs the state the last restore() loaded to completion.
  /// `dynamic_instructions` and `output` report whole-run totals including
  /// the skipped prefix, so outcome classification matches a from-scratch
  /// run. Each restore() allows one resume(); any other call throws
  /// std::logic_error.
  SimResult resume(const SimLimits& limits = {});

 private:
  const Program& program_;
  SimHook* hook_;
  std::unique_ptr<Machine> machine_;  // lazily created, reused across runs
};

}  // namespace faultlab::x86
