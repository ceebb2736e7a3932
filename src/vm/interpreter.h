// IR interpreter ("the hardware LLFI sees").
//
// Executes a verified IR module directly, with an instrumentation hook that
// observes every dynamic instruction, can rewrite the destination value of
// any value-producing instruction (fault injection), and observes operand
// reads (activation tracking). Runtime values are raw 64-bit patterns;
// their interpretation follows the instruction's static type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/module.h"
#include "machine/memory.h"
#include "machine/runtime.h"

namespace faultlab::vm {

/// Identifies a dynamic SSA value: which frame produced it and which
/// instruction defined it.
struct DynValueId {
  std::uint64_t frame = 0;
  const ir::Instruction* def = nullptr;
  bool operator==(const DynValueId&) const = default;
};

/// Instrumentation interface. The default implementation is a no-op, so
/// plain runs pay almost nothing.
class ExecHook {
 public:
  virtual ~ExecHook() = default;
  /// True once the hook has nothing left to observe right now. The
  /// interpreter checks this at instruction boundaries; when `rearm_at()`
  /// is zero it drops the hook for the rest of the run (the transient
  /// fast path), so an injection hook whose fault has already activated
  /// stops taxing every remaining instruction with virtual calls. With a
  /// nonzero `rearm_at()` the hook merely goes dormant: callbacks are
  /// suppressed until the executed-instruction count reaches the re-arm
  /// point, then the interpreter calls `rearm()` and resumes delivery.
  /// The hook object stays alive and queryable either way.
  bool detached() const noexcept { return detached_; }
  /// Absolute executed-instruction count at which a dormant hook wants
  /// callbacks again; zero means detachment is final.
  std::uint64_t rearm_at() const noexcept { return rearm_at_; }
  /// Reactivates a dormant hook. Called by the executor when the re-arm
  /// point is reached; not for subclass use.
  void rearm() noexcept {
    detached_ = false;
    rearm_at_ = 0;
  }
  /// Called before executing each dynamic instruction.
  virtual void on_instruction(const ir::Instruction& instr) { (void)instr; }
  /// Called with the raw result of a value-producing instruction; the
  /// returned value is what gets written to the virtual register.
  virtual std::uint64_t on_result(const DynValueId& id, std::uint64_t raw) {
    (void)id;
    return raw;
  }
  /// Called when `user` reads the value identified by `id`.
  virtual void on_operand_read(const DynValueId& id,
                               const ir::Instruction& user) {
    (void)id;
    (void)user;
  }
  /// Called when `user` reads formal argument `index` of frame `frame`.
  virtual void on_argument_read(std::uint64_t frame, unsigned index,
                                const ir::Instruction& user) {
    (void)frame;
    (void)index;
    (void)user;
  }
  /// Called after a load/store computed its address (before the access).
  virtual void on_memory_access(const ir::Instruction& instr,
                                std::uint64_t address, unsigned size,
                                bool is_store) {
    (void)instr;
    (void)address;
    (void)size;
    (void)is_store;
  }
  /// Called when `call` creates callee frame `callee_frame` (after the
  /// argument operands were read, before the body runs).
  virtual void on_call(const ir::CallInst& call, std::uint64_t caller_frame,
                       std::uint64_t callee_frame) {
    (void)call;
    (void)caller_frame;
    (void)callee_frame;
  }

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

 private:
  bool detached_ = false;
  std::uint64_t rearm_at_ = 0;
};

/// Resumable interpreter state, captured between two dynamic instructions.
/// Holds the explicit call-frame stack plus copy-on-write memory and
/// runtime state, so capturing is O(live frames + mapped pages). A snapshot
/// with `executed == n` resumes exactly before dynamic instruction n+1; all
/// pointers reference the (const, outliving) module, so any interpreter
/// over the same module can run_from() it — including concurrently, each
/// trial getting its own copy-on-write view of the pages.
struct Snapshot {
  struct Frame {
    const ir::Function* function = nullptr;
    std::uint64_t id = 0;
    std::vector<std::uint64_t> regs;  // indexed by Instruction::id()
    std::vector<std::uint64_t> args;
    const ir::BasicBlock* block = nullptr;
    const ir::BasicBlock* prev_block = nullptr;  // phi predecessor
    std::size_t index = 0;          // next instruction within block
    std::uint64_t saved_sp = 0;     // caller's stack pointer
    const ir::Instruction* call_site = nullptr;  // caller instr receiving ret
    bool operator==(const Frame&) const = default;
  };

  std::vector<Frame> frames;  // bottom (entry) first
  std::uint64_t sp = 0;
  std::uint64_t executed = 0;
  std::uint64_t next_frame_id = 1;
  machine::Memory::Snapshot memory;
  machine::Runtime::State runtime;
};

struct RunLimits {
  /// Budget on *total* dynamic instructions, including any golden prefix a
  /// resumed run skipped: run_from() keeps counting from the snapshot's
  /// `executed`, so a restored trial times out exactly where a full run
  /// would.
  std::uint64_t max_instructions = 200'000'000;
  /// When nonzero, capture a Snapshot every `snapshot_stride` retired
  /// instructions and hand it to `snapshot_sink`.
  std::uint64_t snapshot_stride = 0;
  std::function<void(Snapshot&&)> snapshot_sink;
  /// Golden-convergence early exit. When set, returns the golden run's
  /// snapshot captured at the first position strictly after `executed`
  /// (nullptr when none is left). Once the hook has detached for good, the
  /// run compares its live state with that snapshot on reaching its
  /// position — frames, sp, next_frame_id, the runtime heap and the memory
  /// image; output is write-only and excluded — and on a match stops
  /// with RunResult::converged set: the rest would replay the golden
  /// suffix instruction for instruction.
  std::function<const Snapshot*(std::uint64_t executed)> golden_after;
};

struct RunResult {
  bool trapped = false;
  machine::TrapKind trap = machine::TrapKind::UnmappedAccess;
  /// Static location of the trap when `trapped`: the per-function id of
  /// the instruction that was executing (same id space as the injectors'
  /// static_site). Zero otherwise.
  std::uint64_t trap_pc = 0;
  /// Faulting address carried by the trap (the TrapException's address
  /// operand — memory address, divisor site, or jump target).
  std::uint64_t trap_address = 0;
  bool timed_out = false;
  std::int64_t exit_value = 0;
  std::uint64_t dynamic_instructions = 0;
  std::string output;
  /// Page-table entries rewritten by run_from()'s restore, and whether it
  /// took the O(dirty) delta path (checkpoint observability; both 0/false
  /// for run()).
  std::uint64_t restored_pages = 0;
  bool delta_restored = false;
  /// The golden snapshot the run converged on (RunLimits::golden_after),
  /// or nullptr when it ran to its end. A converged result stops there:
  /// `dynamic_instructions` is the snapshot's position and `output` the
  /// output so far; the caller completes both from the golden run.
  const Snapshot* converged = nullptr;

  bool completed() const noexcept { return !trapped && !timed_out; }
};

class Interpreter {
 public:
  /// The module must outlive the interpreter, be verifier-clean, and have
  /// instruction ids assigned (Function::renumber — the frontend, the pass
  /// pipeline and the verifier all leave modules renumbered). Keeping the
  /// module logically const here makes concurrent interpreters over one
  /// module safe, which the campaign runner's thread pool relies on.
  explicit Interpreter(const ir::Module& module, ExecHook* hook = nullptr);
  ~Interpreter();
  // Execution state (impl_) holds references into this object; moving or
  // copying would leave them dangling.
  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  /// Swaps the instrumentation hook for subsequent runs. A resident
  /// interpreter serves many trials, each with its own injection hook.
  void set_hook(ExecHook* hook) noexcept { hook_ = hook; }

  /// Executes `entry` (no arguments) to completion; every call starts from
  /// a fresh memory image.
  RunResult run(const std::string& entry = "main",
                const RunLimits& limits = {});

  /// Resumes execution from `snapshot` (captured on this module) and runs
  /// to completion. The result reports totals for the whole logical run:
  /// `dynamic_instructions` and `output` include the skipped prefix, so
  /// Crash/SDC/Hang/Benign classification matches a from-scratch run.
  ///
  /// The execution state is resident: it persists across calls, so
  /// resuming the same snapshot repeatedly rides Memory::restore_delta()'s
  /// O(pages the previous trial touched) path, and frame/register vectors
  /// reuse their allocations instead of being rebuilt per trial.
  RunResult run_from(const Snapshot& snapshot, const RunLimits& limits = {});

 private:
  class Impl;
  const ir::Module& module_;
  ExecHook* hook_;
  machine::GlobalLayout layout_;
  std::unique_ptr<Impl> impl_;  // lazily created, reused across runs
};

}  // namespace faultlab::vm
