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
#include <memory>
#include <string>
#include <vector>

#include "ir/module.h"
#include "machine/memory.h"
#include "machine/run_loop.h"
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
/// plain runs pay almost nothing. Detach, re-arm and settle are the run
/// loop's (machine::HookControl).
class ExecHook : public machine::HookControl {
 public:
  virtual ~ExecHook() = default;
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
};

/// Resumable interpreter state, captured between two dynamic instructions.
/// Holds the explicit call-frame stack plus copy-on-write memory and
/// runtime state, so capturing is O(live frames + mapped pages). A snapshot
/// with `executed == n` resumes exactly before dynamic instruction n+1; all
/// pointers reference the (const, outliving) module, so any interpreter
/// over the same module can restore() it — including concurrently, each
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

/// Run parameters and outcome (machine/run_loop.h). A run's budget
/// defaults to 200 M dynamic IR instructions.
using RunLimits = machine::RunLimits<Snapshot, 200'000'000>;
using RunResult = machine::RunResult<Snapshot>;

/// Static instructions of `module` in RunLimits::site_hits order:
/// functions in module order, each one's instructions by
/// Instruction::id() (ids run contiguously in block order).
std::vector<const ir::Instruction*> site_order(const ir::Module& module);

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

  /// Loads `snapshot` (captured on this module) as the state the next
  /// resume() runs from, and reports what the page-table restore did.
  ///
  /// The execution state is resident: it persists across calls, so
  /// restoring the same snapshot repeatedly rides Memory::restore_delta()'s
  /// O(pages the previous trial touched) path, and frame/register vectors
  /// reuse their allocations instead of being rebuilt per trial.
  machine::Memory::RestoreStats restore(const Snapshot& snapshot);

  /// Runs the state the last restore() loaded to completion. The result
  /// reports totals for the whole logical run: `dynamic_instructions` and
  /// `output` include the skipped prefix, so Crash/SDC/Hang/Benign
  /// classification matches a from-scratch run. Each restore() allows one
  /// resume(); any other call throws std::logic_error.
  RunResult resume(const RunLimits& limits = {});

 private:
  class Impl;
  const ir::Module& module_;
  ExecHook* hook_;
  machine::GlobalLayout layout_;
  std::unique_ptr<Impl> impl_;  // lazily created, reused across runs
};

}  // namespace faultlab::vm
