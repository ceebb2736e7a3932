// Machine simulator for the x86-flavoured ISA — the "hardware + PIN" that
// PINFI instruments. Executes a Program against the shared memory model,
// with a hook interface that can observe every dynamic instruction and
// mutate machine state after an instruction retires (fault injection).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "machine/memory.h"
#include "machine/run_loop.h"
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

/// Instrumentation interface; detach, re-arm and settle are the run
/// loop's (machine::HookControl).
class SimHook : public machine::HookControl {
 public:
  virtual ~SimHook() = default;
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

/// Run parameters and outcome (machine/run_loop.h). A run's budget
/// defaults to 400 M dynamic instructions.
using SimLimits = machine::RunLimits<SimSnapshot, 400'000'000>;
using SimResult = machine::RunResult<SimSnapshot>;

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
