// PINFI analog: fault injection at the assembly level through the machine
// simulator, playing the role Intel PIN plays in the paper.
//
// Target selection follows the paper's PINFI (Section IV):
//  * static candidates are instructions with a register destination in the
//    requested Table III category, plus flag-writing compares whose next
//    instruction is a conditional jump,
//  * one dynamic instance is chosen uniformly from the profiled count,
//  * a single bit of the destination register is flipped after the
//    instruction retires; for compares, only the EFLAGS bit(s) the
//    following jcc reads (heuristic 1); for double-precision results, only
//    the low 64 XMM bits (heuristic 2),
//  * activation is tracked architecturally: the corrupted register (or
//    flag bit) must be read before being overwritten.
//
// Trial execution is shared with LLFI through TrialCore (trial_core.h):
// profile_all()'s golden run — the engine's only fault-free execution —
// counts category instances on the fast path, captures copy-on-write
// simulator snapshots every `CheckpointPolicy` stride (with per-category
// instance counters), and each trial resumes from the nearest snapshot
// before its injection point; a trial whose state later equals a golden
// snapshot's stops there (the golden-convergence early exit, DESIGN §4).
// Results are bit-identical to direct execution.
#pragma once

#include <cstdint>

#include "fault/engine.h"
#include "fault/trial_core.h"
#include "obs/propagation.h"
#include "x86/program.h"
#include "x86/simulator.h"

namespace faultlab::fault {

/// TrialCore binding for the machine simulator.
struct PinfiTool {
  using Code = x86::Program;
  using Executor = x86::Simulator;
  using Snapshot = x86::SimSnapshot;
  using Result = x86::SimResult;
  using Limits = x86::SimLimits;
  static constexpr const char* kName = "PINFI";
  /// PINFI's historical draw space is [0, 128): the widest destination
  /// (an unpruned XMM register). The plan consumes exactly one draw for
  /// single-bit models, so the default model's rng stream matches the
  /// pre-model code bit for bit.
  static constexpr unsigned kDrawBits = 128;
  static Result run(Executor& sim, const Limits& limits) {
    return sim.run(limits);
  }
};

class PinfiEngine final : public TrialCore<PinfiTool> {
 public:
  /// The program must outlive the engine. `fault_model` selects the
  /// hardware fault model (fault::Model — kind/mask/trigger); `model`
  /// keeps the tool-heuristic knobs; `exec` the execution strategy.
  /// Construction executes nothing: profile_all() (or the first
  /// make_context()) makes the fault-free run.
  PinfiEngine(const x86::Program& program, FaultModel model = {},
              CheckpointPolicy checkpoints = CheckpointPolicy::from_env(),
              Model fault_model = Model::from_env(),
              ExecConfig exec = ExecConfig::from_env());

  CategoryCounts profile_all() override;  ///< one run, all categories
  TrialRecord inject_in(TrialContext* context, ir::Category category,
                        std::uint64_t k, Rng& rng) override;

  /// Dynamic count of `category` instructions in a fault-free run (the
  /// paper's Table IV entry), counted through a per-instruction hook: the
  /// oracle for profile_all().
  std::uint64_t profile(ir::Category category);

  /// Static PINFI target predicate (exposed for tests/benches).
  static bool is_target(const x86::Inst& inst, const x86::Inst* next,
                        ir::Category category);
};

}  // namespace faultlab::fault
