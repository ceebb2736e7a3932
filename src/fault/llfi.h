// LLFI analog: fault injection at the IR level through the interpreter.
//
// Target selection follows the paper's LLFI (Section III):
//  * static candidates are instructions in the requested Table III category
//    that have a destination register AND at least one user (the def-use
//    filter that guarantees high activation),
//  * one dynamic instance is chosen uniformly from the profiled count,
//  * a single bit of the destination value is flipped, within the
//    destination type's width,
//  * activation is tracked exactly: the corrupted SSA value must be read
//    by some instruction.
//
// Trial execution is shared with PINFI through TrialCore (trial_core.h):
// profile_all()'s golden run — the engine's only fault-free execution —
// counts category instances on the fast path, captures copy-on-write
// interpreter snapshots every `CheckpointPolicy` stride (with the
// per-category instance counters at each point), and each trial resumes
// from the nearest snapshot before its injection point instead of
// re-running the golden prefix from main(); a trial whose state later
// equals a golden snapshot's stops there instead of re-running the golden
// suffix (the golden-convergence early exit, DESIGN §4). Results are
// bit-identical to direct execution.
#pragma once

#include <cstdint>

#include "fault/engine.h"
#include "fault/trial_core.h"
#include "ir/module.h"
#include "obs/propagation.h"
#include "vm/interpreter.h"

namespace faultlab::fault {

/// TrialCore binding for the IR interpreter.
struct LlfiTool {
  using Code = ir::Module;
  using Executor = vm::Interpreter;
  using Snapshot = vm::Snapshot;
  using Result = vm::RunResult;
  using Limits = vm::RunLimits;
  static constexpr const char* kName = "LLFI";
  /// LLFI's historical draw space is [0, 64): the full register width. The
  /// plan consumes exactly one draw for single-bit models, so the default
  /// model's rng stream matches the pre-model code bit for bit.
  static constexpr unsigned kDrawBits = 64;
  static Result run(Executor& interp, const Limits& limits) {
    return interp.run("main", limits);
  }
};

class LlfiEngine final : public TrialCore<LlfiTool> {
 public:
  /// The module must outlive the engine. `fault_model` selects the
  /// hardware fault model (fault::Model — kind/mask/trigger); `model`
  /// keeps the tool-heuristic knobs; `exec` the execution strategy.
  /// Construction executes nothing: profile_all() (or the first
  /// make_context()) makes the fault-free run.
  explicit LlfiEngine(const ir::Module& module, FaultModel model = {},
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

  /// Static LLFI target predicate (exposed for tests/benches).
  static bool is_target(const ir::Instruction& instr, ir::Category category,
                        const FaultModel& model = {});
};

}  // namespace faultlab::fault
