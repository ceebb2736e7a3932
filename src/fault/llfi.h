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
// Trial execution is checkpointed: profile_all()'s golden run, which counts
// category instances on the fast path, captures copy-on-write interpreter
// snapshots every `CheckpointPolicy` stride (with the per-category instance
// counters at each point), and inject() resumes from the nearest snapshot before its injection point
// instead of re-running the golden prefix from main(); a trial whose state
// later equals a golden snapshot's stops there instead of re-running the
// golden suffix (the golden-convergence early exit, DESIGN §4). Results
// are bit-identical to direct execution.
#pragma once

#include <atomic>
#include <memory>

#include "fault/checkpoint_store.h"
#include "fault/engine.h"
#include "ir/module.h"
#include "obs/propagation.h"
#include "vm/interpreter.h"

namespace faultlab::fault {

class LlfiEngine final : public InjectorEngine {
 public:
  /// The module must outlive the engine. `fault_model` selects the
  /// hardware fault model (fault::Model — kind/mask/trigger); `model`
  /// keeps the tool-heuristic knobs. Memory-cell targets are rejected
  /// here with std::runtime_error: LLFI corrupts SSA destinations only.
  explicit LlfiEngine(const ir::Module& module, FaultModel model = {},
                      CheckpointPolicy checkpoints = CheckpointPolicy::from_env(),
                      Model fault_model = Model::from_env());

  const char* tool_name() const noexcept override { return "LLFI"; }
  std::uint64_t profile(ir::Category category) override;
  CategoryCounts profile_all() override;  ///< one run, all categories
  TrialRecord inject(ir::Category category, std::uint64_t k,
                     Rng& rng) override;
  TrialRecord inject_in(TrialContext* context, ir::Category category,
                        std::uint64_t k, Rng& rng) override;
  std::unique_ptr<TrialContext> make_context() override;
  std::uint64_t window_of(ir::Category category,
                          std::uint64_t k) const override;
  const Model& fault_model() const noexcept override { return fault_model_; }
  const std::string& golden_output() const noexcept override {
    return golden_output_;
  }
  std::uint64_t golden_instructions() const noexcept override {
    return golden_instructions_;
  }
  CheckpointStats checkpoint_stats() const override;
  PhaseStats phase_stats() const override;

  /// Re-applies a snapshot page budget after profiling (tests/tools; the
  /// campaign path sets it via CheckpointPolicy). Evicts LRU-first, so
  /// windows no trial has resumed from go before hot ones. Must not run
  /// concurrently with trials.
  void set_snapshot_budget(std::uint64_t pages) {
    checkpoints_.set_budget(pages);
  }

  /// Static LLFI target predicate (exposed for tests/benches).
  static bool is_target(const ir::Instruction& instr, ir::Category category,
                        const FaultModel& model = {});

 private:
  /// Per-worker resident interpreter: its address space persists between
  /// trials, so same-window trials reset via the O(dirty) delta path.
  struct Context final : TrialContext {
    explicit Context(const ir::Module& m) : interp(m) {}
    vm::Interpreter interp;
  };

  vm::RunLimits faulty_limits() const;
  TrialRecord run_trial(Context& context, ir::Category category,
                        std::uint64_t k, Rng& rng);
  /// Restore-side accounting: engine atomics plus the checkpoint-metrics
  /// mirror. Call only for trials that actually resumed from a snapshot.
  void account_restore(const vm::RunResult& r,
                       std::uint64_t snapshot_executed) const;
  /// Dynamic instruction index at which a time-triggered fault arms for
  /// trial (category, k): k's share of the golden run, scaled by the
  /// profiled category density. Zero (= fall back to access trigger)
  /// until profile_all() has filled the category counts.
  std::uint64_t time_trigger_point(ir::Category category,
                                   std::uint64_t k) const;

  const ir::Module& module_;
  FaultModel model_;
  Model fault_model_;
  CheckpointPolicy checkpoint_policy_;
  std::string golden_output_;
  std::uint64_t golden_instructions_ = 0;
  /// Propagation tracing (obs/propagation.h): latched from prop_enabled()
  /// at construction; the golden pc journal is captured by the ctor's
  /// golden run iff tracing is on, then read-only during trials.
  bool trace_prop_ = false;
  obs::GoldenJournal journal_;
  /// Filled by profile_all (single-threaded, before trials); during the
  /// trial phase workers only query it (thread-safe), so concurrent
  /// inject() calls are safe.
  CheckpointStore<vm::Snapshot> checkpoints_;
  CategoryCounts profile_counts_;  ///< filled by profile_all (time trigger)
  std::uint64_t checkpoint_stride_ = 0;
  mutable std::atomic<std::uint64_t> trials_{0};
  mutable std::atomic<std::uint64_t> restored_trials_{0};
  mutable std::atomic<std::uint64_t> skipped_instructions_{0};
  mutable std::atomic<std::uint64_t> delta_restores_{0};
  mutable std::atomic<std::uint64_t> restored_pages_{0};
  mutable std::atomic<std::uint64_t> converged_trials_{0};
  mutable std::atomic<std::uint64_t> converged_instructions_{0};
  mutable std::atomic<std::uint64_t> restore_nanos_{0};
  mutable std::atomic<std::uint64_t> execute_nanos_{0};
  mutable std::atomic<std::uint64_t> classify_nanos_{0};
};

}  // namespace faultlab::fault
