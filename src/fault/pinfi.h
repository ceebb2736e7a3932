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
// Trial execution is checkpointed the same way as LlfiEngine's:
// profile_all()'s golden run, which counts category instances on the fast
// path, captures copy-on-write simulator snapshots every
// `CheckpointPolicy` stride (with per-category instance counters), and
// inject() resumes from the nearest snapshot before its
// injection point; a trial whose state later equals a golden snapshot's
// stops there (the golden-convergence early exit, DESIGN §4). Results are
// bit-identical to direct execution.
#pragma once

#include <atomic>
#include <memory>

#include "fault/checkpoint_store.h"
#include "fault/engine.h"
#include "obs/propagation.h"
#include "x86/program.h"
#include "x86/simulator.h"

namespace faultlab::fault {

class PinfiEngine final : public InjectorEngine {
 public:
  /// The program must outlive the engine. `fault_model` selects the
  /// hardware fault model (fault::Model — kind/mask/trigger); `model`
  /// keeps the tool-heuristic knobs. Memory-cell targets are rejected
  /// here with std::runtime_error: PINFI corrupts architectural registers
  /// only.
  PinfiEngine(const x86::Program& program, FaultModel model = {},
              CheckpointPolicy checkpoints = CheckpointPolicy::from_env(),
              Model fault_model = Model::from_env());

  const char* tool_name() const noexcept override { return "PINFI"; }
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

  /// Static PINFI target predicate (exposed for tests/benches).
  static bool is_target(const x86::Inst& inst, const x86::Inst* next,
                        ir::Category category);

 private:
  /// Per-worker resident simulator: its address space persists between
  /// trials, so same-window trials reset via the O(dirty) delta path.
  struct Context final : TrialContext {
    explicit Context(const x86::Program& p) : sim(p) {}
    x86::Simulator sim;
  };

  x86::SimLimits faulty_limits() const;
  TrialRecord run_trial(Context& context, ir::Category category,
                        std::uint64_t k, Rng& rng);
  /// Restore-side accounting: engine atomics plus the checkpoint-metrics
  /// mirror. Call only for trials that actually resumed from a snapshot.
  void account_restore(const x86::SimResult& r,
                       std::uint64_t snapshot_executed) const;
  /// Dynamic instruction index at which a time-triggered fault arms for
  /// trial (category, k): k's share of the golden run, scaled by the
  /// profiled category density. Zero (= fall back to access trigger)
  /// until profile_all() has filled the category counts.
  std::uint64_t time_trigger_point(ir::Category category,
                                   std::uint64_t k) const;

  const x86::Program& program_;
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
  CheckpointStore<x86::SimSnapshot> checkpoints_;
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
