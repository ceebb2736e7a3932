#include "fault/llfi.h"

#include <cstddef>
#include <stdexcept>

#include "fault/site_profile.h"
#include "obs/propagation.h"

namespace faultlab::fault {

namespace {

/// Profiling hook: counts dynamic instances of the target set (the hooked
/// oracle for profile_all()'s fast-path counts).
class ProfileHook final : public vm::ExecHook {
 public:
  ProfileHook(ir::Category category, const FaultModel& model)
      : category_(category), model_(model) {}
  void on_instruction(const ir::Instruction& instr) override {
    if (LlfiEngine::is_target(instr, category_, model_)) ++count_;
  }
  std::uint64_t count() const noexcept { return count_; }

 private:
  ir::Category category_;
  FaultModel model_;
  std::uint64_t count_ = 0;
};

/// Injection hook: corrupts the destination of dynamic instance k of the
/// category per the trial's FaultPlan, then watches for a read of a
/// corrupted dynamic value (activation). The raw draws happen up front
/// (in the plan) and are folded by the destination's width at injection
/// time, because the width is only known once the instance is reached.
/// `start` (TrialStart) places the hook in the run: the resume point, the
/// wake point it sleeps to and the instance count there, the time-trigger
/// point, and the propagation journal (see InjectionHookBase).
///
/// Transient models keep the PR 4 fast path: one corrupted value, a
/// single id compare per operand read, final detach() on activation.
/// Persistent models (intermittent/permanent) re-fire on every later
/// execution of the armed static site per the model's burst pattern, and
/// track activation against a bounded ring of the most recent corrupted
/// values (older unread values age out of the window — an accepted
/// approximation that keeps per-read cost constant).
///
/// If the executor's re-arm boundary lands past a time trigger's arm_time
/// (it can, when arm_time falls inside a phi group), the recorded inject
/// position stays arm_time-relative; the discrepancy is bounded by one phi
/// group and is identical for checkpointed and from-scratch runs.
class InjectHook final
    : public InjectionHookBase<vm::ExecHook, obs::VmPropTracer> {
 public:
  InjectHook(ir::Category category, std::uint64_t k, const FaultPlan& plan,
             const FaultModel& model, const TrialStart& start)
      : InjectionHookBase(k, start),
        category_(category),
        plan_(plan),
        model_(model) {}

  void on_instruction(const ir::Instruction& instr) override {
    ++executed_;  // absolute dynamic-instruction position
    if (tracing_) {
      tracer_.on_instruction(executed_, instr);
      release();
    }
    if (!injected_) {
      if (LlfiEngine::is_target(instr, category_, model_) && arms_here())
        pending_ = true;
    } else if (plan_.model().persistent() && &instr == armed_def_) {
      const std::uint64_t o = occurrence_++;
      if (plan_.model().fires_at(o)) {
        pending_ = true;
      } else if (activated_ && plan_.model().burst_done(occurrence_)) {
        finish();  // burst spent and fault observed: nothing left to do
      }
    }
  }

  std::uint64_t on_result(const vm::DynValueId& id, std::uint64_t raw) override {
    if (!pending_) {
      if (tracing_) {
        tracer_.on_result(id);
        release();
      }
      return raw;
    }
    pending_ = false;
    const unsigned width =
        model_.llfi_type_width ? id.def->type()->register_bits() : 64;
    if (!injected_) {
      injected_ = true;
      armed_def_ = id.def;
      static_site_ = id.def->id();
      inject_at_ = executed_;
      site_opcode_ = ir::opcode_name(id.def->opcode());
      site_function_ = id.def->function()->name().c_str();
      bit_ = plan_.primary_bit(width);
      occurrence_ = 1;  // this injection was occurrence 0
    }
    if (!activated_) remember(id);
    if (tracing_) tracer_.plant_root(id, executed_);
    return plan_.corrupt(raw, width);
  }

  void on_operand_read(const vm::DynValueId& id,
                       const ir::Instruction& user) override {
    if (tracing_) tracer_.on_operand_read(id, user);
    if (!injected_ || activated_) return;
    if (!plan_.model().persistent()) {
      if (id == injected_id_) {
        activated_ = true;
        finish();
      }
      return;
    }
    const std::size_t n = ring_next_ < kRing ? ring_next_ : kRing;
    for (std::size_t i = 0; i < n; ++i) {
      if (ring_[i] == id) {
        activated_ = true;
        ring_next_ = 0;  // read tracking is over; keep corrupting
        if (plan_.model().burst_done(occurrence_)) finish();
        return;
      }
    }
  }

  void on_argument_read(std::uint64_t frame, unsigned index,
                        const ir::Instruction& user) override {
    if (tracing_) tracer_.on_argument_read(frame, index, user);
  }

  void on_memory_access(const ir::Instruction& instr, std::uint64_t address,
                        unsigned size, bool is_store) override {
    if (tracing_) tracer_.on_memory_access(instr, address, size, is_store);
  }

  void on_call(const ir::CallInst& call, std::uint64_t caller_frame,
               std::uint64_t callee_frame) override {
    (void)caller_frame;
    if (tracing_) tracer_.on_call(call, callee_frame);
  }

 private:
  static constexpr std::size_t kRing = 64;

  void remember(const vm::DynValueId& id) {
    if (!plan_.model().persistent()) {
      injected_id_ = id;
      return;
    }
    ring_[ring_next_ % kRing] = id;
    ++ring_next_;
  }

  ir::Category category_;
  FaultPlan plan_;
  FaultModel model_;
  bool pending_ = false;
  vm::DynValueId injected_id_;                 // transient activation target
  vm::DynValueId ring_[kRing];                 // persistent activation window
  std::size_t ring_next_ = 0;
  const ir::Instruction* armed_def_ = nullptr;  // static site, re-fire key
  std::uint64_t occurrence_ = 0;
};

/// Golden-run journal capture: one pc fingerprint per dynamic instruction
/// (attached to the profiling run only when propagation tracing is on).
class JournalHook final : public vm::ExecHook {
 public:
  explicit JournalHook(obs::GoldenJournal* journal) : journal_(journal) {}
  void on_instruction(const ir::Instruction& instr) override {
    journal_->pc.push_back(obs::vm_pc_fingerprint(instr));
  }

 private:
  obs::GoldenJournal* journal_;
};

}  // namespace

bool LlfiEngine::is_target(const ir::Instruction& instr, ir::Category category,
                           const FaultModel& model) {
  if (!instr.has_uses()) return false;  // LLFI's def-use activation filter
  if (ir::ir_in_category(instr, category)) return true;
  // Section VII ablation: count getelementptr as arithmetic.
  return model.llfi_gep_as_arithmetic &&
         category == ir::Category::Arithmetic &&
         instr.opcode() == ir::Opcode::Gep && ir::ir_injectable(instr);
}

LlfiEngine::LlfiEngine(const ir::Module& module, FaultModel model,
                       CheckpointPolicy checkpoints, Model fault_model,
                       ExecConfig exec)
    : TrialCore(module, model, checkpoints, fault_model, exec) {}

std::uint64_t LlfiEngine::profile(ir::Category category) {
  ProfileHook hook(category, model_);
  vm::Interpreter interp(code_, &hook);
  const vm::RunResult r = interp.run("main", exec_limits());
  if (!r.completed())
    throw std::runtime_error("LLFI: profiling run did not complete");
  return hook.count();
}

CategoryCounts LlfiEngine::profile_all() {
  return profile_once<JournalHook>([this] {
    SiteProfile sites;
    for (const ir::Instruction* instr : vm::site_order(code_))
      sites.add_site(
          [&](ir::Category c) { return is_target(*instr, c, model_); });
    sites.hits.assign(sites.masks.size(), 0);
    return sites;
  });
}

TrialRecord LlfiEngine::inject_in(TrialContext* context, ir::Category category,
                                  std::uint64_t k, Rng& rng) {
  return run_trial(context, category, k, rng,
                   [&](const FaultPlan& plan, const TrialStart& start) {
                     return InjectHook(category, k, plan, model_, start);
                   });
}

}  // namespace faultlab::fault
