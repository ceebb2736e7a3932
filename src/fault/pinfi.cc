#include "fault/pinfi.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "fault/site_profile.h"
#include "obs/propagation.h"
#include "support/bitutil.h"
#include "x86/category.h"

namespace faultlab::fault {

namespace {

using x86::Inst;
using x86::kNoReg;
using x86::Op;
using x86::RegId;

/// Width in bits of the destination write (the PINFI injection space).
unsigned dest_write_bits(const Inst& inst, bool xmm_prune) {
  const RegId d = x86::dest_reg(inst);
  if (x86::is_xmm_class(d)) return xmm_prune ? 64 : 128;
  switch (inst.op) {
    case Op::MovzxRR: case Op::MovzxRM: case Op::MovsxRR: case Op::MovsxRM:
    case Op::Lea: case Op::Pop: case Op::MovqRX:
      return 64;
    case Op::Setcc:
      return 8;
    default:
      return inst.width * 8u;
  }
}

/// Opcode label recorded for an injected site. Mostly x86::op_name, but
/// memory-source movs are labelled as loads so attribution's mapping
/// classes line up with LLFI's load opcode instead of folding every mov
/// form into one bucket.
const char* site_op_name(const Inst& inst) {
  switch (inst.op) {
    case Op::MovRM: return "mov.load";
    case Op::MovzxRM: return "movzx.load";
    case Op::MovsxRM: return "movsx.load";
    case Op::MovsdRM: return "movsd.load";
    default: return x86::op_name(inst.op);
  }
}

/// Bit mask a register write covers (for killing activation tracking).
std::uint64_t written_gpr_mask(const Inst& inst) {
  if (x86::dest_fully_overwrites(inst)) return ~std::uint64_t{0};
  switch (inst.op) {
    case Op::Setcc: return 0xff;
    default:
      return low_mask(inst.width * 8u);
  }
}

/// Injection hook. Corruption is driven by the trial's FaultPlan: the
/// plan's bit draws are folded into the destination's write width at
/// injection time and materialized as bit masks (EFLAGS mask, GPR mask,
/// or two XMM lane masks), which Model::apply() then XORs (transient /
/// intermittent) or forces (stuck-at) into the retired state.
///
/// Transient models keep the PR 4 fast path: one corruption, one
/// architectural tracking pass, final detach() once the verdict is known.
/// Persistent models re-fire on every later execution of the armed static
/// site per the model's burst pattern (the masks are invariant — it is
/// the same static instruction every time) and restart tracking at each
/// fire.
///
/// `start` (TrialStart) places the hook in the run: the resume point, the
/// wake point it sleeps to and the instance count there, the time-trigger
/// point, and the propagation journal (see InjectionHookBase).
class PinfiHook final
    : public InjectionHookBase<x86::SimHook, obs::SimPropTracer> {
 public:
  enum class TargetKind { None, Gpr, Xmm, Flags };

  PinfiHook(const x86::Program& program, ir::Category category,
            std::uint64_t k, const FaultPlan& plan, const FaultModel& model,
            const TrialStart& start)
      : InjectionHookBase(k, start),
        program_(program),
        category_(category),
        plan_(plan),
        model_(model) {}

  void on_before(std::size_t index, const Inst& inst) override {
    ++executed_;  // absolute dynamic-instruction position
    if (tracing_) {
      tracer_.on_before(executed_, index, inst);
      release();
    }
    if (!injected_) {
      const Inst* next = index + 1 < program_.code.size()
                             ? &program_.code[index + 1]
                             : nullptr;
      if (PinfiEngine::is_target(inst, next, category_) && arms_here()) {
        pending_ = true;
        pending_next_ = next;
      }
      return;
    }
    if (plan_.model().persistent()) {
      if (index == static_site_) {
        const std::uint64_t o = occurrence_++;
        if (plan_.model().fires_at(o)) {
          pending_ = true;
          pending_next_ = saved_next_;
        }
      }
      if (!activated_ && tracking_) track(inst);
      // An intermittent hook retires only once its burst is spent AND the
      // verdict is final; permanent hooks stay attached to the end (the
      // stuck bits must keep corrupting every re-execution).
      if (!pending_ && plan_.model().burst_done(occurrence_) &&
          (activated_ || !tracking_))
        finish();
      return;
    }
    if (!activated_ && tracking_) {
      track(inst);
      // Activated, or the corrupted bits were overwritten before any read:
      // either way the verdict is final — run the rest unhooked (once the
      // tracer, if any, is quiet).
      if (activated_ || !tracking_) finish();
    }
  }

  void on_memory(std::size_t index, const Inst& inst, std::uint64_t address,
                 unsigned size, bool is_store) override {
    (void)index;
    if (tracing_) tracer_.on_memory(inst, address, size, is_store);
  }

  void on_after(std::size_t index, const Inst& inst,
                x86::MachineState& state) override {
    // Normal taint transfer commits first; a corruption below then roots
    // on top of the just-retired architectural state.
    if (tracing_) {
      tracer_.commit();
      release();
    }
    if (!pending_) return;
    pending_ = false;
    if (!injected_) prime(index, inst);
    tracking_ = true;  // every fire restarts architectural tracking
    const Model& m = plan_.model();
    switch (kind_) {
      case TargetKind::Flags:
        state.rflags = m.apply(state.rflags, flag_mask_);
        if (tracing_) tracer_.plant_root_flags(executed_);
        return;
      case TargetKind::Xmm: {
        auto& lanes = state.xmm[target_reg_ - x86::kXmmBase];
        lanes[0] = m.apply(lanes[0], lane_mask_[0]);
        lanes[1] = m.apply(lanes[1], lane_mask_[1]);
        if (tracing_)
          tracer_.plant_root_xmm(target_reg_ - x86::kXmmBase, executed_);
        return;
      }
      case TargetKind::Gpr:
        state.gpr[target_reg_] = m.apply(state.gpr[target_reg_], gpr_mask_);
        if (tracing_) tracer_.plant_root_gpr(target_reg_, executed_);
        return;
      case TargetKind::None:
        return;
    }
  }

 private:
  /// First-injection bookkeeping: site metadata plus the corruption masks,
  /// which are invariant across re-fires (same static instruction).
  void prime(std::size_t index, const Inst& inst) {
    injected_ = true;
    static_site_ = index;
    inject_at_ = executed_;
    site_opcode_ = site_op_name(inst);
    for (const x86::FunctionInfo& f : program_.functions)
      if (index >= f.entry && index < f.entry + f.size) {
        site_function_ = f.name.c_str();
        break;
      }
    saved_next_ = pending_next_;
    occurrence_ = 1;  // this injection was occurrence 0

    unsigned idxs[FaultPlan::kMaxBits];
    const RegId d = x86::dest_reg(inst);
    if (d == kNoReg) {
      // Compare: inject into EFLAGS, into the bits the following jcc reads
      // (heuristic 1) or anywhere in the low 16 flag bits without it.
      kind_ = TargetKind::Flags;
      if (model_.pinfi_flag_heuristic && pending_next_ != nullptr &&
          pending_next_->op == Op::Jcc) {
        const auto bits = x86::cond_flag_bits(pending_next_->cond);
        const auto space = static_cast<unsigned>(bits.size());
        const unsigned n = plan_.bits_for(space, idxs);
        for (unsigned i = 0; i < n; ++i)
          flag_mask_ |= std::uint64_t{1} << bits[idxs[i]];
        bit_ = bits[plan_.primary_bit(space)];
      } else {
        const unsigned n = plan_.bits_for(16, idxs);
        for (unsigned i = 0; i < n; ++i)
          flag_mask_ |= std::uint64_t{1} << idxs[i];
        bit_ = plan_.primary_bit(16);
      }
      return;
    }
    if (x86::is_xmm_class(d)) {
      kind_ = TargetKind::Xmm;
      target_reg_ = d;
      const unsigned width = dest_write_bits(inst, model_.pinfi_xmm_prune);
      const unsigned n = plan_.bits_for(width, idxs);
      for (unsigned i = 0; i < n; ++i)
        lane_mask_[idxs[i] >= 64 ? 1 : 0] |= std::uint64_t{1}
                                             << (idxs[i] % 64);
      bit_ = plan_.primary_bit(width);
      return;
    }
    kind_ = TargetKind::Gpr;
    target_reg_ = d;
    const unsigned width = dest_write_bits(inst, false);
    gpr_mask_ = plan_.mask_for(width);
    bit_ = plan_.primary_bit(width);
  }

  void track(const Inst& inst) {
    switch (kind_) {
      case TargetKind::Flags:
        if (x86::reads_flags(inst)) {
          const auto bits = x86::cond_flag_bits(inst.cond);
          std::uint64_t read_mask = 0;
          for (const unsigned b : bits) read_mask |= std::uint64_t{1} << b;
          if ((read_mask & flag_mask_) != 0) {
            activated_ = true;
            return;
          }
        }
        if (x86::writes_flags(inst)) tracking_ = false;
        return;
      case TargetKind::Gpr: {
        reads_.clear();
        x86::collect_reads(inst, reads_);
        if (std::find(reads_.begin(), reads_.end(), target_reg_) !=
            reads_.end()) {
          activated_ = true;
          return;
        }
        if (x86::dest_reg(inst) == target_reg_ &&
            (written_gpr_mask(inst) & gpr_mask_) == gpr_mask_)
          tracking_ = false;
        return;
      }
      case TargetKind::Xmm: {
        reads_.clear();
        x86::collect_reads(inst, reads_);
        const bool reads_reg =
            std::find(reads_.begin(), reads_.end(), target_reg_) !=
            reads_.end();
        // Scalar-double code only ever reads the low lane: a pure high-lane
        // corruption is never activated — the rationale for heuristic 2.
        if (reads_reg && lane_mask_[0] != 0) {
          activated_ = true;
          return;
        }
        if (x86::dest_reg(inst) == target_reg_) {
          const bool zeroes_high = inst.op == Op::MovsdRM ||
                                   inst.op == Op::MovqXR ||
                                   inst.op == Op::Cvtsi2sd;
          // Low lane is always rewritten; the high lane needs an
          // explicitly zeroing op to kill a high-lane corruption.
          const bool covers = lane_mask_[1] == 0 || zeroes_high;
          // Two-address SSE arithmetic rewrites the low lane only after
          // reading it (already handled as a read above).
          if (covers && !reads_reg) tracking_ = false;
        }
        return;
      }
      case TargetKind::None:
        return;
    }
  }

  const x86::Program& program_;
  ir::Category category_;
  FaultPlan plan_;
  FaultModel model_;

  bool pending_ = false;
  const Inst* pending_next_ = nullptr;
  const Inst* saved_next_ = nullptr;  // pending_next_ of the armed site
  bool tracking_ = false;
  TargetKind kind_ = TargetKind::None;
  RegId target_reg_ = kNoReg;
  std::uint64_t flag_mask_ = 0;
  std::uint64_t gpr_mask_ = 0;
  std::uint64_t lane_mask_[2] = {0, 0};
  std::uint64_t occurrence_ = 0;
  std::vector<RegId> reads_;
};

/// Golden-run journal capture: one pc fingerprint (the code index) per
/// dynamic instruction, attached to the profiling run only when
/// propagation tracing is on.
class JournalHook final : public x86::SimHook {
 public:
  explicit JournalHook(obs::GoldenJournal* journal) : journal_(journal) {}
  void on_before(std::size_t index, const Inst& inst) override {
    (void)inst;
    journal_->pc.push_back(obs::sim_pc_fingerprint(index));
  }

 private:
  obs::GoldenJournal* journal_;
};

/// Profiling hook: counts dynamic instances of one category (the hooked
/// oracle for profile_all()'s fast-path counts).
class ProfileHook final : public x86::SimHook {
 public:
  ProfileHook(const x86::Program& program, ir::Category category)
      : program_(program), category_(category) {}
  void on_before(std::size_t index, const Inst& inst) override {
    const Inst* next = index + 1 < program_.code.size()
                           ? &program_.code[index + 1]
                           : nullptr;
    if (PinfiEngine::is_target(inst, next, category_)) ++count_;
  }
  std::uint64_t count() const noexcept { return count_; }

 private:
  const x86::Program& program_;
  ir::Category category_;
  std::uint64_t count_ = 0;
};

}  // namespace

bool PinfiEngine::is_target(const Inst& inst, const Inst* next,
                            ir::Category category) {
  // Note: prologue/epilogue and rsp/rbp-writing instructions are included
  // deliberately — corrupting stack-discipline code is exactly the class of
  // fault the paper says high-level injectors cannot reach.
  return x86::asm_in_category(inst, next, category);
}

PinfiEngine::PinfiEngine(const x86::Program& program, FaultModel model,
                         CheckpointPolicy checkpoints, Model fault_model,
                         ExecConfig exec)
    : TrialCore(program, model, checkpoints, fault_model, exec) {}

std::uint64_t PinfiEngine::profile(ir::Category category) {
  ProfileHook hook(code_, category);
  x86::Simulator sim(code_, &hook);
  const x86::SimResult r = sim.run(exec_limits());
  if (!r.completed())
    throw std::runtime_error("PINFI: profiling run did not complete");
  return hook.count();
}

CategoryCounts PinfiEngine::profile_all() {
  return profile_once<JournalHook>([this] {
    const std::vector<Inst>& code = code_.code;
    SiteProfile sites;
    for (std::size_t i = 0; i < code.size(); ++i) {
      const Inst* next = i + 1 < code.size() ? &code[i + 1] : nullptr;
      sites.add_site(
          [&](ir::Category c) { return is_target(code[i], next, c); });
    }
    sites.hits.assign(code.size() + 1, 0);  // + the fetch sentinel's slot
    return sites;
  });
}

TrialRecord PinfiEngine::inject_in(TrialContext* context,
                                   ir::Category category, std::uint64_t k,
                                   Rng& rng) {
  return run_trial(context, category, k, rng,
                   [&](const FaultPlan& plan, const TrialStart& start) {
                     return PinfiHook(code_, category, k, plan, model_,
                                      start);
                   });
}

}  // namespace faultlab::fault
