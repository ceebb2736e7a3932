#include "fault/pinfi.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"
#include "obs/propagation.h"
#include "obs/trace.h"
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
/// fire. A nonzero `arm_time` selects the time trigger: the hook starts
/// dormant (detached with rearm_at = arm_time) and corrupts the first
/// category instruction at or after that absolute position.
///
/// When the trial resumes from a checkpoint, `already_seen` primes the
/// instance counter with the skipped prefix's count so the k-th instance
/// is still the k-th, and `base` primes the absolute position.
class PinfiHook final : public x86::SimHook {
 public:
  enum class TargetKind { None, Gpr, Xmm, Flags };

  /// A non-null `journal` arms the propagation tracer (see InjectHook in
  /// llfi.cc for the contract): post-injection detaches are suppressed so
  /// the whole post-fault suffix runs on the hooked slow path and feeds
  /// the tracer; results are unchanged, only slower.
  PinfiHook(const x86::Program& program, ir::Category category,
            std::uint64_t k, const FaultPlan& plan, const FaultModel& model,
            std::uint64_t already_seen, std::uint64_t base,
            std::uint64_t arm_time,
            const obs::GoldenJournal* journal = nullptr)
      : program_(program),
        category_(category),
        target_k_(k),
        plan_(plan),
        model_(model),
        seen_(already_seen),
        arm_time_(arm_time),
        tracing_(journal != nullptr),
        tracer_(journal) {
    if (arm_time_ != 0 && arm_time_ > base + 1) {
      executed_ = arm_time_ - 1;
      detach(arm_time_);  // sleep until the trigger point
    } else {
      executed_ = base;
    }
  }

  void on_before(std::size_t index, const Inst& inst) override {
    ++executed_;  // absolute dynamic-instruction position
    if (tracing_) tracer_.on_before(executed_, index, inst);
    if (!injected_) {
      const Inst* next = index + 1 < program_.code.size()
                             ? &program_.code[index + 1]
                             : nullptr;
      if (PinfiEngine::is_target(inst, next, category_)) {
        const bool armed = arm_time_ != 0 ? executed_ >= arm_time_
                                          : ++seen_ == target_k_;
        if (armed) {
          pending_ = true;
          pending_next_ = next;
        }
      }
      return;
    }
    if (plan_.model().persistent()) {
      if (index == static_site_) {
        const std::uint64_t o = occurrence_++;
        if (fire_at(o)) {
          pending_ = true;
          pending_next_ = saved_next_;
        }
      }
      if (!activated_ && tracking_) track(inst);
      // An intermittent hook retires only once its burst is spent AND the
      // verdict is final; permanent hooks stay attached to the end (the
      // stuck bits must keep corrupting every re-execution).
      if (!pending_ && burst_done(occurrence_) &&
          (activated_ || !tracking_) && !tracing_)
        detach();
      return;
    }
    if (!activated_ && tracking_) {
      track(inst);
      // Activated, or the corrupted bits were overwritten before any read:
      // either way the verdict is final — run the rest unhooked (unless
      // the tracer still needs every remaining callback).
      if ((activated_ || !tracking_) && !tracing_) detach();
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
    if (tracing_) tracer_.commit();
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

  bool tracing() const noexcept { return tracing_; }
  obs::PropSummary prop_summary() const noexcept { return tracer_.summary(); }
  bool injected() const noexcept { return injected_; }
  bool activated() const noexcept { return activated_; }
  unsigned bit() const noexcept { return bit_; }
  std::uint64_t static_site() const noexcept { return static_site_; }
  /// Absolute position of the first injection (base included).
  std::uint64_t inject_at() const noexcept { return inject_at_; }
  const char* site_opcode() const noexcept { return site_opcode_; }
  const char* site_function() const noexcept { return site_function_; }

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

  /// Whether the o-th execution of the armed site (0-based, counting the
  /// initial injection) gets corrupted: permanent always, intermittent on
  /// the burst pattern.
  bool fire_at(std::uint64_t o) const noexcept {
    const Model& m = plan_.model();
    if (m.kind == FaultKind::Permanent) return true;
    const std::uint64_t period = m.burst_gap + 1;
    return o % period == 0 && o / period < m.burst_length;
  }

  /// True when no occurrence >= next_o can fire any more (intermittent
  /// burst exhausted). Permanent faults never finish.
  bool burst_done(std::uint64_t next_o) const noexcept {
    const Model& m = plan_.model();
    return m.kind == FaultKind::Intermittent &&
           next_o / (m.burst_gap + 1) >= m.burst_length;
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
  std::uint64_t target_k_;
  FaultPlan plan_;
  FaultModel model_;

  std::uint64_t seen_ = 0;
  std::uint64_t arm_time_ = 0;
  bool pending_ = false;
  const Inst* pending_next_ = nullptr;
  const Inst* saved_next_ = nullptr;  // pending_next_ of the armed site
  bool injected_ = false;
  bool activated_ = false;
  bool tracking_ = false;
  TargetKind kind_ = TargetKind::None;
  RegId target_reg_ = kNoReg;
  unsigned bit_ = 0;
  std::uint64_t flag_mask_ = 0;
  std::uint64_t gpr_mask_ = 0;
  std::uint64_t lane_mask_[2] = {0, 0};
  std::uint64_t occurrence_ = 0;
  std::uint64_t static_site_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t inject_at_ = 0;
  const char* site_opcode_ = nullptr;    // borrows the static op-name table
  const char* site_function_ = nullptr;  // borrows the program's storage
  std::vector<RegId> reads_;
  bool tracing_ = false;
  obs::SimPropTracer tracer_;  // inert (empty) when tracing_ is false
};

/// Golden-run journal capture: one pc fingerprint (the code index) per
/// dynamic instruction, attached to the ctor's golden run only when
/// FAULTLAB_PROP is on.
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

/// Single-pass profiling hook: counts dynamic instances of every category
/// in one instrumented run.
class ProfileAllHook final : public x86::SimHook {
 public:
  explicit ProfileAllHook(const x86::Program& program) : program_(program) {}
  void on_before(std::size_t index, const Inst& inst) override {
    const Inst* next = index + 1 < program_.code.size()
                           ? &program_.code[index + 1]
                           : nullptr;
    for (ir::Category c : ir::kAllCategories)
      if (PinfiEngine::is_target(inst, next, c)) ++counts_[c];
  }
  const CategoryCounts& counts() const noexcept { return counts_; }

 private:
  const x86::Program& program_;
  CategoryCounts counts_;
};

/// Nanoseconds elapsed since `t0`, for the per-phase wall-time counters.
std::uint64_t nanos_since(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Record-fill tail: the hook's injection facts plus the run's terminal
/// state — everything except outcome classification.
void fill_record(TrialRecord& record, const PinfiHook& hook,
                 const x86::SimResult& r, std::uint64_t k, bool restored) {
  record.dynamic_target = k;
  record.bit = hook.bit();
  record.static_site = hook.static_site();
  record.injected = hook.injected();
  record.site_opcode = hook.site_opcode();
  record.site_function = hook.site_function();
  record.total_instructions = r.dynamic_instructions;
  if (hook.injected())
    record.inject_instruction = hook.inject_at();  // absolute position
  if (r.trapped) {
    record.trap_pc = r.trap_pc;
    record.trap = r.trap;
  }
  record.restored = restored;
  record.delta_restored = r.delta_restored;
  record.restored_pages = static_cast<std::uint32_t>(r.restored_pages);
  if (hook.tracing()) record.prop = hook.prop_summary();
}

}  // namespace

bool PinfiEngine::is_target(const Inst& inst, const Inst* next,
                            ir::Category category) {
  // Note: prologue/epilogue and rsp/rbp-writing instructions are included
  // deliberately — corrupting stack-discipline code is exactly the class of
  // fault the paper says high-level injectors cannot reach.
  return x86::asm_in_category(inst, next, category);
}

PinfiEngine::PinfiEngine(const x86::Program& program, FaultModel model,
                         CheckpointPolicy checkpoints, Model fault_model)
    : program_(program),
      model_(model),
      fault_model_(fault_model),
      checkpoint_policy_(checkpoints) {
  if (fault_model_.target == FaultTarget::MemoryCell)
    throw std::runtime_error(
        "PINFI: memory-cell fault targets are not supported (architectural "
        "registers only)");
  obs::ScopedSpan span(obs::Tracer::global(), "golden", "engine");
  // With propagation tracing on, the one golden run doubles as the pc
  // journal capture (hooked, so it takes the slow path — paid once per
  // engine, only when FAULTLAB_PROP is set).
  trace_prop_ = obs::prop_enabled();
  JournalHook journal_hook(&journal_);
  x86::Simulator golden(program_, trace_prop_ ? &journal_hook : nullptr);
  const x86::SimResult r = golden.run();
  if (!r.completed())
    throw std::runtime_error("PINFI: golden run did not complete");
  golden_output_ = r.output;
  golden_instructions_ = r.dynamic_instructions;
  if (span.active()) {
    span.tag("tool", "PINFI");
    span.tag("instructions", golden_instructions_);
  }
}

x86::SimLimits PinfiEngine::faulty_limits() const {
  x86::SimLimits limits;
  limits.max_instructions = golden_instructions_ * 10 + 100'000;
  return limits;
}

std::uint64_t PinfiEngine::profile(ir::Category category) {
  ProfileHook hook(program_, category);
  x86::Simulator sim(program_, &hook);
  const x86::SimResult r = sim.run();
  if (!r.completed())
    throw std::runtime_error("PINFI: profiling run did not complete");
  return hook.count();
}

CategoryCounts PinfiEngine::profile_all() {
  obs::ScopedSpan span(obs::Tracer::global(), "profile", "engine");
  ProfileAllHook hook(program_);
  x86::Simulator sim(program_, &hook);
  x86::SimLimits limits;
  checkpoints_.clear();
  checkpoints_.set_budget(checkpoint_policy_.budget_pages);
  checkpoint_stride_ = checkpoint_policy_.effective_stride(golden_instructions_);
  limits.snapshot_stride = checkpoint_stride_;
  if (checkpoint_stride_ != 0) {
    // The snapshot sink fires between two dynamic instructions, so the
    // hook's counters at that moment are exactly the per-category instance
    // counts of the skipped prefix. add() enforces the page budget as the
    // run advances, so peak residency never exceeds it.
    limits.snapshot_sink = [this, &hook](x86::SimSnapshot&& snap) {
      checkpoints_.add(std::move(snap), hook.counts());
    };
  }
  const x86::SimResult r = sim.run(limits);
  if (!r.completed())
    throw std::runtime_error("PINFI: profiling run did not complete");
  if (obs::metrics_enabled()) {
    checkpoint_metrics().snapshots.add(checkpoints_.size());
    checkpoint_metrics().evictions.add(checkpoints_.size() -
                                       checkpoints_.live_count());
  }
  if (span.active()) {
    span.tag("tool", "PINFI");
    span.tag("snapshots", static_cast<std::uint64_t>(checkpoints_.size()));
    span.tag("stride", checkpoint_stride_);
  }
  profile_counts_ = hook.counts();
  return hook.counts();
}

std::uint64_t PinfiEngine::time_trigger_point(ir::Category category,
                                              std::uint64_t k) const {
  const std::uint64_t count = profile_counts_[category];
  if (count == 0) return 0;  // profile_all not run: use the access trigger
  // The k-th of `count` instances maps to its proportional position in
  // the golden run; +1 keeps the trigger strictly after instruction 0.
  return (k - 1) * golden_instructions_ / count + 1;
}

std::uint64_t PinfiEngine::window_of(ir::Category category,
                                     std::uint64_t k) const {
  if (fault_model_.trigger == FaultTrigger::Time) {
    const std::uint64_t t = time_trigger_point(category, k);
    if (t != 0) return checkpoints_.window_of_time(t);
  }
  return checkpoints_.window_of(category, k);
}

std::unique_ptr<TrialContext> PinfiEngine::make_context() {
  return std::make_unique<Context>(program_);
}

TrialRecord PinfiEngine::inject(ir::Category category, std::uint64_t k,
                                Rng& rng) {
  Context context(program_);
  return run_trial(context, category, k, rng);
}

TrialRecord PinfiEngine::inject_in(TrialContext* context, ir::Category category,
                                   std::uint64_t k, Rng& rng) {
  if (context == nullptr) return inject(category, k, rng);
  return run_trial(static_cast<Context&>(*context), category, k, rng);
}

TrialRecord PinfiEngine::run_trial(Context& context, ir::Category category,
                                   std::uint64_t k, Rng& rng) {
  obs::Tracer& tracer = obs::Tracer::global();
  // PINFI's historical draw space is [0, 128): the widest destination
  // (an unpruned XMM register). The plan consumes exactly one draw for
  // single-bit models, so the default model's rng stream matches the
  // pre-model code bit for bit.
  const FaultPlan plan(fault_model_, rng, 128);
  const std::uint64_t arm_time = fault_model_.trigger == FaultTrigger::Time
                                     ? time_trigger_point(category, k)
                                     : 0;
  const CheckpointStore<x86::SimSnapshot>::Entry* cp;
  {
    obs::ScopedSpan restore_span(tracer, "restore", "phase");
    const auto phase_t0 = std::chrono::steady_clock::now();
    cp = arm_time != 0 ? checkpoints_.before_time(arm_time)
                       : checkpoints_.before(category, k);
    if (restore_span.active())
      restore_span.tag("checkpoint", cp != nullptr ? "hit" : "miss");
    restore_nanos_.fetch_add(nanos_since(phase_t0),
                             std::memory_order_relaxed);
  }
  PinfiHook hook(program_, category, k, plan, model_,
                 cp != nullptr ? cp->seen[category] : 0,
                 cp != nullptr ? cp->snapshot.executed : 0, arm_time,
                 trace_prop_ ? &journal_ : nullptr);
  context.sim.set_hook(&hook);
  trials_.fetch_add(1, std::memory_order_relaxed);
  x86::SimLimits limits = faulty_limits();
  // Golden-convergence early exit (DESIGN §4). It can only fire once the
  // hook has detached for good, which a propagation tracer never lets
  // happen, so traced trials skip the lookup altogether.
  if (!trace_prop_)
    limits.golden_after = [this](std::uint64_t executed) {
      return checkpoints_.after(executed);
    };
  x86::SimResult r;
  {
    obs::ScopedSpan exec_span(tracer, "execute", "phase");
    const auto phase_t0 = std::chrono::steady_clock::now();
    if (cp != nullptr) {
      restored_trials_.fetch_add(1, std::memory_order_relaxed);
      skipped_instructions_.fetch_add(cp->snapshot.executed,
                                      std::memory_order_relaxed);
      r = context.sim.run_from(cp->snapshot, limits);
    } else {
      r = context.sim.run(limits);
    }
    execute_nanos_.fetch_add(nanos_since(phase_t0),
                             std::memory_order_relaxed);
    if (exec_span.active())
      exec_span.tag("instructions",
                    r.dynamic_instructions -
                        (cp != nullptr ? cp->snapshot.executed : 0));
  }
  context.sim.set_hook(nullptr);  // the hook dies with this call
  if (cp != nullptr) account_restore(r, cp->snapshot.executed);
  if (r.converged != nullptr) {
    const std::uint64_t suffix =
        complete_converged(r, golden_output_, golden_instructions_);
    converged_trials_.fetch_add(1, std::memory_order_relaxed);
    converged_instructions_.fetch_add(suffix, std::memory_order_relaxed);
  }

  TrialRecord record;
  fill_record(record, hook, r, k, cp != nullptr);
  {
    obs::ScopedSpan classify_span(tracer, "classify", "phase");
    const auto phase_t0 = std::chrono::steady_clock::now();
    record.outcome = classify(hook.injected(), hook.activated(), r.trapped,
                              r.timed_out, r.output, golden_output_);
    classify_nanos_.fetch_add(nanos_since(phase_t0),
                              std::memory_order_relaxed);
  }
  return record;
}

void PinfiEngine::account_restore(const x86::SimResult& r,
                                  std::uint64_t snapshot_executed) const {
  restored_pages_.fetch_add(r.restored_pages, std::memory_order_relaxed);
  if (r.delta_restored)
    delta_restores_.fetch_add(1, std::memory_order_relaxed);
  if (obs::metrics_enabled()) {
    CheckpointMetrics& metrics = checkpoint_metrics();
    metrics.restores.add();
    metrics.restored_pages.add(r.restored_pages);
    metrics.skipped_instructions.add(snapshot_executed);
    if (r.delta_restored) {
      metrics.delta_restores.add();
      metrics.delta_pages.add(r.restored_pages);
      metrics.dirty_pages.record(r.restored_pages);
    }
  }
}

CheckpointStats PinfiEngine::checkpoint_stats() const {
  CheckpointStats stats;
  stats.snapshots = checkpoints_.size();
  stats.stride = checkpoint_stride_;
  stats.trials = trials_.load(std::memory_order_relaxed);
  stats.restored_trials = restored_trials_.load(std::memory_order_relaxed);
  stats.skipped_instructions =
      skipped_instructions_.load(std::memory_order_relaxed);
  stats.delta_restores = delta_restores_.load(std::memory_order_relaxed);
  stats.restored_pages = restored_pages_.load(std::memory_order_relaxed);
  stats.evictions = checkpoints_.evictions();
  stats.converged_trials = converged_trials_.load(std::memory_order_relaxed);
  stats.converged_instructions =
      converged_instructions_.load(std::memory_order_relaxed);
  return stats;
}

PhaseStats PinfiEngine::phase_stats() const {
  PhaseStats p;
  p.restore_seconds =
      static_cast<double>(restore_nanos_.load(std::memory_order_relaxed)) *
      1e-9;
  p.execute_seconds =
      static_cast<double>(execute_nanos_.load(std::memory_order_relaxed)) *
      1e-9;
  p.classify_seconds =
      static_cast<double>(classify_nanos_.load(std::memory_order_relaxed)) *
      1e-9;
  return p;
}

}  // namespace faultlab::fault
