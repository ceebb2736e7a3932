#include "fault/llfi.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <stdexcept>

#include "fault/site_profile.h"
#include "obs/metrics.h"
#include "obs/propagation.h"
#include "obs/trace.h"
#include "support/bitutil.h"

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
/// When the trial resumes from a checkpoint, `already_seen` primes the
/// instance counter with the skipped prefix's count so the k-th instance
/// is still the k-th, and `base` primes the absolute dynamic-instruction
/// position.
///
/// Transient models keep the PR 4 fast path: one corrupted value, a
/// single id compare per operand read, final detach() on activation.
/// Persistent models (intermittent/permanent) re-fire on every later
/// execution of the armed static site per the model's burst pattern, and
/// track activation against a bounded ring of the most recent corrupted
/// values (older unread values age out of the window — an accepted
/// approximation that keeps per-read cost constant).
///
/// A nonzero `arm_time` selects the time trigger: the hook starts
/// dormant (detached with rearm_at = arm_time) and corrupts the first
/// category instruction at or after that absolute position. If the
/// executor's re-arm boundary lands past arm_time (it can, when arm_time
/// falls inside a phi group), the recorded inject position stays
/// arm_time-relative; the discrepancy is bounded by one phi group and is
/// identical for checkpointed and from-scratch runs.
class InjectHook final : public vm::ExecHook {
 public:
  /// A non-null `journal` arms the propagation tracer: once the fault's
  /// own work is done the hook stays attached only until the tracer is
  /// quiet (see release()), so the post-fault suffix runs on the hooked
  /// slow path for as long as some taint is live. Persistent models already
  /// stay attached to run end, so staying attached is semantics-identical —
  /// only slower.
  InjectHook(ir::Category category, std::uint64_t k, const FaultPlan& plan,
             const FaultModel& model, std::uint64_t already_seen,
             std::uint64_t base, std::uint64_t arm_time,
             const obs::GoldenJournal* journal = nullptr)
      : category_(category),
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

  void on_instruction(const ir::Instruction& instr) override {
    ++executed_;  // absolute dynamic-instruction position
    if (tracing_) {
      tracer_.on_instruction(executed_, instr);
      release();
    }
    if (!injected_) {
      if (LlfiEngine::is_target(instr, category_, model_)) {
        const bool armed = arm_time_ != 0 ? executed_ >= arm_time_
                                          : ++seen_ == target_k_;
        if (armed) pending_ = true;
      }
    } else if (plan_.model().persistent() && &instr == armed_def_) {
      const std::uint64_t o = occurrence_++;
      if (fire_at(o)) {
        pending_ = true;
      } else if (activated_ && burst_done(occurrence_)) {
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
        if (burst_done(occurrence_)) finish();
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
  static constexpr std::size_t kRing = 64;

  /// Whether the o-th execution of the armed site (0-based, counting the
  /// initial injection) gets corrupted: permanent always, intermittent on
  /// the burst pattern (burst_length fires, burst_gap clean executions
  /// between consecutive fires).
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

  /// The fault's verdict is final and nothing is left to corrupt. An
  /// untraced hook detaches on the spot; a traced one waits for a quiet
  /// tracer (release()).
  void finish() noexcept {
    done_ = true;
    release();
  }

  /// Leaves the slow path once neither the fault nor the tracer needs
  /// callbacks (call after each tracer update). A quiet tracer stays quiet
  /// — no root is planted after finish() — so its counters are final and
  /// only an unrecorded divergence is left to watch for: a diverged tracer
  /// detaches for good; otherwise the hook settles and keeps comparing pcs
  /// with the journal, which lets the executor stop on golden convergence,
  /// and detaches if the journal mismatches first.
  void release() noexcept {
    if (!done_ || detached()) return;
    if (!tracing_) {
      detach();
    } else if (tracer_.quiet()) {
      if (tracer_.diverged()) {
        detach();
      } else {
        settle();
      }
    }
  }

  void remember(const vm::DynValueId& id) {
    if (!plan_.model().persistent()) {
      injected_id_ = id;
      return;
    }
    ring_[ring_next_ % kRing] = id;
    ++ring_next_;
  }

  ir::Category category_;
  std::uint64_t target_k_;
  FaultPlan plan_;
  FaultModel model_;
  std::uint64_t seen_ = 0;
  std::uint64_t arm_time_ = 0;
  bool pending_ = false;
  bool injected_ = false;
  bool activated_ = false;
  bool done_ = false;  // finish() reached: the fault needs no more callbacks
  unsigned bit_ = 0;
  vm::DynValueId injected_id_;                 // transient activation target
  vm::DynValueId ring_[kRing];                 // persistent activation window
  std::size_t ring_next_ = 0;
  const ir::Instruction* armed_def_ = nullptr;  // static site, re-fire key
  std::uint64_t occurrence_ = 0;
  std::uint64_t static_site_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t inject_at_ = 0;
  const char* site_opcode_ = nullptr;    // borrows ir's static opcode table
  const char* site_function_ = nullptr;  // borrows the module's storage
  bool tracing_ = false;
  obs::VmPropTracer tracer_;  // inert (empty) when tracing_ is false
};

/// Golden-run journal capture: one pc fingerprint per dynamic instruction
/// (attached to the ctor's golden run only when FAULTLAB_PROP is on).
class JournalHook final : public vm::ExecHook {
 public:
  explicit JournalHook(obs::GoldenJournal* journal) : journal_(journal) {}
  void on_instruction(const ir::Instruction& instr) override {
    journal_->pc.push_back(obs::vm_pc_fingerprint(instr));
  }

 private:
  obs::GoldenJournal* journal_;
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
void fill_record(TrialRecord& record, const InjectHook& hook,
                 const vm::RunResult& r, std::uint64_t k, bool restored) {
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
                       CheckpointPolicy checkpoints, Model fault_model)
    : module_(module),
      model_(model),
      fault_model_(fault_model),
      checkpoint_policy_(checkpoints) {
  if (fault_model_.target == FaultTarget::MemoryCell)
    throw std::runtime_error(
        "LLFI: memory-cell fault targets are not supported (register "
        "destinations only)");
  obs::ScopedSpan span(obs::Tracer::global(), "golden", "engine");
  // With propagation tracing on, the one golden run doubles as the pc
  // journal capture (hooked, so it takes the slow path — paid once per
  // engine, only when FAULTLAB_PROP is set).
  trace_prop_ = obs::prop_enabled();
  JournalHook journal_hook(&journal_);
  vm::Interpreter golden(module_, trace_prop_ ? &journal_hook : nullptr);
  const vm::RunResult r = golden.run();
  if (!r.completed())
    throw std::runtime_error("LLFI: golden run did not complete");
  golden_output_ = r.output;
  golden_instructions_ = r.dynamic_instructions;
  if (span.active()) {
    span.tag("tool", "LLFI");
    span.tag("instructions", golden_instructions_);
  }
}

vm::RunLimits LlfiEngine::faulty_limits() const {
  // The paper detects hangs as "substantially longer than the golden run".
  vm::RunLimits limits;
  limits.max_instructions = golden_instructions_ * 10 + 100'000;
  return limits;
}

std::uint64_t LlfiEngine::profile(ir::Category category) {
  ProfileHook hook(category, model_);
  vm::Interpreter interp(module_, &hook);
  const vm::RunResult r = interp.run();
  if (!r.completed())
    throw std::runtime_error("LLFI: profiling run did not complete");
  return hook.count();
}

CategoryCounts LlfiEngine::profile_all() {
  obs::ScopedSpan span(obs::Tracer::global(), "profile", "engine");
  SiteProfile sites;
  for (const ir::Instruction* instr : vm::site_order(module_))
    sites.add_site(
        [&](ir::Category c) { return is_target(*instr, c, model_); });
  sites.hits.assign(sites.masks.size(), 0);
  vm::Interpreter interp(module_);
  vm::RunLimits limits;
  limits.site_hits = sites.hits.data();
  checkpoints_.clear();
  checkpoints_.set_budget(checkpoint_policy_.budget_pages);
  checkpoint_stride_ = checkpoint_policy_.effective_stride(golden_instructions_);
  limits.snapshot_stride = checkpoint_stride_;
  if (checkpoint_stride_ != 0) {
    // The snapshot sink fires between two dynamic instructions, so the
    // site hits at that moment fold into exactly the per-category instance
    // counts of the skipped prefix. add() enforces the page budget as the
    // run advances, so peak residency never exceeds it.
    limits.snapshot_sink = [this, &sites](vm::Snapshot&& snap) {
      checkpoints_.add(std::move(snap), sites.counts());
    };
  }
  const vm::RunResult r = interp.run("main", limits);
  if (!r.completed())
    throw std::runtime_error("LLFI: profiling run did not complete");
  if (obs::metrics_enabled()) {
    checkpoint_metrics().snapshots.add(checkpoints_.size());
    checkpoint_metrics().evictions.add(checkpoints_.size() -
                                       checkpoints_.live_count());
  }
  if (span.active()) {
    span.tag("tool", "LLFI");
    span.tag("snapshots", static_cast<std::uint64_t>(checkpoints_.size()));
    span.tag("stride", checkpoint_stride_);
  }
  profile_counts_ = sites.counts();
  return profile_counts_;
}

std::uint64_t LlfiEngine::time_trigger_point(ir::Category category,
                                             std::uint64_t k) const {
  const std::uint64_t count = profile_counts_[category];
  if (count == 0) return 0;  // profile_all not run: use the access trigger
  // The k-th of `count` instances maps to its proportional position in
  // the golden run; +1 keeps the trigger strictly after instruction 0.
  return (k - 1) * golden_instructions_ / count + 1;
}

std::uint64_t LlfiEngine::window_of(ir::Category category,
                                    std::uint64_t k) const {
  if (fault_model_.trigger == FaultTrigger::Time) {
    const std::uint64_t t = time_trigger_point(category, k);
    if (t != 0) return checkpoints_.window_of_time(t);
  }
  return checkpoints_.window_of(category, k);
}

std::unique_ptr<TrialContext> LlfiEngine::make_context() {
  return std::make_unique<Context>(module_);
}

TrialRecord LlfiEngine::inject(ir::Category category, std::uint64_t k,
                               Rng& rng) {
  Context context(module_);
  return run_trial(context, category, k, rng);
}

TrialRecord LlfiEngine::inject_in(TrialContext* context, ir::Category category,
                                  std::uint64_t k, Rng& rng) {
  if (context == nullptr) return inject(category, k, rng);
  return run_trial(static_cast<Context&>(*context), category, k, rng);
}

TrialRecord LlfiEngine::run_trial(Context& context, ir::Category category,
                                  std::uint64_t k, Rng& rng) {
  obs::Tracer& tracer = obs::Tracer::global();
  // LLFI's historical draw space is [0, 64): the full register width. The
  // plan consumes exactly one draw for single-bit models, so the default
  // model's rng stream matches the pre-model code bit for bit.
  const FaultPlan plan(fault_model_, rng, 64);
  const std::uint64_t arm_time = fault_model_.trigger == FaultTrigger::Time
                                     ? time_trigger_point(category, k)
                                     : 0;
  const CheckpointStore<vm::Snapshot>::Entry* cp;
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
  InjectHook hook(category, k, plan, model_,
                  cp != nullptr ? cp->seen[category] : 0,
                  cp != nullptr ? cp->snapshot.executed : 0, arm_time,
                  trace_prop_ ? &journal_ : nullptr);
  context.interp.set_hook(&hook);
  trials_.fetch_add(1, std::memory_order_relaxed);
  vm::RunLimits limits = faulty_limits();
  // Golden-convergence early exit (DESIGN §4). It fires once the hook has
  // detached for good or settled with a quiet propagation tracer.
  limits.golden_after = [this](std::uint64_t executed) {
    return checkpoints_.after(executed);
  };
  vm::RunResult r;
  {
    obs::ScopedSpan exec_span(tracer, "execute", "phase");
    const auto phase_t0 = std::chrono::steady_clock::now();
    if (cp != nullptr) {
      restored_trials_.fetch_add(1, std::memory_order_relaxed);
      skipped_instructions_.fetch_add(cp->snapshot.executed,
                                      std::memory_order_relaxed);
      r = context.interp.run_from(cp->snapshot, limits);
    } else {
      r = context.interp.run("main", limits);
    }
    execute_nanos_.fetch_add(nanos_since(phase_t0),
                             std::memory_order_relaxed);
    if (exec_span.active())
      exec_span.tag("instructions",
                    r.dynamic_instructions -
                        (cp != nullptr ? cp->snapshot.executed : 0));
  }
  context.interp.set_hook(nullptr);  // the hook dies with this call
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

void LlfiEngine::account_restore(const vm::RunResult& r,
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

CheckpointStats LlfiEngine::checkpoint_stats() const {
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

PhaseStats LlfiEngine::phase_stats() const {
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
