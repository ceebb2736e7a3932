// Fault-propagation tracer tests (obs/propagation.h): taint-transfer
// semantics of both shadow trackers (mask-on-overwrite, store-to-load
// edges, flags taint), quiet() (no live taint), divergence-point
// exactness against hand-built golden journals, engine-level result
// invariance with tracing on/off, exact golden convergence of traced
// trials whose tracer went quiet, and the event-log flush guarantee when a
// campaign dies mid-run.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "driver/pipeline.h"
#include "fault/campaign.h"
#include "fault/engine.h"
#include "fault/llfi.h"
#include "fault/pinfi.h"
#include "fault/scheduler.h"
#include "ir/basic_block.h"
#include "ir/function.h"
#include "ir/module.h"
#include "obs/events.h"
#include "obs/propagation.h"
#include "x86/isa.h"

namespace faultlab::fault {
namespace {

/// Default (threaded) execution with propagation tracing on or off.
ExecConfig prop_exec(bool on) {
  ExecConfig exec;
  exec.trace_prop = on;
  return exec;
}

// ---------------------------------------------------------------------------
// SimPropTracer unit semantics (hand-built x86::Inst streams).

x86::Inst mov_rr(x86::RegId dst, x86::RegId src) {
  x86::Inst inst{};
  inst.op = x86::Op::MovRR;
  inst.dst = dst;
  inst.src = src;
  inst.src_kind = x86::SrcKind::Reg;
  return inst;
}

x86::Inst mov_ri(x86::RegId dst, std::int64_t imm) {
  x86::Inst inst{};
  inst.op = x86::Op::MovRI;
  inst.dst = dst;
  inst.imm = imm;
  inst.src_kind = x86::SrcKind::Imm;
  return inst;
}

TEST(SimProp, TaintTransfersThroughRegisterCopy) {
  obs::SimPropTracer tracer(nullptr);
  tracer.plant_root_gpr(1, 10);  // rcx is the root, depth 0
  const x86::Inst copy = mov_rr(0, 1);  // mov rax, rcx
  tracer.on_before(11, 0, copy);
  tracer.commit();
  const obs::PropSummary s = tracer.summary();
  EXPECT_TRUE(s.traced);
  EXPECT_EQ(s.tainted_reads, 1u);
  EXPECT_EQ(s.fanout, 1u);
  EXPECT_EQ(s.depth, 1u);
  EXPECT_GE(s.peak_tainted_values, 2u);  // rcx and rax together
}

TEST(SimProp, UntaintedOverwriteIsAMaskingEvent) {
  obs::SimPropTracer tracer(nullptr);
  tracer.plant_root_gpr(1, 10);
  const x86::Inst kill = mov_ri(1, 5);  // mov rcx, 5 — full overwrite
  tracer.on_before(11, 0, kill);
  tracer.commit();
  const obs::PropSummary s = tracer.summary();
  EXPECT_EQ(s.masking_events, 1u);
  EXPECT_EQ(s.fanout, 0u);
  // The taint died before anything read it.
  EXPECT_EQ(s.tainted_reads, 0u);
}

TEST(SimProp, StoreToLoadEdgeThroughShadowMemory) {
  obs::SimPropTracer tracer(nullptr);
  tracer.plant_root_gpr(1, 10);

  x86::Inst store{};  // mov [0x2000], rcx
  store.op = x86::Op::MovMR;
  store.dst = 1;
  tracer.on_before(11, 0, store);
  tracer.on_memory(store, 0x2000, 8, /*is_store=*/true);
  tracer.commit();

  x86::Inst load{};  // mov rax, [0x2000]
  load.op = x86::Op::MovRM;
  load.dst = 0;
  tracer.on_before(12, 1, load);
  tracer.on_memory(load, 0x2000, 8, /*is_store=*/false);
  tracer.commit();

  const obs::PropSummary s = tracer.summary();
  EXPECT_EQ(s.tainted_stores, 1u);
  EXPECT_EQ(s.store_load_edges, 1u);
  EXPECT_GE(s.peak_tainted_pages, 1u);
  EXPECT_EQ(s.fanout, 1u);  // the load's destination picked the taint up
}

TEST(SimProp, LoadFromUntaintedPageStaysClean) {
  obs::SimPropTracer tracer(nullptr);
  tracer.plant_root_gpr(1, 10);
  x86::Inst load{};
  load.op = x86::Op::MovRM;
  load.dst = 0;
  tracer.on_before(11, 0, load);
  tracer.on_memory(load, 0x9000, 8, /*is_store=*/false);
  tracer.commit();
  const obs::PropSummary s = tracer.summary();
  EXPECT_EQ(s.store_load_edges, 0u);
  EXPECT_EQ(s.fanout, 0u);
}

TEST(SimProp, ComparisonTaintsFlagsAndBranchCountsAsTainted) {
  obs::SimPropTracer tracer(nullptr);
  tracer.plant_root_gpr(1, 10);

  x86::Inst cmp{};  // cmp rcx, 0
  cmp.op = x86::Op::Cmp;
  cmp.dst = 1;
  cmp.src_kind = x86::SrcKind::Imm;
  tracer.on_before(11, 0, cmp);
  tracer.commit();

  x86::Inst jcc{};  // je <target>
  jcc.op = x86::Op::Jcc;
  tracer.on_before(12, 1, jcc);
  tracer.commit();

  const obs::PropSummary s = tracer.summary();
  EXPECT_EQ(s.tainted_branches, 1u);
  EXPECT_GE(s.depth, 1u);  // flags derived from the root
}

TEST(SimProp, DivergencePointIsExact) {
  // Golden journal: code indices 5, 6, 7, 8 at positions 1..4.
  obs::GoldenJournal journal;
  for (std::size_t i = 5; i <= 8; ++i)
    journal.pc.push_back(obs::sim_pc_fingerprint(i));

  obs::SimPropTracer tracer(&journal);
  tracer.plant_root_gpr(0, 2);  // injected at dynamic position 2
  const x86::Inst nop = mov_ri(3, 0);
  tracer.on_before(1, 5, nop);
  tracer.on_before(2, 6, nop);
  tracer.on_before(3, 7, nop);
  EXPECT_FALSE(tracer.summary().diverged);
  tracer.on_before(4, 99, nop);  // journal expected index 8
  const obs::PropSummary s = tracer.summary();
  EXPECT_TRUE(s.diverged);
  EXPECT_EQ(s.divergence_pc, 99u);
  EXPECT_EQ(s.divergence_offset, 2u);  // positions 2 -> 4
}

TEST(SimProp, RunningPastJournalEndDiverges) {
  obs::GoldenJournal journal;
  journal.pc = {obs::sim_pc_fingerprint(0), obs::sim_pc_fingerprint(1)};
  obs::SimPropTracer tracer(&journal);
  tracer.plant_root_gpr(0, 1);
  const x86::Inst nop = mov_ri(3, 0);
  tracer.on_before(1, 0, nop);
  tracer.on_before(2, 1, nop);
  EXPECT_FALSE(tracer.summary().diverged);
  tracer.on_before(3, 2, nop);  // golden run ended at position 2
  EXPECT_TRUE(tracer.summary().diverged);
}

TEST(SimProp, FullOverwriteOfTheRootIsQuiet) {
  obs::SimPropTracer tracer(nullptr);
  EXPECT_FALSE(tracer.quiet());  // not rooted yet
  tracer.plant_root_gpr(1, 10);
  EXPECT_FALSE(tracer.quiet());
  const x86::Inst kill = mov_ri(1, 5);  // mov rcx, 5 — full overwrite
  tracer.on_before(11, 0, kill);
  tracer.commit();
  EXPECT_TRUE(tracer.quiet());
  EXPECT_FALSE(tracer.diverged());
}

TEST(SimProp, TaintedStoreIsNeverQuiet) {
  obs::SimPropTracer tracer(nullptr);
  tracer.plant_root_gpr(1, 10);
  x86::Inst store{};  // mov [0x2000], rcx
  store.op = x86::Op::MovMR;
  store.dst = 1;
  tracer.on_before(11, 0, store);
  tracer.on_memory(store, 0x2000, 8, /*is_store=*/true);
  tracer.commit();
  // Killing the register leaves the tainted page: page shadow is never
  // cleared, so the tracer stays live for the rest of the run.
  const x86::Inst kill = mov_ri(1, 5);
  tracer.on_before(12, 1, kill);
  tracer.commit();
  EXPECT_EQ(tracer.summary().masking_events, 1u);
  EXPECT_FALSE(tracer.quiet());
}

// ---------------------------------------------------------------------------
// VmPropTracer unit semantics, driven with real IR instructions from a
// tiny compiled module (DynValueId defs must be live instruction
// pointers, but the tracer itself only cares about identity).

struct VmHarness {
  driver::CompiledProgram prog;
  std::vector<const ir::Instruction*> instrs;

  VmHarness()
      : prog(driver::compile(
            "int g[4];\n"
            "int main() { int i; long s = 0;\n"
            "  for (i = 0; i < 4; i++) { g[i] = i * 3; s += g[i]; }\n"
            "  print_int(s); return 0; }",
            "vmprop")) {
    for (const auto& fn : prog.module().functions())
      for (const auto& block : fn->blocks())
        for (const auto& instr : block->instructions())
          instrs.push_back(instr.get());
    EXPECT_GE(instrs.size(), 4u);
  }
};

TEST(VmProp, OperandReadPropagatesTaintToResult) {
  VmHarness h;
  obs::VmPropTracer tracer(nullptr);
  const vm::DynValueId root{1, h.instrs[0]};
  tracer.plant_root(root, 5);

  const ir::Instruction& user = *h.instrs[1];
  tracer.on_instruction(6, user);
  tracer.on_operand_read(root, user);
  tracer.on_result(vm::DynValueId{1, &user});

  const obs::PropSummary s = tracer.summary();
  EXPECT_EQ(s.tainted_reads, 1u);
  EXPECT_EQ(s.fanout, 1u);
  EXPECT_EQ(s.depth, 1u);
}

TEST(VmProp, UntaintedRedefinitionMasks) {
  VmHarness h;
  obs::VmPropTracer tracer(nullptr);
  const vm::DynValueId root{1, h.instrs[0]};
  tracer.plant_root(root, 5);
  // The same def re-executes (loop iteration) with clean operands: the
  // tainted value is overwritten by an untainted result.
  tracer.on_instruction(6, *h.instrs[0]);
  tracer.on_result(root);
  const obs::PropSummary s = tracer.summary();
  EXPECT_EQ(s.masking_events, 1u);
  EXPECT_EQ(s.fanout, 0u);
}

TEST(VmProp, RootRedefinedUnreadIsQuiet) {
  VmHarness h;
  obs::VmPropTracer tracer(nullptr);
  EXPECT_FALSE(tracer.quiet());  // not rooted yet
  const vm::DynValueId root{1, h.instrs[0]};
  tracer.plant_root(root, 5);
  EXPECT_FALSE(tracer.quiet());
  tracer.on_instruction(6, *h.instrs[0]);
  tracer.on_result(root);  // clean redefinition before any read
  EXPECT_TRUE(tracer.quiet());
  EXPECT_FALSE(tracer.diverged());
}

TEST(VmProp, TaintedStoreIsNeverQuiet) {
  VmHarness h;
  obs::VmPropTracer tracer(nullptr);
  const vm::DynValueId root{1, h.instrs[0]};
  tracer.plant_root(root, 5);
  const ir::Instruction& store = *h.instrs[1];
  tracer.on_instruction(6, store);
  tracer.on_operand_read(root, store);
  tracer.on_memory_access(store, 0x4000, 8, /*is_store=*/true);
  // The root dies, but the page it reached keeps the tracer live.
  tracer.on_instruction(7, *h.instrs[0]);
  tracer.on_result(root);
  EXPECT_EQ(tracer.summary().masking_events, 1u);
  EXPECT_FALSE(tracer.quiet());
}

TEST(VmProp, StoreToLoadEdgeThroughShadowPages) {
  VmHarness h;
  obs::VmPropTracer tracer(nullptr);
  const vm::DynValueId root{1, h.instrs[0]};
  tracer.plant_root(root, 5);

  const ir::Instruction& store = *h.instrs[1];
  tracer.on_instruction(6, store);
  tracer.on_operand_read(root, store);  // tainted stored value
  tracer.on_memory_access(store, 0x4000, 8, /*is_store=*/true);

  const ir::Instruction& load = *h.instrs[2];
  tracer.on_instruction(7, load);
  tracer.on_memory_access(load, 0x4000, 8, /*is_store=*/false);
  tracer.on_result(vm::DynValueId{1, &load});

  const obs::PropSummary s = tracer.summary();
  EXPECT_EQ(s.tainted_stores, 1u);
  EXPECT_EQ(s.store_load_edges, 1u);
  EXPECT_GE(s.fanout, 1u);
  EXPECT_GE(s.peak_tainted_pages, 1u);
}

TEST(VmProp, DivergencePointIsExact) {
  VmHarness h;
  obs::GoldenJournal journal;
  journal.pc = {obs::vm_pc_fingerprint(*h.instrs[0]),
                obs::vm_pc_fingerprint(*h.instrs[1]),
                obs::vm_pc_fingerprint(*h.instrs[2])};
  obs::VmPropTracer tracer(&journal);
  tracer.plant_root(vm::DynValueId{1, h.instrs[0]}, 1);
  tracer.on_instruction(1, *h.instrs[0]);
  tracer.on_instruction(2, *h.instrs[1]);
  EXPECT_FALSE(tracer.summary().diverged);
  tracer.on_instruction(3, *h.instrs[3]);  // golden expected instrs[2]
  const obs::PropSummary s = tracer.summary();
  EXPECT_TRUE(s.diverged);
  EXPECT_EQ(s.divergence_pc, h.instrs[3]->id());
  EXPECT_EQ(s.divergence_offset, 2u);
}

TEST(VmProp, TaintCrossesCallBoundary) {
  VmHarness h;
  const ir::Instruction* call = nullptr;
  const ir::Instruction* ret = nullptr;
  for (const ir::Instruction* instr : h.instrs) {
    if (instr->opcode() == ir::Opcode::Call && call == nullptr) call = instr;
    if (instr->opcode() == ir::Opcode::Ret) ret = instr;
  }
  ASSERT_NE(call, nullptr);
  ASSERT_NE(ret, nullptr);
  obs::VmPropTracer tracer(nullptr);
  const vm::DynValueId root{1, h.instrs[0]};
  tracer.plant_root(root, 5);

  // Frame 1 passes the tainted value to a callee running in frame 2.
  tracer.on_instruction(6, *call);
  tracer.on_operand_read(root, *call);
  tracer.on_call(*call, 2);

  // Another frame's arguments stay clean.
  const ir::Instruction& user = *h.instrs[1];
  tracer.on_instruction(7, user);
  tracer.on_argument_read(3, 0, user);
  tracer.on_result(vm::DynValueId{3, &user});
  EXPECT_EQ(tracer.summary().fanout, 0u);

  // The callee's argument read picks the taint up...
  tracer.on_instruction(8, user);
  tracer.on_argument_read(2, 0, user);
  tracer.on_result(vm::DynValueId{2, &user});
  // ...and its return carries it back into the caller's call result.
  tracer.on_instruction(9, *ret);
  tracer.on_operand_read(vm::DynValueId{2, &user}, *ret);
  tracer.on_result(vm::DynValueId{1, call});

  const obs::PropSummary s = tracer.summary();
  EXPECT_EQ(s.tainted_reads, 3u);
  EXPECT_EQ(s.fanout, 2u);
  EXPECT_EQ(s.depth, 2u);
  EXPECT_FALSE(tracer.quiet());
}

TEST(VmProp, DeterministicForSameDraw) {
  // Unoptimized, so the calls survive and taint crosses frames.
  driver::CompileOptions unopt;
  unopt.optimize = false;
  auto prog = driver::compile(R"(
    long mix(long v) {
      long a = v + 1; long b = a * 3;
      if (b > 1000000) return b;
      return (b ^ 5) + v;
    }
    int main() {
      long x = 3; int i;
      for (i = 0; i < 6; i++) x = mix(x);
      print_int(x);
      return 0;
    }
  )", "prop_det", unopt);
  LlfiEngine engine(prog.module(), {}, CheckpointPolicy{}, Model{},
                    prop_exec(true));
  const std::uint64_t n = engine.profile_all()[ir::Category::All];
  ASSERT_GT(n, 0u);
  bool spread = false;
  for (std::uint64_t k = 1; k <= n; k += 1 + n / 12) {
    Rng first_rng(k);
    Rng second_rng(k);
    const TrialRecord a = engine.inject(ir::Category::All, k, first_rng);
    const TrialRecord b = engine.inject(ir::Category::All, k, second_rng);
    EXPECT_TRUE(a.prop.traced) << "k=" << k;
    EXPECT_EQ(a.outcome, b.outcome) << "k=" << k;
    EXPECT_EQ(a.bit, b.bit) << "k=" << k;
    EXPECT_EQ(a.total_instructions, b.total_instructions) << "k=" << k;
    EXPECT_EQ(a.prop, b.prop) << "k=" << k;
    if (a.prop.fanout > 0) spread = true;
  }
  EXPECT_TRUE(spread);
}

// ---------------------------------------------------------------------------
// Engine-level invariance: tracing must never change trial results, and
// traced trials must carry a filled summary.

const char* kEngineProgram = R"(
  int data[16];
  int main() {
    int i; long acc = 0;
    for (i = 0; i < 16; i++) data[i] = i * 5 + 1;
    for (i = 0; i < 16; i++) {
      if (data[i] % 2 == 0) acc += data[i];
      else acc -= i;
    }
    print_int(acc);
    return 0;
  }
)";

template <typename Engine, typename Source>
void expect_tracing_invariant(Source& source) {
  constexpr int kTrials = 30;
  std::vector<TrialRecord> plain, traced;
  {
    Engine engine(source, {}, CheckpointPolicy::from_env(), Model::from_env(),
                  prop_exec(false));
    const std::uint64_t n = engine.profile(ir::Category::All);
    ASSERT_GT(n, 0u);
    Rng rng(42);
    for (int t = 0; t < kTrials; ++t) {
      Rng trial = rng.fork();
      plain.push_back(engine.inject(ir::Category::All, rng.range(1, n), trial));
    }
  }
  {
    Engine engine(source, {}, CheckpointPolicy::from_env(), Model::from_env(),
                  prop_exec(true));
    const std::uint64_t n = engine.profile(ir::Category::All);
    Rng rng(42);
    for (int t = 0; t < kTrials; ++t) {
      Rng trial = rng.fork();
      traced.push_back(
          engine.inject(ir::Category::All, rng.range(1, n), trial));
    }
  }
  int diverged = 0;
  for (int t = 0; t < kTrials; ++t) {
    EXPECT_EQ(plain[t].outcome, traced[t].outcome) << "trial " << t;
    EXPECT_EQ(plain[t].bit, traced[t].bit) << "trial " << t;
    EXPECT_EQ(plain[t].static_site, traced[t].static_site) << "trial " << t;
    EXPECT_EQ(plain[t].injected, traced[t].injected) << "trial " << t;
    EXPECT_EQ(plain[t].total_instructions, traced[t].total_instructions)
        << "trial " << t;
    EXPECT_EQ(plain[t].inject_instruction, traced[t].inject_instruction)
        << "trial " << t;
    EXPECT_EQ(plain[t].trap, traced[t].trap) << "trial " << t;
    EXPECT_EQ(plain[t].trap_pc, traced[t].trap_pc) << "trial " << t;
    EXPECT_FALSE(plain[t].prop.traced) << "trial " << t;
    if (traced[t].injected) {
      EXPECT_TRUE(traced[t].prop.traced) << "trial " << t;
      if (traced[t].prop.diverged) {
        ++diverged;
        EXPECT_GE(traced[t].prop.divergence_offset, 1u) << "trial " << t;
      }
    } else {
      EXPECT_FALSE(traced[t].prop.traced) << "trial " << t;
    }
  }
  // A 30-trial all-category campaign on this program reliably produces at
  // least one control-flow divergence (crashes and flipped branches).
  EXPECT_GE(diverged, 1);
}

TEST(PropEngine, LlfiResultsUnchangedByTracing) {
  auto prog = driver::compile(kEngineProgram, "prop_llfi");
  expect_tracing_invariant<LlfiEngine>(prog.module());
}

TEST(PropEngine, PinfiResultsUnchangedByTracing) {
  auto prog = driver::compile(kEngineProgram, "prop_pinfi");
  expect_tracing_invariant<PinfiEngine>(prog.program());
}

// ---------------------------------------------------------------------------
// Quiet tracers: a traced trial whose fault is done and whose taint is dead
// leaves the slow path (detached when diverged, settled otherwise) and may
// stop on golden convergence. Checkpoint-free trials never converge, so
// they are the oracle — record and PropSummary alike.

/// Repeated passes over one array: masked faults in the loop temporaries
/// die quickly, so traced trials reach quiet tracers and golden states.
const char* kQuietProgram = R"(
  int data[64];
  int main() {
    int i; int r; long v; long s; long acc = 0;
    for (i = 0; i < 64; i++) data[i] = i * 7 + 3;
    for (r = 0; r < 24; r++) {
      s = 0;
      for (i = 0; i < 64; i++) {
        v = data[i] * (r + 1);
        if (v % 3 == 0) s += v;
        else s -= i;
      }
      acc += s % 1000;
    }
    print_int(acc);
    return 0;
  }
)";

struct TracedCell {
  CampaignResult result;
  CheckpointStats stats;
};

template <typename Engine, typename Source>
TracedCell traced_cell(const Source& source, CheckpointPolicy checkpoints,
                       const Model& model) {
  Engine engine(source, {}, checkpoints, model, prop_exec(true));
  CampaignConfig cfg;
  cfg.app = "quiet";
  cfg.category = ir::Category::All;
  cfg.trials = 40;
  cfg.seed = 7;
  cfg.threads = 1;
  TracedCell cell{run_campaign(engine, cfg), {}};
  cell.stats = engine.checkpoint_stats();
  return cell;
}

template <typename Engine, typename Source>
void expect_quiet_tracer_matches_direct(const Source& source) {
  CheckpointPolicy direct;
  direct.enabled = false;
  CheckpointPolicy strided;
  strided.stride = 500;
  const TracedCell off = traced_cell<Engine>(source, direct, Model{});
  const TracedCell on = traced_cell<Engine>(source, strided, Model{});
  const std::vector<TrialRecord>& a = on.result.trials;
  const std::vector<TrialRecord>& b = off.result.trials;
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t].outcome, b[t].outcome) << "trial " << t;
    EXPECT_EQ(a[t].dynamic_target, b[t].dynamic_target) << "trial " << t;
    EXPECT_EQ(a[t].bit, b[t].bit) << "trial " << t;
    EXPECT_EQ(a[t].static_site, b[t].static_site) << "trial " << t;
    EXPECT_EQ(a[t].injected, b[t].injected) << "trial " << t;
    EXPECT_EQ(a[t].total_instructions, b[t].total_instructions)
        << "trial " << t;
    EXPECT_EQ(a[t].inject_instruction, b[t].inject_instruction)
        << "trial " << t;
    EXPECT_EQ(a[t].trap, b[t].trap) << "trial " << t;
    EXPECT_EQ(a[t].trap_pc, b[t].trap_pc) << "trial " << t;
    EXPECT_TRUE(a[t].prop == b[t].prop) << "trial " << t;
  }
  EXPECT_EQ(off.stats.converged_trials, 0u);
  EXPECT_GT(on.stats.restored_trials, 0u);
  EXPECT_GT(on.stats.converged_trials, 0u);
}

TEST(PropEngine, QuietTracerMatchesCheckpointFreeRun) {
  auto prog = driver::compile(kQuietProgram, "prop_quiet");
  expect_quiet_tracer_matches_direct<LlfiEngine>(prog.module());
  expect_quiet_tracer_matches_direct<PinfiEngine>(prog.program());
}

TEST(PropEngine, TracedStuckAtFaultsNeverConverge) {
  // A stuck-at fault keeps corrupting to the end of the run, so its hook
  // never finishes and the tracer can never release it.
  auto prog = driver::compile(kQuietProgram, "prop_stuck");
  CheckpointPolicy strided;
  strided.stride = 500;
  const Model stuck = Model::parse("stuck-at-1");
  const TracedCell llfi =
      traced_cell<LlfiEngine>(prog.module(), strided, stuck);
  const TracedCell pinfi =
      traced_cell<PinfiEngine>(prog.program(), strided, stuck);
  EXPECT_GT(llfi.stats.restored_trials + pinfi.stats.restored_trials, 0u);
  EXPECT_EQ(llfi.stats.converged_trials, 0u);
  EXPECT_EQ(pinfi.stats.converged_trials, 0u);
}

// ---------------------------------------------------------------------------
// Event-shard flush on CampaignError unwind: a worker dying mid-run must
// not lose the trials that already completed (scheduler.cc's
// EventFlushGuard).

/// Succeeds for the first four inject_in() calls, then explodes — the
/// completed trials' events sit in un-flushed shard buffers when the
/// CampaignError unwinds the scheduler.
class PartialThrowingEngine final : public InjectorEngine {
 public:
  const char* tool_name() const noexcept override { return "MOCK"; }
  CategoryCounts profile_all() override {
    CategoryCounts counts;
    counts.counts.fill(64);
    return counts;
  }
  std::unique_ptr<TrialContext> make_context() override {
    return std::make_unique<TrialContext>();
  }
  std::uint64_t window_of(ir::Category, std::uint64_t) const override {
    return kNoWindow;
  }
  TrialRecord inject_in(TrialContext* context, ir::Category, std::uint64_t k,
                        Rng&) override {
    EXPECT_NE(context, nullptr);
    if (calls_.fetch_add(1) >= 4)
      throw std::runtime_error("worker killed mid-run");
    TrialRecord record;
    record.outcome = Outcome::Benign;
    record.injected = true;
    record.dynamic_target = k;
    record.static_site = 7;
    record.site_opcode = "mock";
    record.site_function = "main";
    return record;
  }
  const std::string& golden_output() const noexcept override {
    return golden_;
  }
  std::uint64_t golden_instructions() const noexcept override { return 1; }

 private:
  std::atomic<int> calls_{0};
  std::string golden_ = "ok\n";
};

TEST(PropEvents, ShardsFlushedWhenCampaignDiesMidRun) {
  const std::string path = ::testing::TempDir() + "prop_flush_events.jsonl";
  ASSERT_TRUE(obs::EventLog::global().open(path));

  PartialThrowingEngine engine;
  CampaignConfig cfg;
  cfg.app = "flushapp";
  cfg.category = ir::Category::All;
  cfg.trials = 12;
  cfg.threads = 1;  // deterministic: exactly 4 trials complete
  EXPECT_THROW(run_campaign(engine, cfg), CampaignError);

  const std::uint64_t appended = obs::EventLog::global().appended();
  EXPECT_EQ(appended, 4u);

  // Read the file BEFORE close(): only the unwind-path flush can have
  // written these bytes.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::uint64_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    // Every flushed record must be a complete JSON object.
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    EXPECT_NE(line.find("\"app\":\"flushapp\""), std::string::npos);
  }
  EXPECT_EQ(lines, appended);

  obs::EventLog::global().close();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace faultlab::fault
