// Trace-layer tests: micro-op decode round-trips for both engines,
// armed-window side exits, hook re-arming and settled-hook convergence
// (one test body per case over both executors), dispatch-mode equivalence
// (trap PCs, observation schedules, checkpoint resume mid-trace), and the
// trace-cache counters behind the manifest's dispatch columns.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "apps/apps.h"
#include "driver/pipeline.h"
#include "fault/campaign.h"
#include "fault/llfi.h"
#include "fault/pinfi.h"
#include "machine/dispatch.h"
#include "machine/runtime.h"
#include "record_compare.h"
#include "support/rng.h"
#include "vm/interpreter.h"
#include "vm/trace.h"
#include "x86/simulator.h"
#include "x86/trace.h"

namespace faultlab {
namespace {

using machine::DispatchMode;

vm::RunLimits vm_limits(DispatchMode mode) {
  vm::RunLimits limits;
  limits.dispatch = mode;
  return limits;
}

x86::SimLimits sim_limits(DispatchMode mode) {
  x86::SimLimits limits;
  limits.dispatch = mode;
  return limits;
}

// Long enough (~100k dynamic instructions) that checkpoints, re-arm
// windows, and fast-path stretches all occur; calls + arrays + nested
// loops keep several basic blocks hot.
const char* kKernel = R"(
  int a[128];
  int mix(int x, int y) { return (x ^ y) + (x >> 1); }
  int main() {
    int i; int j; long s = 0;
    for (i = 0; i < 128; i++) a[i] = i * 7;
    for (j = 0; j < 60; j++)
      for (i = 0; i < 128; i++)
        s = s + mix(a[i], a[(i + j) & 127]);
    print_int(s);
    return 0;
  }
)";

// Divides by zero mid-run (i == 5), several iterations into the loop, so
// the trap fires from inside a decoded trace.
const char* kTrapKernel = R"(
  int main() {
    int i; long s = 0;
    for (i = 0; i < 10; i = i + 1)
      s = s + 100 / (5 - i);
    print_int(s);
    return 0;
  }
)";

TEST(VmTraceDecode, DecodesEveryAppBlockOneToOne) {
  for (const auto& b : apps::all_benchmarks()) {
    auto prog = driver::compile(b.source, b.name);
    machine::GlobalLayout layout(prog.module());
    vm::TraceCache cache(layout);
    for (const auto& fn : prog.module().functions()) {
      if (fn->blocks().empty()) continue;  // declarations have no traces
      vm::TraceFunction& tf = cache.function(*fn);
      for (const auto& bb : fn->blocks()) {
        vm::TraceBlock* tb = cache.block(tf, bb.get());
        ASSERT_NE(tb, nullptr)
            << b.name << "/" << fn->name() << ": block failed to decode";
        // The uop array is 1:1 with the block's instructions (phi runs
        // collapse into PhiGroup + Pad fillers), so interpreter PCs map
        // onto trace PCs without translation.
        EXPECT_EQ(tb->uops.size(), bb->size());
      }
    }
  }
}

TEST(X86TraceDecode, MirrorsEveryInstruction) {
  for (const auto& b : apps::all_benchmarks()) {
    auto prog = driver::compile(b.source, b.name);
    const x86::Program& p = prog.program();
    x86::XTrace trace(p);
    ASSERT_EQ(trace.uops.size(), p.code.size() + 1);
    EXPECT_EQ(trace.uops.back().op, x86::XOp::TrapFetch);
    for (std::size_t i = 0; i < p.code.size(); ++i) {
      const x86::Inst& inst = p.code[i];
      const x86::XUOp& u = trace.uops[i];
      EXPECT_EQ(static_cast<unsigned>(u.op), static_cast<unsigned>(inst.op));
      EXPECT_EQ(u.inst, &inst);
      switch (inst.op) {
        case x86::Op::Jmp:
        case x86::Op::Jcc:
        case x86::Op::Call:
          EXPECT_EQ(u.target_ok,
                    inst.target >= 0 &&
                        static_cast<std::size_t>(inst.target) < p.code.size());
          if (u.target_ok) {
            EXPECT_EQ(u.target, static_cast<std::size_t>(inst.target));
          }
          EXPECT_EQ(u.ret_addr, x86::Program::address_of_index(i + 1));
          break;
        case x86::Op::CallBuiltin:
          if (inst.target >= 0 &&
              static_cast<std::size_t>(inst.target) < p.builtins.size())
            EXPECT_EQ(u.sig,
                      &p.builtins[static_cast<std::size_t>(inst.target)]);
          else
            EXPECT_EQ(u.sig, nullptr);
          break;
        default:
          break;
      }
    }
  }
}

TEST(X86TraceDecode, InvalidBranchTargetDecodesAsNotOk) {
  x86::Program p;
  x86::Inst jmp;
  jmp.op = x86::Op::Jmp;
  jmp.target = 99;  // out of range for a 1-instruction program
  p.code.push_back(jmp);
  x86::XTrace trace(p);
  EXPECT_EQ(trace.uops[0].op, x86::XOp::Jmp);
  EXPECT_FALSE(trace.uops[0].target_ok);
  EXPECT_EQ(trace.uops[1].op, x86::XOp::TrapFetch);
}

TEST(DispatchCounters, X86TraceDecodeCountsOnce) {
  auto prog = driver::compile(kKernel, "t");
  const auto before = machine::dispatch_counters_snapshot();
  x86::XTrace trace(prog.program());
  const auto during = machine::dispatch_counters_snapshot();
  EXPECT_EQ(during.trace_decodes, before.trace_decodes + 1);
}

TEST(DispatchCounters, ThreadedVmRunDecodesOnceAndHits) {
  auto prog = driver::compile(kKernel, "t");
  const auto before = machine::dispatch_counters_snapshot();
  vm::Interpreter interp(prog.module());
  ASSERT_TRUE(interp.run("main").completed());
  const auto during = machine::dispatch_counters_snapshot();
  EXPECT_GT(during.trace_decodes, before.trace_decodes);
  EXPECT_GT(during.trace_hits, before.trace_hits);
  // The resident cache decodes each block once: a second run must not
  // decode anything new.
  ASSERT_TRUE(interp.run("main").completed());
  const auto again = machine::dispatch_counters_snapshot();
  EXPECT_EQ(again.trace_decodes, during.trace_decodes);
  EXPECT_GT(again.trace_hits, during.trace_hits);
}

TEST(DispatchCounters, SwitchModeNeverTouchesTraces) {
  auto prog = driver::compile(kKernel, "t");
  const auto before = machine::dispatch_counters_snapshot();
  ASSERT_TRUE(prog.run_ir(nullptr, vm_limits(DispatchMode::Switch)).completed());
  ASSERT_FALSE(prog.run_asm(nullptr, sim_limits(DispatchMode::Switch)).trapped);
  // Engines built for switch dispatch make their profiling run and every
  // trial on the slow loop too.
  const fault::CheckpointPolicy checkpoints{2000, true};
  const fault::ExecConfig exec{DispatchMode::Switch, /*trace_prop=*/false};
  fault::LlfiEngine llfi(prog.module(), {}, checkpoints, fault::Model{}, exec);
  fault::PinfiEngine pinfi(prog.program(), {}, checkpoints, fault::Model{},
                           exec);
  for (fault::InjectorEngine* engine :
       std::vector<fault::InjectorEngine*>{&llfi, &pinfi}) {
    const std::uint64_t n = engine->profile_all()[ir::Category::All];
    ASSERT_GT(n, 8u);
    for (std::uint64_t k = 1; k <= n; k += n / 8) {
      Rng rng(k);
      engine->inject(ir::Category::All, k, rng);
    }
  }
  const auto after = machine::dispatch_counters_snapshot();
  EXPECT_EQ(after.trace_decodes, before.trace_decodes);
  EXPECT_EQ(after.trace_hits, before.trace_hits);
}

// A getelementptr whose scaled index overflows int64_t (2^61 elements of
// 4 bytes) wraps like the machine's address arithmetic and traps on the
// unmapped result, on the slow path and on the decoded Gep micro-op alike.
TEST(DispatchEquiv, HugeGepIndexWrapsAndTrapsInBothModes) {
  auto prog = driver::compile(R"(
    int data[8];
    int main() {
      long big = 1;
      int k;
      for (k = 0; k < 61; k++) big = big * 2;
      print_int(7);
      print_int(data[big]);
      return 0;
    }
  )", "gep");
  for (const DispatchMode mode : {DispatchMode::Switch, DispatchMode::Threaded}) {
    const vm::RunResult r = prog.run_ir(nullptr, vm_limits(mode));
    EXPECT_TRUE(r.trapped) << machine::dispatch_mode_name(mode);
    EXPECT_EQ(r.trap, machine::TrapKind::UnmappedAccess);
    EXPECT_EQ(r.output, "7\n");
  }
}

TEST(DispatchEquiv, GoldenRunsMatchSwitchOnAllApps) {
  for (const auto& b : apps::all_benchmarks()) {
    auto prog = driver::compile(b.source, b.name);
    const vm::RunResult vs = prog.run_ir(nullptr, vm_limits(DispatchMode::Switch));
    const x86::SimResult xs =
        prog.run_asm(nullptr, sim_limits(DispatchMode::Switch));
    const vm::RunResult vt = prog.run_ir();  // threaded by default
    const x86::SimResult xt = prog.run_asm();
    EXPECT_EQ(vt.exit_value, vs.exit_value) << b.name;
    EXPECT_EQ(vt.dynamic_instructions, vs.dynamic_instructions) << b.name;
    EXPECT_EQ(vt.output, vs.output) << b.name;
    EXPECT_EQ(vt.trapped, vs.trapped) << b.name;
    EXPECT_EQ(xt.exit_value, xs.exit_value) << b.name;
    EXPECT_EQ(xt.dynamic_instructions, xs.dynamic_instructions) << b.name;
    EXPECT_EQ(xt.output, xs.output) << b.name;
    EXPECT_EQ(xt.trapped, xs.trapped) << b.name;
  }
}

TEST(DispatchEquiv, TrapPcExactOnBothEngines) {
  auto prog = driver::compile(kTrapKernel, "trap");
  const vm::RunResult vs = prog.run_ir(nullptr, vm_limits(DispatchMode::Switch));
  const x86::SimResult xs =
      prog.run_asm(nullptr, sim_limits(DispatchMode::Switch));
  const vm::RunResult vt = prog.run_ir();  // threaded by default
  const x86::SimResult xt = prog.run_asm();

  ASSERT_TRUE(vs.trapped);
  ASSERT_TRUE(vt.trapped);
  EXPECT_EQ(vt.trap, vs.trap);
  EXPECT_EQ(vt.trap_pc, vs.trap_pc);
  EXPECT_EQ(vt.trap_address, vs.trap_address);
  EXPECT_EQ(vt.dynamic_instructions, vs.dynamic_instructions);
  EXPECT_EQ(vt.output, vs.output);

  ASSERT_TRUE(xs.trapped);
  ASSERT_TRUE(xt.trapped);
  EXPECT_EQ(xt.trap, xs.trap);
  EXPECT_EQ(xt.trap_pc, xs.trap_pc);
  EXPECT_EQ(xt.trap_address, xs.trap_address);
  EXPECT_EQ(xt.dynamic_instructions, xs.dynamic_instructions);
  EXPECT_EQ(xt.output, xs.output);
}

/// Hook that starts dormant (fast path until `wake`), observes `window`
/// instructions, then detaches for good — the shape of an injection hook's
/// armed window, without any injection. With `settle` it settles instead
/// and keeps observing, the way a traced hook waits for golden
/// convergence. It records the pc of every instruction it observes.
template <typename Base>
class WindowHookT : public Base {
 public:
  WindowHookT(std::uint64_t wake, std::uint64_t window, bool settle = false)
      : window_(window), settle_(settle) {
    this->detach(wake);
  }
  const std::vector<std::uint64_t>& observed() const noexcept {
    return observed_;
  }

 protected:
  void observe(std::uint64_t pc) {
    observed_.push_back(pc);
    if (observed_.size() != window_) return;
    if (settle_) {
      this->settle();
    } else {
      this->detach();
    }
  }

 private:
  std::uint64_t window_;
  bool settle_;
  std::vector<std::uint64_t> observed_;
};

struct VmWindowHook final : WindowHookT<vm::ExecHook> {
  using WindowHookT::WindowHookT;
  void on_instruction(const ir::Instruction& instr) override {
    observe(instr.id());
  }
};

struct SimWindowHook final : WindowHookT<x86::SimHook> {
  using WindowHookT::WindowHookT;
  void on_before(std::size_t index, const x86::Inst&) override {
    observe(index);
  }
};

/// The interpreter and the simulator behind one interface, so a run-loop
/// test body covers both executors.
struct VmExecutor {
  using Hook = VmWindowHook;
  using Limits = vm::RunLimits;
  using Result = vm::RunResult;
  using Snapshot = vm::Snapshot;
  static Result run(driver::CompiledProgram& prog, Hook* hook,
                    const Limits& limits) {
    return prog.run_ir(hook, limits);
  }
};

struct SimExecutor {
  using Hook = SimWindowHook;
  using Limits = x86::SimLimits;
  using Result = x86::SimResult;
  using Snapshot = x86::SimSnapshot;
  static Result run(driver::CompiledProgram& prog, Hook* hook,
                    const Limits& limits) {
    return prog.run_asm(hook, limits);
  }
};

/// What one hooked run did: its result, the pcs its hook observed, and the
/// positions of the snapshots it captured.
template <typename Exec>
struct HookedRun {
  typename Exec::Result result;
  std::vector<std::uint64_t> observed;
  std::vector<std::uint64_t> snapshots;
};

/// Runs `prog` with a fresh WindowHook(wake, window, settle) in `mode`,
/// capturing snapshots every `stride` instructions when nonzero, and
/// converging on `golden` snapshots when non-null.
template <typename Exec>
HookedRun<Exec> hooked_run(
    driver::CompiledProgram& prog, DispatchMode mode, std::uint64_t wake,
    std::uint64_t window, bool settle = false, std::uint64_t stride = 0,
    const std::vector<typename Exec::Snapshot>* golden = nullptr) {
  HookedRun<Exec> out;
  typename Exec::Hook hook(wake, window, settle);
  typename Exec::Limits limits;
  limits.dispatch = mode;
  limits.snapshot_stride = stride;
  if (stride != 0) {
    limits.snapshot_sink = [&](typename Exec::Snapshot&& snap) {
      out.snapshots.push_back(snap.executed);
      return stride;
    };
  }
  if (golden != nullptr) {
    limits.golden_after = [golden](std::uint64_t executed) {
      for (const auto& snap : *golden)
        if (snap.executed > executed) return &snap;
      return static_cast<const typename Exec::Snapshot*>(nullptr);
    };
  }
  out.result = Exec::run(prog, &hook, limits);
  out.observed = hook.observed();
  return out;
}

/// Threaded dispatch must reproduce the switch loop exactly: the same
/// outcome, the same observed pcs and the same capture and convergence
/// positions.
template <typename Exec>
void expect_same_run(const HookedRun<Exec>& slow, const HookedRun<Exec>& fast) {
  EXPECT_EQ(fast.observed, slow.observed);
  EXPECT_EQ(fast.snapshots, slow.snapshots);
  EXPECT_EQ(fast.result.trapped, slow.result.trapped);
  EXPECT_EQ(fast.result.exit_value, slow.result.exit_value);
  EXPECT_EQ(fast.result.dynamic_instructions,
            slow.result.dynamic_instructions);
  EXPECT_EQ(fast.result.output, slow.result.output);
  EXPECT_EQ(fast.result.converged != nullptr,
            slow.result.converged != nullptr);
}

template <typename Exec>
void expect_dormant_hook_rearms_exactly(driver::CompiledProgram& prog) {
  const auto slow = hooked_run<Exec>(prog, DispatchMode::Switch, 1000, 500);
  ASSERT_TRUE(slow.result.completed());
  ASSERT_EQ(slow.observed.size(), 500u);  // window fully observed

  const auto before = machine::dispatch_counters_snapshot();
  const auto fast = hooked_run<Exec>(prog, DispatchMode::Threaded, 1000, 500);
  const auto after = machine::dispatch_counters_snapshot();

  // Identical observation schedule: the fast path must side-exit at the
  // re-arm boundary so the hook sees exactly the same 500 instructions...
  expect_same_run(slow, fast);
  // ...and the boundary crossings show up as trace invalidations.
  EXPECT_GT(after.trace_invalidations, before.trace_invalidations);
}

TEST(DispatchEquiv, DormantHookRearmsAtExactInstruction) {
  auto prog = driver::compile(kKernel, "t");
  expect_dormant_hook_rearms_exactly<VmExecutor>(prog);
  expect_dormant_hook_rearms_exactly<SimExecutor>(prog);
}

template <typename Exec>
void expect_rearm_on_snapshot_boundary(driver::CompiledProgram& prog) {
  // The hook re-arms on the instruction that brings the count to
  // rearm_at, and a capture fires before the first instruction after
  // reaching a stride boundary (later than the boundary only when a VM
  // phi group straddles it). rearm_at == capture position puts the two
  // one instruction apart; rearm_at == capture position + 1 puts them in
  // the same slow step.
  constexpr std::uint64_t kStride = 2000;
  const auto plain = hooked_run<Exec>(
      prog, DispatchMode::Switch, std::numeric_limits<std::uint64_t>::max(),
      0, false, kStride);
  ASSERT_GT(plain.snapshots.size(), 3u);
  const std::uint64_t boundary = plain.snapshots[2];
  for (std::uint64_t wake : {boundary, boundary + 1}) {
    const auto slow = hooked_run<Exec>(prog, DispatchMode::Switch, wake, 300,
                                       false, kStride);
    const auto fast = hooked_run<Exec>(prog, DispatchMode::Threaded, wake,
                                       300, false, kStride);
    ASSERT_TRUE(slow.result.completed());
    ASSERT_EQ(slow.observed.size(), 300u);
    EXPECT_EQ(slow.snapshots, plain.snapshots);
    expect_same_run(slow, fast);
  }
}

TEST(DispatchEquiv, RearmOnSnapshotBoundaryBothEngines) {
  auto prog = driver::compile(kKernel, "t");
  expect_rearm_on_snapshot_boundary<VmExecutor>(prog);
  expect_rearm_on_snapshot_boundary<SimExecutor>(prog);
}

template <typename Exec>
void expect_settled_hook_converges(driver::CompiledProgram& prog) {
  // Golden snapshots from an unhooked capture run.
  std::vector<typename Exec::Snapshot> golden;
  typename Exec::Limits capture;
  capture.snapshot_stride = 3000;
  capture.snapshot_sink = [&](typename Exec::Snapshot&& snap) {
    golden.push_back(std::move(snap));
    return capture.snapshot_stride;
  };
  const typename Exec::Result full = Exec::run(prog, nullptr, capture);
  ASSERT_TRUE(full.completed());
  ASSERT_GT(golden.size(), 4u);

  // The hook wakes mid-window, observes 100 instructions and settles. It
  // stays attached (slow path), but a settled hook no longer blocks the
  // convergence check, so the run stops on the first golden snapshot
  // after it settles.
  const std::uint64_t wake = golden[1].executed + 700;
  const auto slow = hooked_run<Exec>(prog, DispatchMode::Switch, wake, 100,
                                     true, 0, &golden);
  const auto fast = hooked_run<Exec>(prog, DispatchMode::Threaded, wake, 100,
                                     true, 0, &golden);
  ASSERT_NE(slow.result.converged, nullptr);
  EXPECT_EQ(slow.result.converged, &golden[2]);
  EXPECT_EQ(slow.result.dynamic_instructions, golden[2].executed);
  // Observed from the wake instruction through the convergence point.
  EXPECT_EQ(slow.observed.size(), golden[2].executed - wake + 1);
  expect_same_run(slow, fast);
  EXPECT_EQ(fast.result.converged, slow.result.converged);
}

TEST(DispatchEquiv, SettledHookConvergesOnGoldenSnapshotBothEngines) {
  auto prog = driver::compile(kKernel, "t");
  expect_settled_hook_converges<VmExecutor>(prog);
  expect_settled_hook_converges<SimExecutor>(prog);
}

TEST(DispatchEquiv, CheckpointResumeMidTraceVm) {
  auto prog = driver::compile(kKernel, "t");
  // An odd stride lands resume points mid-block; the switch capture run is
  // the reference schedule.
  std::vector<vm::Snapshot> snaps;
  vm::RunLimits capture = vm_limits(DispatchMode::Switch);
  capture.snapshot_stride = 997;
  capture.snapshot_sink = [&](vm::Snapshot&& s) {
    snaps.push_back(std::move(s));
    return capture.snapshot_stride;
  };
  const vm::RunResult full = prog.run_ir(nullptr, capture);
  ASSERT_TRUE(full.completed());
  ASSERT_GT(snaps.size(), 2u);

  // Threaded capture stops fast execution at each snapshot point: the
  // snapshot schedule must be position-identical.
  std::vector<std::uint64_t> threaded_at;
  vm::RunLimits recapture;
  recapture.snapshot_stride = 997;
  recapture.snapshot_sink = [&](vm::Snapshot&& s) {
    threaded_at.push_back(s.executed);
    return recapture.snapshot_stride;
  };
  ASSERT_TRUE(prog.run_ir(nullptr, recapture).completed());
  ASSERT_EQ(threaded_at.size(), snaps.size());
  for (std::size_t i = 0; i < snaps.size(); ++i)
    EXPECT_EQ(threaded_at[i], snaps[i].executed) << "snapshot " << i;

  // Resuming from a mid-run snapshot replays the identical suffix in
  // either mode (side entry into the middle of a decoded block).
  const vm::Snapshot& mid = snaps[snaps.size() / 2];
  for (DispatchMode mode : {DispatchMode::Switch, DispatchMode::Threaded}) {
    vm::Interpreter resumed(prog.module());
    resumed.restore(mid);
    const vm::RunResult r = resumed.resume(vm_limits(mode));
    EXPECT_TRUE(r.completed());
    EXPECT_EQ(r.exit_value, full.exit_value);
    EXPECT_EQ(r.dynamic_instructions, full.dynamic_instructions);
    EXPECT_EQ(r.output, full.output);
  }
}

TEST(DispatchEquiv, CheckpointResumeMidTraceSim) {
  auto prog = driver::compile(kKernel, "t");
  std::vector<x86::SimSnapshot> snaps;
  x86::SimLimits capture = sim_limits(DispatchMode::Switch);
  capture.snapshot_stride = 997;
  capture.snapshot_sink = [&](x86::SimSnapshot&& s) {
    snaps.push_back(std::move(s));
    return capture.snapshot_stride;
  };
  const x86::SimResult full = prog.run_asm(nullptr, capture);
  ASSERT_FALSE(full.trapped);
  ASSERT_GT(snaps.size(), 2u);

  std::vector<std::uint64_t> threaded_at;
  x86::SimLimits recapture;
  recapture.snapshot_stride = 997;
  recapture.snapshot_sink = [&](x86::SimSnapshot&& s) {
    threaded_at.push_back(s.executed);
    return recapture.snapshot_stride;
  };
  ASSERT_FALSE(prog.run_asm(nullptr, recapture).trapped);
  ASSERT_EQ(threaded_at.size(), snaps.size());
  for (std::size_t i = 0; i < snaps.size(); ++i)
    EXPECT_EQ(threaded_at[i], snaps[i].executed) << "snapshot " << i;

  const x86::SimSnapshot& mid = snaps[snaps.size() / 2];
  for (DispatchMode mode : {DispatchMode::Switch, DispatchMode::Threaded}) {
    x86::Simulator resumed(prog.program());
    resumed.restore(mid);
    const x86::SimResult r = resumed.resume(sim_limits(mode));
    EXPECT_FALSE(r.trapped);
    EXPECT_EQ(r.exit_value, full.exit_value);
    EXPECT_EQ(r.dynamic_instructions, full.dynamic_instructions);
    EXPECT_EQ(r.output, full.output);
  }
}

void expect_same_campaign(const fault::CampaignResult& a,
                          const fault::CampaignResult& b) {
  EXPECT_EQ(a.profiled_count, b.profiled_count);
  EXPECT_EQ(a.crash, b.crash);
  EXPECT_EQ(a.sdc, b.sdc);
  EXPECT_EQ(a.benign, b.benign);
  EXPECT_EQ(a.hang, b.hang);
  EXPECT_EQ(a.not_activated, b.not_activated);
  fault::expect_same_records(a.trials, b.trials);
}

fault::CampaignResult run_cell(driver::CompiledProgram& prog, bool pinfi,
                               const fault::Model& model, DispatchMode mode) {
  // Small stride so many trials resume from snapshots (resume() entering
  // mid-trace) while others run from scratch.
  const fault::CheckpointPolicy checkpoints{2000, true};
  const fault::ExecConfig exec{mode, /*trace_prop=*/false};
  fault::CampaignConfig cfg;
  cfg.app = "kernel";
  cfg.trials = 40;
  cfg.seed = 0x7e57;
  cfg.threads = 2;
  if (pinfi) {
    fault::PinfiEngine engine(prog.program(), {}, checkpoints, model, exec);
    return fault::run_campaign(engine, cfg);
  }
  fault::LlfiEngine engine(prog.module(), {}, checkpoints, model, exec);
  return fault::run_campaign(engine, cfg);
}

TEST(DispatchEquiv, CampaignRecordsMatchSwitchBothTools) {
  auto prog = driver::compile(kKernel, "t");
  for (bool pinfi : {false, true}) {
    const fault::CampaignResult sw =
        run_cell(prog, pinfi, {}, DispatchMode::Switch);
    const fault::CampaignResult th =
        run_cell(prog, pinfi, {}, DispatchMode::Threaded);
    expect_same_campaign(sw, th);
  }
}

TEST(DispatchEquiv, PersistentModelRearmsIdentically) {
  // Stuck-at faults keep the hook re-arming at every re-execution of the
  // armed site: the fast path must side-exit at every rearm_at boundary.
  auto prog = driver::compile(kKernel, "t");
  fault::Model model;
  model.kind = fault::FaultKind::Permanent;
  for (bool pinfi : {false, true}) {
    const fault::CampaignResult sw =
        run_cell(prog, pinfi, model, DispatchMode::Switch);
    const fault::CampaignResult th =
        run_cell(prog, pinfi, model, DispatchMode::Threaded);
    expect_same_campaign(sw, th);
  }
}

}  // namespace
}  // namespace faultlab
