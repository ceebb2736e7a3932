// Performance microbenchmarks (google-benchmark): compile throughput, the
// two execution engines, and injection overhead — the practical costs that
// determine how many trials a campaign can afford.
#include <benchmark/benchmark.h>

#include <vector>

#include "common.h"
#include "machine/dispatch.h"
#include "machine/memory.h"
#include "obs/events.h"
#include "obs/monitor.h"
#include "x86/trace.h"

namespace {

using namespace faultlab;

const char* kKernel = R"(
  int a[256];
  int main() {
    int i; int j; long s = 0;
    for (i = 0; i < 256; i++) a[i] = i * 3;
    for (j = 0; j < 50; j++)
      for (i = 0; i < 256; i++)
        s += a[i] ^ (a[(i + j) & 255] >> 1);
    print_int(s);
    return 0;
  }
)";

void BM_CompileFullPipeline(benchmark::State& state) {
  for (auto _ : state) {
    auto prog = driver::compile(kKernel, "bench");
    benchmark::DoNotOptimize(prog.program().code.size());
  }
}
BENCHMARK(BM_CompileFullPipeline)->Unit(benchmark::kMillisecond);

void BM_CompileApps(benchmark::State& state) {
  const auto& b = apps::all_benchmarks()[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    auto prog = driver::compile(b.source, b.name);
    benchmark::DoNotOptimize(prog.program().code.size());
  }
  state.SetLabel(b.name);
}
BENCHMARK(BM_CompileApps)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);

void BM_VmExecution(benchmark::State& state) {
  auto prog = driver::compile(kKernel, "bench");
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    auto r = prog.run_ir();
    instructions += r.dynamic_instructions;
    benchmark::DoNotOptimize(r.exit_value);
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VmExecution)->Unit(benchmark::kMillisecond);

void BM_SimExecution(benchmark::State& state) {
  auto prog = driver::compile(kKernel, "bench");
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    auto r = prog.run_asm();
    instructions += r.dynamic_instructions;
    benchmark::DoNotOptimize(r.exit_value);
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimExecution)->Unit(benchmark::kMillisecond);

// Dispatch A/B on the execution engines: the identical kernel under
// switch dispatch (range 0) and the pre-decoded threaded fast path
// (range 1), set per run through the limits. run_ir()/run_asm() build a
// fresh engine per iteration, so the
// threaded numbers include a full trace decode every time — the decode
// benches below isolate that cost, and the resident variant shows it
// amortized away.
machine::DispatchMode bench_mode(benchmark::State& state) {
  return state.range(0) == 0 ? machine::DispatchMode::Switch
                             : machine::DispatchMode::Threaded;
}

void BM_VmExecutionDispatch(benchmark::State& state) {
  const machine::DispatchMode mode = bench_mode(state);
  vm::RunLimits limits;
  limits.dispatch = mode;
  auto prog = driver::compile(kKernel, "bench");
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    auto r = prog.run_ir(nullptr, limits);
    instructions += r.dynamic_instructions;
    benchmark::DoNotOptimize(r.exit_value);
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
  state.SetLabel(machine::dispatch_mode_name(mode));
}
BENCHMARK(BM_VmExecutionDispatch)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SimExecutionDispatch(benchmark::State& state) {
  const machine::DispatchMode mode = bench_mode(state);
  x86::SimLimits limits;
  limits.dispatch = mode;
  auto prog = driver::compile(kKernel, "bench");
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    auto r = prog.run_asm(nullptr, limits);
    instructions += r.dynamic_instructions;
    benchmark::DoNotOptimize(r.exit_value);
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
  state.SetLabel(machine::dispatch_mode_name(mode));
}
BENCHMARK(BM_SimExecutionDispatch)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Trace-decode cost: building the simulator's pre-decoded uop array for
// the whole kernel program. Paid once per resident engine, then amortized
// over every subsequent trial.
void BM_X86TraceDecode(benchmark::State& state) {
  auto prog = driver::compile(kKernel, "bench");
  for (auto _ : state) {
    x86::XTrace trace(prog.program());
    benchmark::DoNotOptimize(trace.uops.data());
  }
  state.counters["insts"] =
      static_cast<double>(prog.program().code.size());
}
BENCHMARK(BM_X86TraceDecode);

// Decode amortization on the VM: a resident interpreter (the shape the
// scheduler's per-worker contexts have) decodes each block once, so
// steady-state runs replay cached traces. Compare against the threaded
// BM_VmExecutionDispatch above, which re-decodes per iteration.
void BM_VmExecutionResident(benchmark::State& state) {
  auto prog = driver::compile(kKernel, "bench");
  vm::Interpreter interp(prog.module());
  std::uint64_t instructions = 0;
  for (auto _ : state) {
    auto r = interp.run("main");
    instructions += r.dynamic_instructions;
    benchmark::DoNotOptimize(r.exit_value);
  }
  state.counters["instr/s"] = benchmark::Counter(
      static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_VmExecutionResident)->Unit(benchmark::kMillisecond);

// Direct trials: checkpointing disabled, every injection re-executes the
// golden prefix from main(). The baseline the checkpointed variants beat.
void BM_LlfiInjectionTrial(benchmark::State& state) {
  auto prog = driver::compile(kKernel, "bench");
  fault::LlfiEngine engine(prog.module(), {}, {0, /*enabled=*/false});
  const std::uint64_t n = engine.profile_all()[ir::Category::All];
  Rng rng(1);
  for (auto _ : state) {
    Rng trial = rng.fork();
    auto r = engine.inject(ir::Category::All, rng.range(1, n), trial);
    benchmark::DoNotOptimize(r.outcome);
  }
}
BENCHMARK(BM_LlfiInjectionTrial)->Unit(benchmark::kMillisecond);

void BM_PinfiInjectionTrial(benchmark::State& state) {
  auto prog = driver::compile(kKernel, "bench");
  fault::PinfiEngine engine(prog.program(), {}, {0, /*enabled=*/false});
  const std::uint64_t n = engine.profile_all()[ir::Category::All];
  Rng rng(1);
  for (auto _ : state) {
    Rng trial = rng.fork();
    auto r = engine.inject(ir::Category::All, rng.range(1, n), trial);
    benchmark::DoNotOptimize(r.outcome);
  }
}
BENCHMARK(BM_PinfiInjectionTrial)->Unit(benchmark::kMillisecond);

// Checkpointed trials: profile_all() captures snapshots, inject() resumes
// from the nearest one before each injection point.
void BM_LlfiCheckpointedTrial(benchmark::State& state) {
  auto prog = driver::compile(kKernel, "bench");
  fault::LlfiEngine engine(prog.module(), {},
                           {static_cast<std::uint64_t>(state.range(0)), true});
  const std::uint64_t n = engine.profile_all()[ir::Category::All];
  Rng rng(1);
  for (auto _ : state) {
    Rng trial = rng.fork();
    auto r = engine.inject(ir::Category::All, rng.range(1, n), trial);
    benchmark::DoNotOptimize(r.outcome);
  }
  const auto stats = engine.checkpoint_stats();
  state.counters["hit_rate"] = stats.hit_rate();
  state.counters["snapshots"] = static_cast<double>(stats.snapshots);
}
BENCHMARK(BM_LlfiCheckpointedTrial)
    ->Arg(0)         // automatic stride
    ->Arg(20'000)    // dense
    ->Arg(100'000)   // sparse
    ->Unit(benchmark::kMillisecond);

void BM_PinfiCheckpointedTrial(benchmark::State& state) {
  auto prog = driver::compile(kKernel, "bench");
  fault::PinfiEngine engine(prog.program(), {},
                            {static_cast<std::uint64_t>(state.range(0)), true});
  const std::uint64_t n = engine.profile_all()[ir::Category::All];
  Rng rng(1);
  for (auto _ : state) {
    Rng trial = rng.fork();
    auto r = engine.inject(ir::Category::All, rng.range(1, n), trial);
    benchmark::DoNotOptimize(r.outcome);
  }
  const auto stats = engine.checkpoint_stats();
  state.counters["hit_rate"] = stats.hit_rate();
  state.counters["snapshots"] = static_cast<double>(stats.snapshots);
}
BENCHMARK(BM_PinfiCheckpointedTrial)
    ->Arg(0)
    ->Arg(20'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMillisecond);

// Trial-reset cost at the Memory layer: an address space of range(0) pages
// with a handful of pages written between resets. Full restore rebuilds the
// whole page table per reset — O(mapped pages) — regardless of how little
// the trial touched.
void BM_MemoryRestoreFull(benchmark::State& state) {
  const std::uint64_t pages = static_cast<std::uint64_t>(state.range(0));
  machine::Memory mem;
  mem.map_range(0, pages << 12);
  for (std::uint64_t p = 0; p < pages; ++p)
    mem.write(p << 12, 8, p * 0x9E3779B97F4A7C15ull);
  const machine::Memory::Snapshot snap = mem.snapshot();
  for (auto _ : state) {
    for (std::uint64_t p = 0; p < 4; ++p) mem.write(p << 12, 8, p);
    mem.restore(snap);
  }
  state.counters["pages/reset"] = static_cast<double>(pages);
}
BENCHMARK(BM_MemoryRestoreFull)->Arg(64)->Arg(256)->Arg(1024);

// Same workload on the delta path: after the first restore arms dirty-page
// tracking, each reset rewrites only the pages the trial actually cloned —
// O(dirty), independent of the address-space size.
void BM_MemoryRestoreDelta(benchmark::State& state) {
  const std::uint64_t pages = static_cast<std::uint64_t>(state.range(0));
  machine::Memory mem;
  mem.map_range(0, pages << 12);
  for (std::uint64_t p = 0; p < pages; ++p)
    mem.write(p << 12, 8, p * 0x9E3779B97F4A7C15ull);
  const machine::Memory::Snapshot snap = mem.snapshot();
  mem.restore(snap);  // arm dirty tracking against `snap`
  std::uint64_t restored = 0;
  std::uint64_t resets = 0;
  for (auto _ : state) {
    for (std::uint64_t p = 0; p < 4; ++p) mem.write(p << 12, 8, p);
    const auto r = mem.restore_delta(snap);
    restored += r.pages;
    ++resets;
  }
  state.counters["pages/reset"] =
      resets != 0 ? static_cast<double>(restored) / static_cast<double>(resets)
                  : 0.0;
}
BENCHMARK(BM_MemoryRestoreDelta)->Arg(64)->Arg(256)->Arg(1024);

// Engine-level view of the same effect: trials resumed back-to-back from
// one window against a resident context (what the scheduler's window
// chunking produces). Every reset after the first stays on the delta path.
void BM_LlfiResidentWindowTrial(benchmark::State& state) {
  auto prog = driver::compile(kKernel, "bench");
  fault::LlfiEngine engine(prog.module(), {}, {0, /*enabled=*/true});
  const std::uint64_t n = engine.profile_all()[ir::Category::All];
  const std::uint64_t k = n / 2 == 0 ? 1 : n / 2;  // one fixed window
  auto context = engine.make_context();
  Rng rng(1);
  for (auto _ : state) {
    Rng trial = rng.fork();
    auto r = engine.inject_in(context.get(), ir::Category::All, k, trial);
    benchmark::DoNotOptimize(r.outcome);
  }
  const auto stats = engine.checkpoint_stats();
  state.counters["delta_share"] =
      stats.restored_trials != 0
          ? static_cast<double>(stats.delta_restores) /
                static_cast<double>(stats.restored_trials)
          : 0.0;
  state.counters["pages/trial"] = stats.mean_restored_pages();
}
BENCHMARK(BM_LlfiResidentWindowTrial)->Unit(benchmark::kMillisecond);

// A representative crash event — the largest record shape (trap fields
// present, all strings resolved), so the append cost below is an upper
// bound on what the scheduler pays per trial.
obs::TrialEvent sample_event(std::uint32_t worker) {
  obs::TrialEvent ev;
  ev.app = "perf_kernel";
  ev.tool = "LLFI";
  ev.category = "all";
  ev.worker = worker;
  ev.trial = 1;
  ev.k = 123;
  ev.bit = 17;
  ev.static_site = 42;
  ev.opcode = "getelementptr";
  ev.function = "main";
  ev.injected = true;
  ev.activated = true;
  ev.outcome = "crash";
  ev.trap = "unmapped-access";
  ev.trap_pc = 99;
  ev.inject_instruction = 1000;
  ev.instructions_total = 5000;
  ev.instructions_after_injection = 4000;
  ev.checkpoint_hit = true;
  ev.latency_ms = 1.5;
  return ev;
}

// Sharded event-writer append: serialize into the calling thread's shard,
// amortized spill past 64KB. The multi-threaded variants show the shards
// keeping writers off each other's locks; the sink is /dev/null so the
// bench measures the writer, not the disk.
void BM_EventLogAppend(benchmark::State& state) {
  static obs::EventLog* const log = [] {
    auto* l = new faultlab::obs::EventLog();
    l->open("/dev/null");
    return l;
  }();
  obs::TrialEvent ev =
      sample_event(static_cast<std::uint32_t>(state.thread_index()));
  std::uint64_t seq = 0;
  for (auto _ : state) {
    ev.seq = seq++;
    log->append(ev);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventLogAppend)->Threads(1)->Threads(4)->Threads(8);

// The disabled path the scheduler takes when FAULTLAB_EVENTS is unset:
// must stay a single relaxed load (see the no-allocation test in
// tests/test_obs.cc for the complementary guarantee).
void BM_EventLogAppendDisabled(benchmark::State& state) {
  obs::EventLog log;  // never opened
  const obs::TrialEvent ev = sample_event(0);
  for (auto _ : state) log.append(ev);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventLogAppendDisabled);

// Per-trial cost of the campaign monitor's hot path (begin_trial +
// record): one clock read plus a handful of relaxed atomics, safe to pay
// on every trial of a live-monitored run.
void BM_MonitorRecord(benchmark::State& state) {
  static obs::CampaignMonitor* const monitor = [] {
    auto* m = new obs::CampaignMonitor(obs::MonitorOptions{}, 8);
    m->add_cell("bench", "llfi", "all", "transient", 1u << 30);
    return m;
  }();
  const auto worker = static_cast<std::size_t>(state.thread_index());
  for (auto _ : state) {
    monitor->begin_trial(worker, 0);
    monitor->record(worker, 0, obs::MonitorOutcome::Benign, 1.5);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MonitorRecord)->Threads(1)->Threads(4)->Threads(8);

// The disabled path the scheduler takes when no monitor is active: one
// null-pointer branch per trial, nothing else (the complement of
// BM_MonitorRecord — compare the pair to see what "off" costs).
void BM_MonitorRecordDisabled(benchmark::State& state) {
  obs::CampaignMonitor* monitor = nullptr;
  benchmark::DoNotOptimize(monitor);
  for (auto _ : state) {
    if (monitor) monitor->record(0, 0, obs::MonitorOutcome::Benign, 1.5);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MonitorRecordDisabled);

// Propagation-tracing overhead on full checkpointed injection trials:
// Arg(0) is the normal untraced path, Arg(1) arms the tracer (the
// FAULTLAB_PROP path). The traced leg pays the hooked slow path for the
// entire post-injection suffix plus taint bookkeeping; the untraced leg
// must measure identical to the same bench before this feature existed —
// tracer off is one bool branch per trial.
fault::ExecConfig bench_exec(benchmark::State& state) {
  fault::ExecConfig exec = fault::ExecConfig::from_env();
  exec.trace_prop = state.range(0) != 0;
  return exec;
}

void BM_VmExecutionProp(benchmark::State& state) {
  auto prog = driver::compile(kKernel, "bench");
  fault::LlfiEngine engine(prog.module(), {}, {0, /*enabled=*/true},
                           fault::Model::from_env(), bench_exec(state));
  const std::uint64_t n = engine.profile_all()[ir::Category::All];
  Rng rng(1);
  for (auto _ : state) {
    Rng trial = rng.fork();
    auto r = engine.inject(ir::Category::All, rng.range(1, n), trial);
    benchmark::DoNotOptimize(r.outcome);
  }
  state.SetLabel(state.range(0) != 0 ? "prop_on" : "prop_off");
}
BENCHMARK(BM_VmExecutionProp)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SimExecutionProp(benchmark::State& state) {
  auto prog = driver::compile(kKernel, "bench");
  fault::PinfiEngine engine(prog.program(), {}, {0, /*enabled=*/true},
                            fault::Model::from_env(), bench_exec(state));
  const std::uint64_t n = engine.profile_all()[ir::Category::All];
  Rng rng(1);
  for (auto _ : state) {
    Rng trial = rng.fork();
    auto r = engine.inject(ir::Category::All, rng.range(1, n), trial);
    benchmark::DoNotOptimize(r.outcome);
  }
  state.SetLabel(state.range(0) != 0 ? "prop_on" : "prop_off");
}
BENCHMARK(BM_SimExecutionProp)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_ProfilingOverheadVm(benchmark::State& state) {
  auto prog = driver::compile(kKernel, "bench");
  fault::LlfiEngine engine(prog.module(), {}, {0, /*enabled=*/false});
  for (auto _ : state)
    benchmark::DoNotOptimize(engine.profile(ir::Category::All));
}
BENCHMARK(BM_ProfilingOverheadVm)->Unit(benchmark::kMillisecond);

// Snapshot capture cost: the engine's one fault-free run, which counts
// every category and captures checkpoints at the automatic stride (compare
// against BM_ProfilingOverheadVm for the marginal cost of copy-on-write
// snapshots). profile_all() runs once per engine and construction executes
// nothing, so each iteration times a fresh engine's run.
void BM_ProfileAllWithCheckpoints(benchmark::State& state) {
  auto prog = driver::compile(kKernel, "bench");
  std::uint64_t snapshots = 0;
  for (auto _ : state) {
    fault::LlfiEngine engine(prog.module(), {}, {0, /*enabled=*/true});
    auto counts = engine.profile_all();
    benchmark::DoNotOptimize(counts[ir::Category::All]);
    snapshots = engine.checkpoint_stats().snapshots;
  }
  state.counters["snapshots"] = static_cast<double>(snapshots);
}
BENCHMARK(BM_ProfileAllWithCheckpoints)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: run the microbenchmarks, then one small checkpointed
// LLFI+PINFI campaign over the kernel so bench_perf leaves a
// machine-readable perf record (wall time, trials/sec, snapshot hit rate)
// in BENCH_perf.json like the table/figure benches do.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  using namespace faultlab;
  std::vector<benchx::CompiledApp> apps;
  apps.push_back({"perf_kernel", driver::compile(kKernel, "perf_kernel")});
  const benchx::ExperimentRun run = benchx::run_experiment(
      apps, {ir::Category::All}, fault::default_trials());
  benchx::write_perf_entry("bench_perf", run);

  // Event-log overhead at campaign granularity: the identical experiment
  // (same seed, same draws) with the flight recorder off and then on,
  // recorded as a BENCH_perf pair. The first run above had the recorder in
  // whatever state FAULTLAB_EVENTS left it; this pair pins both states.
  obs::EventLog::global().close();
  const benchx::ExperimentRun off = benchx::run_experiment(
      apps, {ir::Category::All}, fault::default_trials());
  benchx::write_perf_entry("bench_perf_events_off", off);
  obs::EventLog::global().open("bench_perf_events.jsonl");
  const benchx::ExperimentRun on = benchx::run_experiment(
      apps, {ir::Category::All}, fault::default_trials());
  benchx::write_perf_entry("bench_perf_events_on", on);
  obs::EventLog::global().close();

  // Propagation-tracing overhead at campaign granularity: the same
  // experiment with the tracer armed. write_perf_entry suffixes the key
  // ("bench_perf_prop"), so the untraced "bench_perf" entry above is the
  // paired baseline.
  fault::ExecConfig traced = fault::ExecConfig::from_env();
  traced.trace_prop = true;
  const benchx::ExperimentRun prop = benchx::run_experiment(
      apps, {ir::Category::All}, fault::default_trials(), {},
      fault::Model::from_env(), benchx::kDefaultSeed, traced);
  benchx::write_perf_entry("bench_perf", prop);
  return 0;
}
