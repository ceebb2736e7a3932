// Property-based differential testing: a seeded generator produces random
// mini-C programs; for each one, (a) the optimizer must preserve the
// output, (b) the machine simulator must agree with the IR interpreter
// bit-for-bit, (c) both engines' single-pass category profile must agree
// with their hooked per-category profile, and (d) a trial run on a reused
// execution context must equal the same trial on a fresh one (a fresh
// context takes a full restore, a reused one mostly the delta path). This
// cross-checks the frontend, optimizer, backend, and both execution
// engines against each other.
//
// Last, (e) the equivalence harness: a trial's record may depend on its
// draw alone. Each seed runs one program (a generated one, or mcf on one
// fixed row) through the campaign scheduler on both engines, each under
// a randomly drawn configuration — fault model, checkpoint stride,
// dispatch mode, propagation tracing, thread count, campaign monitor and
// event log — and every record must equal the oracle's: the same campaign
// checkpoint-free, on one thread, threaded and untraced (and traced, to
// compare propagation summaries, when the configuration traces). The
// oracle and the configured campaign run on two threads at once.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/apps.h"
#include "driver/pipeline.h"
#include "fault/llfi.h"
#include "fault/pinfi.h"
#include "fault/scheduler.h"
#include "obs/events.h"
#include "program_generator.h"
#include "record_compare.h"
#include "support/rng.h"
#include "vm/interpreter.h"

namespace faultlab {
namespace {

class RandomPrograms : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPrograms, OptimizerPreservesSemantics) {
  ProgramGenerator gen(GetParam());
  const std::string src = gen.generate();

  driver::CompileOptions unopt;
  unopt.optimize = false;
  auto before = driver::compile(src, "rand", unopt);
  auto after = driver::compile(src, "rand");

  const auto r0 = before.run_ir();
  const auto r1 = after.run_ir();
  ASSERT_TRUE(r0.completed()) << src;
  ASSERT_TRUE(r1.completed()) << src;
  EXPECT_EQ(r0.output, r1.output) << src;
}

TEST_P(RandomPrograms, SimulatorMatchesInterpreter) {
  ProgramGenerator gen(GetParam() ^ 0xABCDEF);
  const std::string src = gen.generate();
  auto prog = driver::compile(src, "rand");
  const auto r_ir = prog.run_ir();
  const auto r_asm = prog.run_asm();
  ASSERT_TRUE(r_ir.completed()) << src;
  ASSERT_TRUE(r_asm.completed()) << src;
  EXPECT_EQ(r_ir.output, r_asm.output) << src;
  EXPECT_EQ(r_ir.exit_value, r_asm.exit_value) << src;
}

TEST_P(RandomPrograms, UnoptimizedSimulatorMatchesToo) {
  ProgramGenerator gen(GetParam() * 2654435761u);
  const std::string src = gen.generate();
  driver::CompileOptions unopt;
  unopt.optimize = false;
  auto prog = driver::compile(src, "rand", unopt);
  const auto r_ir = prog.run_ir();
  const auto r_asm = prog.run_asm();
  ASSERT_TRUE(r_ir.completed()) << src;
  ASSERT_TRUE(r_asm.completed()) << src;
  EXPECT_EQ(r_ir.output, r_asm.output) << src;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms,
                         ::testing::Range<std::uint64_t>(1, 41));

class RandomProfiles : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomProfiles, ProfileAllMatchesPerCategoryProfile) {
  // profile_all() counts category instances on the fast path, here with a
  // dense snapshot stride so the count also crosses many slow steps; the
  // hooked per-category profile() is the oracle.
  ProgramGenerator gen(GetParam() ^ 0x5EED5EEDull);
  const std::string src = gen.generate();
  auto prog = driver::compile(src, "rand");
  const fault::CheckpointPolicy dense{/*stride=*/97, /*enabled=*/true};
  fault::LlfiEngine llfi(prog.module(), {}, dense, fault::Model{});
  fault::PinfiEngine pinfi(prog.program(), {}, dense, fault::Model{});
  const fault::CategoryCounts lcounts = llfi.profile_all();
  const fault::CategoryCounts pcounts = pinfi.profile_all();
  for (ir::Category c : ir::kAllCategories) {
    EXPECT_EQ(lcounts[c], llfi.profile(c))
        << "LLFI " << ir::category_name(c) << "\n" << src;
    EXPECT_EQ(pcounts[c], pinfi.profile(c))
        << "PINFI " << ir::category_name(c) << "\n" << src;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProfiles,
                         ::testing::Range<std::uint64_t>(1, 51));

/// kTrials instance indices spread evenly over [1, n], in shuffled order.
std::vector<std::uint64_t> shuffled_targets(std::uint64_t n,
                                            std::uint64_t seed) {
  constexpr std::uint64_t kTrials = 16;
  std::vector<std::uint64_t> ks;
  for (std::uint64_t i = 0; i < kTrials; ++i)
    ks.push_back(1 + i * (n - 1) / (kTrials - 1));
  Rng order(seed);
  std::shuffle(ks.begin(), ks.end(), order);
  return ks;
}

/// Runs trials at evenly spaced k, visited in shuffled order, once through
/// inject() (a fresh context per trial) and once through inject_in() on one
/// context reused for every trial. The records must match.
template <typename Engine>
void expect_reused_context_matches_fresh(Engine& engine, std::uint64_t seed,
                                         const std::string& src) {
  const std::uint64_t n = engine.profile_all()[ir::Category::All];
  ASSERT_GT(n, 0u) << src;
  const std::unique_ptr<fault::TrialContext> reused = engine.make_context();
  for (const std::uint64_t k : shuffled_targets(n, seed)) {
    Rng fresh_rng(seed * 31 + k);
    Rng reused_rng(seed * 31 + k);
    const fault::TrialRecord a =
        engine.inject(ir::Category::All, k, fresh_rng);
    const fault::TrialRecord b =
        engine.inject_in(reused.get(), ir::Category::All, k, reused_rng);
    fault::expect_same_record(a, b,
                              std::string(engine.tool_name()) + " k=" +
                                  std::to_string(k) + "\n" + src);
  }
}

class RandomContexts : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomContexts, ReusedContextMatchesFreshContext) {
  // A dense stride spreads the trials over many snapshot windows, so the
  // reused context keeps switching between them.
  ProgramGenerator gen(GetParam() ^ 0xC0117E47ull);
  const std::string src = gen.generate();
  auto prog = driver::compile(src, "rand");
  const fault::CheckpointPolicy dense{/*stride=*/97, /*enabled=*/true};
  fault::LlfiEngine llfi(prog.module(), {}, dense, fault::Model{});
  fault::PinfiEngine pinfi(prog.program(), {}, dense, fault::Model{});
  expect_reused_context_matches_fresh(llfi, GetParam(), src);
  expect_reused_context_matches_fresh(pinfi, GetParam(), src);
}

// ---------------------------------------------------------------------------
// The equivalence harness.

/// One point of the configuration space a campaign may run under. None of
/// it may move a record.
struct Variant {
  const char* model = "transient";  ///< fault::Model::parse spec
  fault::CheckpointPolicy checkpoints;
  machine::DispatchMode dispatch = machine::DispatchMode::Threaded;
  bool trace_prop = false;
  std::size_t threads = 1;
  bool monitor = false;  ///< SchedulerOptions::monitor, short interval
  bool events = false;   ///< the global EventLog open for the run

  std::string describe() const {
    std::ostringstream os;
    os << "model=" << model << " checkpoints=";
    if (!checkpoints.enabled) {
      os << "off";
    } else if (checkpoints.stride == 0) {
      os << "auto";
    } else {
      os << checkpoints.stride;
    }
    os << " dispatch="
       << (dispatch == machine::DispatchMode::Switch ? "switch" : "threaded")
       << " prop=" << trace_prop << " threads=" << threads
       << " monitor=" << monitor << " events=" << events;
    return os.str();
  }
};

/// Draws every dimension independently. The models are the builtin suite
/// plus a time-triggered one, whose hook sleeps until its trigger point
/// and must re-arm at exactly that instruction on the fast path too.
Variant draw_variant(Rng& rng) {
  static const char* const kModels[] = {
      "transient", "transient:bits=2", "stuck-at-1",
      "intermittent:burst=4,gap=1", "transient:trigger=time"};
  static const std::size_t kThreads[] = {1, 2, 4};
  Variant v;
  v.model = kModels[rng.below(std::size(kModels))];
  switch (rng.below(5)) {
    case 0: v.checkpoints.enabled = false; break;
    case 1: v.checkpoints.stride = 0; break;  // automatic
    case 2: v.checkpoints.stride = 97; break;
    case 3: v.checkpoints.stride = 5000; break;
    default: v.checkpoints.stride = rng.range(50, 4000); break;
  }
  v.dispatch = rng.chance(0.5) ? machine::DispatchMode::Switch
                               : machine::DispatchMode::Threaded;
  v.trace_prop = rng.chance(0.5);
  v.threads = kThreads[rng.below(std::size(kThreads))];
  v.monitor = rng.chance(0.5);
  v.events = rng.chance(0.5);
  return v;
}

/// Runs `config` on `engine` with the variant's threads and sinks. The
/// event log must hold one line per trial and the monitor must leave a
/// status snapshot; `tag` keeps the files of concurrent tests apart.
fault::CampaignResult run_variant(fault::InjectorEngine& engine,
                                  const fault::CampaignConfig& config,
                                  const Variant& v, const std::string& tag) {
  fault::SchedulerOptions options;
  options.threads = v.threads;
  const std::string status_path =
      ::testing::TempDir() + "equiv_status_" + tag + ".json";
  if (v.monitor) {
    obs::MonitorOptions monitor;
    monitor.status_interval_ms = 5;
    monitor.status_path = status_path;
    options.monitor = monitor;
  }
  const std::string events_path =
      ::testing::TempDir() + "equiv_events_" + tag + ".jsonl";
  obs::EventLog& log = obs::EventLog::global();
  if (v.events) {
    EXPECT_TRUE(log.open(events_path)) << events_path;
  }
  fault::CampaignScheduler scheduler(std::move(options));
  scheduler.add(engine, config);
  fault::CampaignResult result = std::move(scheduler.run().front());
  if (v.events) {
    EXPECT_EQ(log.appended(), config.trials) << tag;
    log.close();
    std::remove(events_path.c_str());
  }
  if (v.monitor) {
    EXPECT_TRUE(std::ifstream(status_path).good()) << status_path;
    std::remove(status_path.c_str());
  }
  return result;
}

/// Runs one campaign on `code` under `v` and, at the same time on the
/// calling thread, under the oracle, and compares every record (and, when
/// `v` traces, every propagation summary against the traced oracle's).
/// The two runs overlap, so engines of different ExecConfigs execute on
/// two threads at once: no strategy state may be process-wide.
template <typename Engine, typename Code>
void expect_variant_matches_oracle(const Code& code, const Variant& v,
                                   const fault::CampaignConfig& config,
                                   const std::string& where) {
  using machine::DispatchMode;
  const fault::Model model = fault::Model::parse(v.model);
  const fault::CheckpointPolicy direct{/*stride=*/0, /*enabled=*/false};

  Engine oracle(code, {}, direct, model,
                fault::ExecConfig{DispatchMode::Threaded, false});
  Engine traced_oracle(code, {}, direct, model,
                       fault::ExecConfig{DispatchMode::Threaded, true});
  Engine variant(code, {}, v.checkpoints, model,
                 fault::ExecConfig{v.dispatch, v.trace_prop});
  const std::string tag = std::to_string(config.seed) + "_" +
                          variant.tool_name();

  // The variant may open the global event log, which a scheduler run
  // consults once, before its trials. The oracles' run also holds an
  // empty campaign, which completes (and reports progress) right after
  // that read, so the variant waits for it and the oracles never log.
  std::promise<void> oracles_started;
  std::future<void> started = oracles_started.get_future();
  std::once_flag started_once;
  const auto signal_started = [&] {
    std::call_once(started_once, [&] { oracles_started.set_value(); });
  };
  fault::SchedulerOptions serial;
  serial.threads = 1;
  serial.progress = [&](const fault::SchedulerProgress&) { signal_started(); };
  fault::CampaignConfig empty = config;
  empty.trials = 0;

  fault::CampaignResult actual;
  std::vector<fault::CampaignResult> expected;
  std::exception_ptr error;
  {
    std::jthread worker([&] {
      try {
        started.wait();
        actual = run_variant(variant, config, v, tag);
      } catch (...) {
        error = std::current_exception();
      }
    });
    fault::CampaignScheduler scheduler(serial);
    scheduler.add(oracle, config);
    if (v.trace_prop) scheduler.add(traced_oracle, config);
    scheduler.add(oracle, empty);
    try {
      expected = scheduler.run();
    } catch (...) {
      signal_started();
      throw;
    }
    signal_started();
  }  // joins the worker, also when the oracles' run throws
  if (error != nullptr) std::rethrow_exception(error);

  const std::string context =
      std::string(variant.tool_name()) + " " + v.describe() + "\n" + where;
  EXPECT_EQ(variant.golden_output(), oracle.golden_output()) << context;
  EXPECT_EQ(variant.golden_instructions(), oracle.golden_instructions())
      << context;
  EXPECT_EQ(variant.profile_all().counts, oracle.profile_all().counts)
      << context;
  ASSERT_EQ(actual.trials.size(), config.trials) << context;
  fault::expect_same_records(expected.front().trials, actual.trials, context);
  if (!v.trace_prop) {
    for (const fault::TrialRecord& r : actual.trials)
      EXPECT_FALSE(r.prop.traced) << context;
    return;
  }
  fault::expect_same_records(expected[1].trials, actual.trials,
                             "traced " + context, fault::PropCheck::Compare);
  for (const fault::TrialRecord& r : actual.trials)
    EXPECT_EQ(r.prop.traced, r.injected) << context;
}

/// The seed whose row runs mcf, the program the end-to-end CSV compares
/// use, instead of a generated one.
constexpr std::uint64_t kMcfSeed = 1;

TEST_P(RandomContexts, StrategiesAgreeSideBySide) {
  const std::uint64_t seed = GetParam();
  std::string src;
  std::string where;
  if (seed == kMcfSeed) {
    src = apps::benchmark("mcf").source;
    where = "mcf";
  } else {
    ProgramGenerator gen(seed ^ 0x57A7E61Eull);
    src = gen.generate();
    where = src;
  }
  auto prog = driver::compile(src, "rand");
  Rng draw(seed * 0x9E3779B97F4A7C15ull);
  fault::CampaignConfig config;
  config.app = "rand";
  config.category = ir::Category::All;
  config.trials = seed == kMcfSeed ? 16 : 24;
  config.seed = seed;
  expect_variant_matches_oracle<fault::LlfiEngine>(
      prog.module(), draw_variant(draw), config, where);
  expect_variant_matches_oracle<fault::PinfiEngine>(
      prog.program(), draw_variant(draw), config, where);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomContexts,
                         ::testing::Range<std::uint64_t>(1, 31));

}  // namespace
}  // namespace faultlab
