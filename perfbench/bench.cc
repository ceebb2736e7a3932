// Campaign benchmark program: runs one repetition of a named workload in
// this process and prints its measurements as one JSON line on stdout.
//
//   faultlab_bench --workload <name> --seed <n> --out <dir>
//                  [--trace] [--trials-per-cell <n>] [--reference <csv>]
//                  [--no-replay]
//   faultlab_bench --workload <name> --describe
//
// perfbench/run.py starts one fresh process per repetition and reduces the
// lines to medians; perfbench/README.md defines every metric. --describe
// prints the workload's worker count, from which run.py sizes its pool.
//
// Untraced (the default), nothing of the benchmark sits between the
// scheduler and the engines, so wall_s, setup_s, trials_per_s and
// peak_rss_mb measure the library alone. With --trace every engine is
// wrapped in a forwarding TimedEngine, each layer call is recorded as an
// in-memory span, and the per-layer metrics come from those spans plus the
// engines' public stats accessors; the spans go to <out>/spans.csv at exit.
//
// Either way the results are checked afterwards, outside the timed
// section: every results-CSV row against --reference (a file recorded at
// the default seed), and two random (k, bit) trials per cell replayed on a
// fresh engine with checkpoints off, whose TrialRecord must match the
// checkpointed engine's.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "apps/apps.h"
#include "driver/pipeline.h"
#include "fault/llfi.h"
#include "fault/pinfi.h"
#include "fault/report.h"
#include "fault/scheduler.h"
#include "frontend/codegen.h"
#include "machine/dispatch.h"
#include "machine/runtime.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "opt/pass.h"

extern char** environ;

namespace {

using namespace faultlab;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One benchmark workload: a campaign grid run as a closed loop (each
/// worker takes its next trial when the previous one finishes).
struct Workload {
  const char* name;
  std::vector<ir::Category> categories;
  std::size_t trials_per_cell;
  std::size_t workers;  // see workers_of()
  bool observed;        // propagation tracing and every obs sink on
};

std::size_t workers_of(const Workload& w) {
  return std::min<std::size_t>(
      w.workers, std::max(1u, std::thread::hardware_concurrency()));
}

const Workload* find_workload(std::string_view name) {
  static const std::vector<Workload> kWorkloads = {
      {"fig3_transient", {ir::Category::All}, 150, 1, false},
      {"sweep_mt",
       {ir::Category::Arithmetic, ir::Category::Cast, ir::Category::Cmp,
        ir::Category::Load},
       40, 4, false},
      {"prop_observed", {ir::Category::All}, 25, 1, true},
  };
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

/// In-memory span store of the traced run. Worker threads append under one
/// lock per trial, which is negligible against a trial's execution.
class SpanLog {
 public:
  struct Span {
    const char* name;  // layer call: "compile_to_ir", "inject_in", ...
    std::string app;
    std::string tool;  // "llfi" | "pinfi", empty for compile stages
    Clock::time_point start;
    Clock::time_point end;
    std::thread::id thread;
    double seconds() const { return seconds_between(start, end); }
  };

  void add(Span span) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }

  /// Call only after every worker has been joined.
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Calls f(); with a log, records the call as a span.
template <class F>
auto timed(SpanLog* log, const char* name, const std::string& app,
           const std::string& tool, F&& f) {
  if (log == nullptr) return f();
  const Clock::time_point start = Clock::now();
  auto result = f();
  log->add({name, app, tool, start, Clock::now(), std::this_thread::get_id()});
  return result;
}

/// Forwarding engine of the traced run. It relies only on the entry points
/// the engine interface keeps (profile_all, make_context, inject_in,
/// window_of and the accessors) and forwards no lane groups, so the base
/// class runs every group as one inject_in per trial.
class TimedEngine final : public fault::InjectorEngine {
 public:
  TimedEngine(fault::InjectorEngine& inner, std::string app, std::string tool,
              SpanLog& log)
      : inner_(inner), app_(std::move(app)), tool_(std::move(tool)),
        log_(log) {}

  const char* tool_name() const noexcept override {
    return inner_.tool_name();
  }
  // profile() and inject() are today's pure virtuals. They are declared
  // without `override` and built on the kept entry points, so the wrapper
  // still compiles once the interface drops them.
  std::uint64_t profile(ir::Category category) {
    return profile_all()[category];
  }
  fault::TrialRecord inject(ir::Category category, std::uint64_t k,
                            Rng& rng) {
    const std::unique_ptr<fault::TrialContext> context = make_context();
    return inject_in(context.get(), category, k, rng);
  }
  fault::CategoryCounts profile_all() override {
    return timed(&log_, "profile_all", app_, tool_,
                 [&] { return inner_.profile_all(); });
  }
  std::unique_ptr<fault::TrialContext> make_context() override {
    return timed(&log_, "make_context", app_, tool_,
                 [&] { return inner_.make_context(); });
  }
  fault::TrialRecord inject_in(fault::TrialContext* context,
                               ir::Category category, std::uint64_t k,
                               Rng& rng) override {
    return timed(&log_, "inject_in", app_, tool_, [&] {
      return inner_.inject_in(context, category, k, rng);
    });
  }
  std::uint64_t window_of(ir::Category category,
                          std::uint64_t k) const override {
    return inner_.window_of(category, k);
  }
  const fault::Model& fault_model() const noexcept override {
    return inner_.fault_model();
  }
  const std::string& golden_output() const noexcept override {
    return inner_.golden_output();
  }
  std::uint64_t golden_instructions() const noexcept override {
    return inner_.golden_instructions();
  }
  fault::CheckpointStats checkpoint_stats() const override {
    return inner_.checkpoint_stats();
  }
  fault::PhaseStats phase_stats() const override {
    return inner_.phase_stats();
  }

 private:
  fault::InjectorEngine& inner_;
  std::string app_;
  std::string tool_;
  SpanLog& log_;
};

/// One app compiled stage by stage (driver::compile does the same steps
/// but hides the stage boundaries the traced run times).
struct CompiledApp {
  std::string name;
  std::unique_ptr<ir::Module> module;
  std::unique_ptr<machine::GlobalLayout> layout;
  x86::Program program;
};

CompiledApp compile_app(const apps::Benchmark& b, SpanLog* log) {
  CompiledApp app;
  app.name = b.name;
  app.module = timed(log, "compile_to_ir", b.name, "",
                     [&] { return mc::compile_to_ir(b.source, b.name); });
  timed(log, "run_standard_pipeline", b.name, "",
        [&] { return opt::run_standard_pipeline(*app.module); });
  app.program = timed(log, "lower_module", b.name, "", [&] {
    app.layout = std::make_unique<machine::GlobalLayout>(*app.module);
    return driver::lower_module(*app.module, *app.layout);
  });
  return app;
}

struct EngineSlot {
  const CompiledApp* app;
  std::string tool;  // "llfi" | "pinfi"
  std::unique_ptr<fault::InjectorEngine> engine;
  std::unique_ptr<TimedEngine> wrapper;  // traced run only

  fault::InjectorEngine& scheduled() {
    return wrapper ? *wrapper : *engine;
  }
};

std::unique_ptr<fault::InjectorEngine> make_engine(
    const CompiledApp& app, const std::string& tool,
    const fault::CheckpointPolicy& checkpoints) {
  if (tool == "llfi")
    return std::make_unique<fault::LlfiEngine>(*app.module, fault::FaultModel{},
                                               checkpoints, fault::Model{});
  return std::make_unique<fault::PinfiEngine>(app.program, fault::FaultModel{},
                                              checkpoints, fault::Model{});
}

/// Clears every inherited FAULTLAB_* variable so a developer's shell cannot
/// change the numbers, then sets only the knobs the workload names.
/// Returns the cleared names. Runs before the library reads any of them.
std::vector<std::string> reset_environment(
    const std::vector<std::pair<std::string, std::string>>& knobs) {
  std::vector<std::string> cleared;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string_view e(*entry);
    if (e.substr(0, 9) == "FAULTLAB_")
      cleared.emplace_back(e.substr(0, e.find('=')));
  }
  for (const std::string& name : cleared) unsetenv(name.c_str());
  for (const auto& [name, value] : knobs) setenv(name.c_str(), value.c_str(), 1);
  return cleared;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uintmax_t file_bytes(const std::filesystem::path& path) {
  std::error_code ec;
  const std::uintmax_t n = std::filesystem::file_size(path, ec);
  return ec ? 0 : n;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Pass/fail tally feeding `attempted`, `failed` and error_rate.
struct Checks {
  std::size_t attempted = 0;
  std::vector<std::string> failures;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) failures.push_back(what);
  }
};

/// Data rows of a results CSV keyed by their (app, tool, category,
/// fault_model) prefix.
std::map<std::string, std::string> csv_rows(const std::string& text,
                                            std::string* header) {
  std::map<std::string, std::string> rows;
  std::istringstream in(text);
  std::getline(in, *header);
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    std::size_t cut = line.find(',');
    for (int field = 1; field < 4 && cut != std::string::npos; ++field)
      cut = line.find(',', cut + 1);
    rows[line.substr(0, cut)] = line;
  }
  return rows;
}

void check_reference(const std::string& results, const std::string& reference,
                     Checks& checks) {
  std::string got_header, want_header;
  const auto got = csv_rows(results, &got_header);
  const auto want = csv_rows(reference, &want_header);
  checks.expect(got_header == want_header, "results header differs");
  for (const auto& [key, row] : want) {
    const auto it = got.find(key);
    checks.expect(it != got.end() && it->second == row,
                  "row " + key + " differs from the reference");
  }
  for (const auto& [key, row] : got)
    if (want.count(key) == 0)
      checks.expect(false, "row " + key + " is not in the reference");
}

/// The TrialRecord fields campaign results depend on (the checkpoint and
/// propagation fields may differ by execution order and are excluded).
bool same_core(const fault::TrialRecord& a, const fault::TrialRecord& b) {
  const bool crash = a.outcome == fault::Outcome::Crash;
  return a.outcome == b.outcome && a.dynamic_target == b.dynamic_target &&
         a.bit == b.bit && a.static_site == b.static_site &&
         a.injected == b.injected &&
         a.inject_instruction == b.inject_instruction &&
         a.total_instructions == b.total_instructions &&
         (!crash || (a.trap == b.trap && a.trap_pc == b.trap_pc));
}

/// Replays two random (k, bit) trials per cell on a fresh checkpoint-free
/// engine and on the campaign's checkpointed engine, through make_context
/// and inject_in only, and compares the records.
void cross_check(EngineSlot& slot, const fault::ResultSet& results,
                 const std::vector<ir::Category>& categories, Rng& draw,
                 Checks& checks) {
  fault::CheckpointPolicy direct;
  direct.enabled = false;
  const std::unique_ptr<fault::InjectorEngine> fresh =
      make_engine(*slot.app, slot.tool, direct);
  const fault::CategoryCounts fresh_counts = fresh->profile_all();
  const std::unique_ptr<fault::TrialContext> fresh_context =
      fresh->make_context();
  const std::unique_ptr<fault::TrialContext> context =
      slot.engine->make_context();
  for (ir::Category category : categories) {
    const std::string cell = slot.app->name + "/" + slot.tool + "/" +
                             ir::category_name(category);
    const fault::CampaignResult* r =
        results.find(slot.app->name, slot.engine->tool_name(), category);
    const std::uint64_t n = r != nullptr ? r->profiled_count : 0;
    checks.expect(r != nullptr && fresh_counts[category] == n,
                  cell + ": profiled count differs without checkpoints");
    if (n == 0) continue;
    for (int i = 0; i < 2; ++i) {
      const std::uint64_t k = draw.range(1, n);
      Rng bits = draw.fork();
      Rng bits_again = bits;
      const fault::TrialRecord checkpointed =
          slot.engine->inject_in(context.get(), category, k, bits);
      const fault::TrialRecord direct_record =
          fresh->inject_in(fresh_context.get(), category, k, bits_again);
      checks.expect(same_core(checkpointed, direct_record),
                    cell + ": k=" + std::to_string(k) +
                        " differs from the checkpoint-free replay");
    }
  }
}

/// Flat JSON object writer (numbers in shortest round-trip form).
class JsonObject {
 public:
  JsonObject& number(std::string_view key, double value) {
    char buf[64];
    const auto end = std::to_chars(buf, buf + sizeof buf, value).ptr;
    return raw(key, std::string(buf, end));
  }
  JsonObject& text(std::string_view key, std::string_view value) {
    return raw(key, "\"" + obs::json_escape(value) + "\"");
  }
  JsonObject& raw(std::string_view key, const std::string& json) {
    body_ += body_.empty() ? "" : ", ";
    body_ += "\"" + obs::json_escape(key) + "\": " + json;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer metrics of the traced run, from the span log, the engines'
/// stats accessors, the run manifest and the trial records.
void layer_metrics(const SpanLog& log, const std::vector<EngineSlot>& slots,
                   const fault::RunManifest& manifest,
                   const fault::ResultSet& results,
                   const machine::DispatchCountersSnapshot& dispatch,
                   const std::filesystem::path& out, JsonObject& m) {
  std::map<std::string, double> stage_s;
  struct Tool {
    double golden_s = 0, profile_s = 0, busy_s = 0;
    std::vector<double> trial_ms;
  };
  std::map<std::string, Tool> tools;
  struct Engine {
    double golden_s = 0, busy_s = 0;
    std::size_t trials = 0;
  };
  std::map<std::pair<std::string, std::string>, Engine> engines;
  std::size_t contexts = 0;
  for (const SpanLog::Span& s : log.spans()) {
    if (s.tool.empty()) {
      stage_s[s.name] += s.seconds();
      continue;
    }
    const std::string_view name = s.name;
    Tool& tool = tools[s.tool];
    Engine& engine = engines[{s.app, s.tool}];
    if (name == "golden") {
      tool.golden_s += s.seconds();
      engine.golden_s += s.seconds();
    } else if (name == "profile_all") {
      tool.profile_s += s.seconds();
    } else if (name == "make_context") {
      ++contexts;
    } else if (name == "inject_in") {
      tool.busy_s += s.seconds();
      tool.trial_ms.push_back(s.seconds() * 1e3);
      engine.busy_s += s.seconds();
      ++engine.trials;
    }
  }
  m.number("frontend.compile_to_ir_s", stage_s["compile_to_ir"])
      .number("opt.pipeline_s", stage_s["run_standard_pipeline"])
      .number("backend.lower_s", stage_s["lower_module"]);

  double busy_total = 0.0;
  for (const char* tool : {"llfi", "pinfi"}) {
    Tool& t = tools[tool];
    std::sort(t.trial_ms.begin(), t.trial_ms.end());
    // ZOFI's cost unit: each engine's mean trial time over its own golden
    // run, averaged over the apps so short and long apps weigh the same.
    double cost_x = 0.0;
    std::size_t apps = 0;
    for (const auto& [key, e] : engines) {
      if (key.second != tool || e.trials == 0) continue;
      cost_x += ratio(e.busy_s / static_cast<double>(e.trials), e.golden_s);
      ++apps;
    }
    const std::string p = std::string("fault.") + tool + ".";
    m.number(p + "golden_s", t.golden_s)
        .number(p + "profile_s", t.profile_s)
        .number(p + "trials", static_cast<double>(t.trial_ms.size()))
        .number(p + "trial_busy_s", t.busy_s)
        .number(p + "trial_p50_ms",
                t.trial_ms.empty() ? 0.0 : obs::percentile_sorted(t.trial_ms, 50))
        .number(p + "trial_p95_ms",
                t.trial_ms.empty() ? 0.0 : obs::percentile_sorted(t.trial_ms, 95))
        .number(p + "trial_cost_x_golden",
                ratio(cost_x, static_cast<double>(apps)));
    busy_total += t.busy_s;
  }
  const double trial_wall = manifest.wall_seconds - manifest.profile_seconds;
  m.number("scheduler.wait_s",
           static_cast<double>(manifest.threads) * trial_wall - busy_total)
      .number("scheduler.contexts", static_cast<double>(contexts));

  fault::CheckpointStats checkpoints;
  fault::PhaseStats phases;
  std::map<std::string, double> execute_s;
  std::map<std::string, std::uint64_t> skipped;
  for (const EngineSlot& slot : slots) {
    const fault::CheckpointStats c = slot.engine->checkpoint_stats();
    const fault::PhaseStats p = slot.engine->phase_stats();
    checkpoints += c;
    phases += p;
    execute_s[slot.tool] += p.execute_seconds;
    skipped[slot.tool] += c.skipped_instructions;
  }
  m.number("phase.restore_s", phases.restore_seconds)
      .number("phase.execute_s", phases.execute_seconds)
      .number("phase.classify_s", phases.classify_seconds)
      .number("checkpoint.snapshots", static_cast<double>(checkpoints.snapshots))
      .number("checkpoint.stride", static_cast<double>(checkpoints.stride))
      .number("checkpoint.hit_rate", checkpoints.hit_rate())
      .number("checkpoint.delta_share",
              ratio(static_cast<double>(checkpoints.delta_restores),
                    static_cast<double>(checkpoints.restored_trials)))
      .number("checkpoint.mean_restored_pages",
              checkpoints.mean_restored_pages())
      .number("checkpoint.skipped_minstr",
              static_cast<double>(checkpoints.skipped_instructions) / 1e6);

  // Executed = each trial's whole-run count minus the golden prefix its
  // snapshot let it skip.
  std::map<std::string, std::uint64_t> total;
  std::map<fault::Outcome, std::uint64_t> suffix;
  for (const fault::CampaignResult& r : results.all()) {
    const std::string tool = r.tool == "LLFI" ? "llfi" : "pinfi";
    for (const fault::TrialRecord& t : r.trials) {
      total[tool] += t.total_instructions;
      suffix[t.outcome] += t.instructions_after_injection();
    }
  }
  for (const auto& [layer, tool] :
       {std::pair<const char*, const char*>{"vm", "llfi"}, {"x86", "pinfi"}}) {
    const double minstr =
        static_cast<double>(total[tool] - skipped[tool]) / 1e6;
    m.number(std::string(layer) + ".minstr_executed", minstr)
        .number(std::string(layer) + ".minstr_per_s",
                ratio(minstr, execute_s[tool]));
  }
  std::uint64_t suffix_total = 0;
  for (const auto& [outcome, n] : suffix) suffix_total += n;
  m.number("suffix.minstr.benign",
           static_cast<double>(suffix[fault::Outcome::Benign]) / 1e6)
      .number("suffix.minstr.sdc",
              static_cast<double>(suffix[fault::Outcome::SDC]) / 1e6)
      .number("suffix.minstr.crash",
              static_cast<double>(suffix[fault::Outcome::Crash]) / 1e6)
      .number("suffix.minstr.hang",
              static_cast<double>(suffix[fault::Outcome::Hang]) / 1e6)
      .number("suffix.benign_share",
              ratio(static_cast<double>(suffix[fault::Outcome::Benign]),
                    static_cast<double>(suffix_total)));

  m.number("dispatch.trace_decodes", static_cast<double>(dispatch.trace_decodes))
      .number("dispatch.trace_invalidations",
              static_cast<double>(dispatch.trace_invalidations))
      .number("obs.events_written",
              static_cast<double>(obs::EventLog::global().appended()))
      .number("obs.events_bytes",
              static_cast<double>(file_bytes(out / "events.jsonl")))
      .number("obs.status_bytes",
              static_cast<double>(file_bytes(out / "status.json")));
}

void write_spans(const SpanLog& log, Clock::time_point origin,
                 const std::filesystem::path& path) {
  std::ofstream out(path);
  out << "name,app,tool,thread,start_s,end_s\n";
  std::vector<std::thread::id> threads;
  for (const SpanLog::Span& s : log.spans()) {
    auto it = std::find(threads.begin(), threads.end(), s.thread);
    if (it == threads.end()) it = threads.insert(threads.end(), s.thread);
    char times[64];
    std::snprintf(times, sizeof times, "%.9f,%.9f",
                  seconds_between(origin, s.start),
                  seconds_between(origin, s.end));
    out << s.name << ',' << s.app << ',' << s.tool << ','
        << (it - threads.begin()) << ',' << times << '\n';
  }
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  std::filesystem::path out;
  bool trace = false;
  std::size_t trials_per_cell = 0;  // 0 = the workload's own size
  std::string reference;
  bool replay = true;
  bool describe = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (flag == "--trace") {
      a.trace = true;
      continue;
    }
    if (flag == "--no-replay") {
      a.replay = false;
      continue;
    }
    if (flag == "--describe") {
      a.describe = true;
      continue;
    }
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + std::string(flag));
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = find_workload(value);
      if (a.workload == nullptr)
        throw std::runtime_error("unknown workload " + value);
    } else if (flag == "--seed") {
      a.seed = std::stoull(value, nullptr, 0);
      have_seed = true;
    } else if (flag == "--out") {
      a.out = value;
    } else if (flag == "--trials-per-cell") {
      a.trials_per_cell = std::stoull(value);
    } else if (flag == "--reference") {
      a.reference = value;
    } else {
      throw std::runtime_error("unknown flag " + std::string(flag));
    }
  }
  if (a.workload == nullptr || (!a.describe && (!have_seed || a.out.empty())))
    throw std::runtime_error(
        "usage: faultlab_bench --workload <name> --seed <n> --out <dir> "
        "[--trace] [--trials-per-cell <n>] [--reference <csv>] "
        "[--no-replay] | --workload <name> --describe");
  return a;
}

int run(const Args& args, Clock::time_point start) {
  const Workload& w = *args.workload;
  std::filesystem::create_directories(args.out);
  std::vector<std::pair<std::string, std::string>> knobs;
  if (w.observed) {
    knobs = {{"FAULTLAB_PROP", "1"},
             {"FAULTLAB_EVENTS", (args.out / "events.jsonl").string()},
             {"FAULTLAB_STATUS", (args.out / "status.json").string()},
             {"FAULTLAB_METRICS", (args.out / "metrics.json").string()}};
  }
  const std::vector<std::string> cleared = reset_environment(knobs);
  const std::size_t trials =
      args.trials_per_cell != 0 ? args.trials_per_cell : w.trials_per_cell;
  const std::size_t workers = workers_of(w);

  std::unique_ptr<SpanLog> log;
  if (args.trace) log = std::make_unique<SpanLog>();
  const machine::DispatchCountersSnapshot dispatch_before =
      machine::dispatch_counters_snapshot();

  // ---- timed section: setup, trials, results written ----
  std::vector<CompiledApp> apps;
  for (const apps::Benchmark& b : apps::all_benchmarks())
    apps.push_back(compile_app(b, log.get()));
  std::vector<EngineSlot> slots;
  for (const CompiledApp& app : apps) {
    for (const char* tool : {"llfi", "pinfi"}) {
      EngineSlot& slot = slots.emplace_back();
      slot.app = &app;
      slot.tool = tool;
      slot.engine = timed(log.get(), "golden", app.name, tool, [&] {
        return make_engine(app, tool, fault::CheckpointPolicy{});
      });
      if (log)
        slot.wrapper =
            std::make_unique<TimedEngine>(*slot.engine, app.name, tool, *log);
    }
  }
  fault::SchedulerOptions options;
  options.threads = workers;
  fault::CampaignScheduler scheduler(options);
  for (EngineSlot& slot : slots) {
    for (ir::Category category : w.categories) {
      fault::CampaignConfig cfg;
      cfg.app = slot.app->name;
      cfg.category = category;
      cfg.trials = trials;
      cfg.seed = args.seed;
      scheduler.add(slot.scheduled(), cfg);
    }
  }
  const std::size_t cells = slots.size() * w.categories.size();
  const double pre_run_s = seconds_between(start, Clock::now());

  Checks checks;
  fault::ResultSet results;
  bool campaign_failed = false;
  try {
    for (fault::CampaignResult& r : scheduler.run())
      results.add(std::move(r));
  } catch (const fault::CampaignError& e) {
    std::fprintf(stderr, "faultlab_bench: %s\n", e.what());
    campaign_failed = true;
    for (std::size_t i = 0; i < cells; ++i)
      checks.expect(false, e.what());
  }
  const std::string results_csv =
      campaign_failed ? "" : fault::results_csv(results).to_string();
  {
    std::ofstream(args.out / "results.csv") << results_csv;
  }
  const double wall_s = seconds_between(start, Clock::now());
  // ---- end of timed section ----

  const double rss_mb = peak_rss_mb();
  const fault::RunManifest& manifest = scheduler.manifest();
  std::size_t trials_done = 0;
  for (const fault::CampaignResult& r : results.all())
    trials_done += r.trials.size();
  const double trial_wall = manifest.wall_seconds - manifest.profile_seconds;

  JsonObject metrics;
  metrics.number("wall_s", wall_s)
      .number("setup_s", pre_run_s + manifest.profile_seconds)
      .number("trials_per_s", ratio(static_cast<double>(trials_done), trial_wall))
      .number("peak_rss_mb", rss_mb);
  fault::CheckpointStats checkpoints;
  for (const EngineSlot& slot : slots) checkpoints += slot.engine->checkpoint_stats();
  if (log) {
    machine::DispatchCountersSnapshot dispatch =
        machine::dispatch_counters_snapshot();
    dispatch.trace_decodes -= dispatch_before.trace_decodes;
    dispatch.trace_invalidations -= dispatch_before.trace_invalidations;
    layer_metrics(*log, slots, manifest, results, dispatch, args.out, metrics);
    write_spans(*log, start, args.out / "spans.csv");
  }

  // ---- correctness checks (untimed; engine stats already read) ----
  if (!campaign_failed) {
    if (!args.reference.empty())
      check_reference(results_csv, read_file(args.reference), checks);
    if (args.replay) {
      Rng draw(args.seed ^ 0xc0ffee5eedULL);
      for (EngineSlot& slot : slots)
        cross_check(slot, results, w.categories, draw, checks);
    }
  }

  std::string cleared_json = "[";
  for (const std::string& name : cleared)
    cleared_json += (cleared_json.size() > 1 ? ", \"" : "\"") +
                    obs::json_escape(name) + "\"";
  cleared_json += "]";
  JsonObject config;
  config.text("workload", w.name)
      .raw("seed", std::to_string(args.seed))
      .number("trials_per_cell", static_cast<double>(trials))
      .number("cells", static_cast<double>(cells))
      .number("trials", static_cast<double>(trials_done))
      .number("workers", static_cast<double>(manifest.threads))
      .text("dispatch", manifest.dispatch_mode)
      .number("stride", static_cast<double>(checkpoints.stride))
      .text("build_type", FAULTLAB_BENCH_BUILD_TYPE)
      .raw("cleared_env", cleared_json)
      .number("prop", w.observed ? 1 : 0);
  std::string failures = "[";
  for (std::size_t i = 0; i < checks.failures.size() && i < 10; ++i)
    failures += (i ? ", \"" : "\"") + obs::json_escape(checks.failures[i]) + "\"";
  failures += "]";
  JsonObject line;
  line.raw("config", config.str())
      .number("attempted", static_cast<double>(checks.attempted))
      .number("failed", static_cast<double>(checks.failures.size()))
      .raw("failures", failures)
      .raw("metrics", metrics.str());
  std::printf("%s\n", line.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point start = Clock::now();
  try {
    const Args args = parse_args(argc, argv);
    if (args.describe) {
      std::printf("%s\n", JsonObject()
                              .number("workers", static_cast<double>(
                                                     workers_of(*args.workload)))
                              .str()
                              .c_str());
      return 0;
    }
    return run(args, start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "faultlab_bench: %s\n", e.what());
    return 1;
  }
}
