// Fault-campaign CLI: run a single configurable campaign and dump every
// trial — the level of control a researcher needs when debugging an
// injector or investigating a particular outcome.
//
//   ./build/examples/fault_campaign <app|-> <tool> <category> [trials] [seed] [csv]
//     app:      bzip2|libquantum|ocean|hmmer|mcf|raytrace, or '-' to read
//               mini-C source from stdin
//     tool:     llfi|pinfi
//     category: arithmetic|cast|cmp|load|all
//     csv:      optional path; writes the campaign's results CSV there
//               (the CampaignCsv ctest pairs byte-compare two runs)
//
// Malformed arguments, an unknown app and source that does not compile
// print "error: ..." and exit with status 2.
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>

#include "apps/apps.h"
#include "cli_args.h"
#include "driver/pipeline.h"
#include "fault/campaign.h"
#include "fault/llfi.h"
#include "fault/pinfi.h"
#include "fault/report.h"
#include "fault/scheduler.h"

int main(int argc, char** argv) {
  using namespace faultlab;

  if (argc < 4) {
    std::cerr << "usage: " << argv[0]
              << " <app|-> <llfi|pinfi> <category> [trials] [seed] [csv]\n";
    return 2;
  }
  const std::string app = argv[1];
  const std::string tool = argv[2];
  if (tool != "llfi" && tool != "pinfi") {
    std::cerr << "error: unknown tool '" << tool << "' (llfi|pinfi)\n";
    return 2;
  }
  const auto category = ir::category_from_name(argv[3]);
  if (!category) {
    std::cerr << "error: unknown category '" << argv[3] << "'\n";
    return 2;
  }
  std::uint64_t trials = 50;
  std::uint64_t seed = 1;
  if (!examples::count_arg(argc, argv, 4, "trials", &trials) ||
      !examples::count_arg(argc, argv, 5, "seed", &seed))
    return 2;

  std::string source;
  if (app == "-") {
    std::ostringstream buf;
    buf << std::cin.rdbuf();
    source = buf.str();
  } else {
    const apps::Benchmark* benchmark = examples::find_app(app);
    if (benchmark == nullptr) return 2;
    source = benchmark->source;
  }

  std::optional<driver::CompiledProgram> prog;
  try {
    prog.emplace(driver::compile(source, app));
  } catch (const std::exception& e) {
    std::cerr << "error: " << app << " does not compile: " << e.what()
              << "\n";
    return 2;
  }
  std::unique_ptr<fault::InjectorEngine> engine;
  if (tool == "llfi") {
    engine = std::make_unique<fault::LlfiEngine>(prog->module());
  } else {
    engine = std::make_unique<fault::PinfiEngine>(prog->program());
  }

  fault::CampaignConfig cfg;
  cfg.app = app;
  cfg.category = *category;
  cfg.trials = trials;
  cfg.seed = seed;

  fault::CampaignScheduler scheduler;
  scheduler.add(*engine, cfg);
  std::vector<fault::CampaignResult> results;
  try {
    results = scheduler.run();
  } catch (const std::exception& e) {  // CampaignError, or a failed profile
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  const fault::CampaignResult& result = results.front();

  std::cout << engine->tool_name() << " on '" << app << "', category "
            << ir::category_name(*category) << ": N = "
            << result.profiled_count << " dynamic targets\n\n";
  std::cout << "trial  dyn-target       bit  outcome\n";
  for (std::size_t i = 0; i < result.trials.size(); ++i) {
    const fault::TrialRecord& t = result.trials[i];
    std::printf("%5zu  %12llu  %4u  %s\n", i,
                static_cast<unsigned long long>(t.dynamic_target), t.bit,
                fault::outcome_name(t.outcome));
  }
  std::cout << "\ncrash " << result.crash << " | sdc " << result.sdc
            << " | benign " << result.benign << " | hang " << result.hang
            << " | not-activated " << result.not_activated << "  ("
            << result.activated() << " activated of "
            << result.trials.size() << ")\n";

  const fault::RunManifest& m = scheduler.manifest();
  std::printf("profiling %.3fs, trials %.3fs (%.0f trials/s), "
              "%zu injected, %zu threads\n",
              m.profile_seconds, result.wall_seconds,
              m.campaigns.front().trials_per_second(),
              result.injected_trials, m.threads);

  if (argc > 6) {
    fault::ResultSet rs;
    rs.add(std::move(results.front()));
    fault::results_csv(rs).save(argv[6]);
    std::cout << "[results written to " << argv[6] << "]\n";
    // The run manifest rides along as <csv>.manifest.csv so downstream
    // tooling (tools/faultlab_report.py) gets timing/latency context from
    // the same invocation that produced the results and the event log.
    const std::string manifest_path = std::string(argv[6]) + ".manifest.csv";
    fault::manifest_csv(m).save(manifest_path);
    std::cout << "[manifest written to " << manifest_path << "]\n";
  }
  return 0;
}
