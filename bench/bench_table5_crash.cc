// Table V: crash percentages per category — the paper's negative result:
// unlike SDC rates, crash rates diverge substantially between LLFI and
// PINFI (up to ~40 points), except for the 'cmp' category.
#include <cstdio>
#include <iostream>
#include <utility>

#include "common.h"
#include "fault/attribution.h"
#include "fault/compare.h"

int main() {
  using namespace faultlab;
  const std::size_t trials = fault::default_trials();
  benchx::print_banner("Table V: crash percentages for LLFI and PINFI",
                       trials);

  // Propagation tracing on for the whole bench: results are byte-identical
  // either way (the equivalence harness pins this), and the traced trials
  // feed table5_propagation.csv — the why behind the crash-gap table.
  fault::ExecConfig exec = fault::ExecConfig::from_env();
  exec.trace_prop = true;

  auto apps = benchx::compile_all_apps();
  const std::vector<ir::Category> cats(std::begin(ir::kAllCategories),
                                       std::end(ir::kAllCategories));
  benchx::ExperimentRun run =
      benchx::run_experiment(apps, cats, trials, {}, fault::Model::from_env(),
                             benchx::kDefaultSeed, exec);
  const fault::ResultSet& rs = run.results;

  std::cout << "\n" << fault::render_table5(rs);

  const fault::HeadlineFindings h = fault::summarize(rs);
  std::cout << "\n" << fault::render_summary(h);
  std::cout << "(paper: max crash differences of 17-40 points in "
               "all/arithmetic/cast/load; cmp crash rates nearly equal)\n";

  std::cout << "\n" << fault::render_attribution(rs);

  benchx::save_results(run, "table5_crash.csv");
  fault::attribution_csv(rs).save("table5_attribution.csv");
  std::cout << "[attribution written to table5_attribution.csv]\n";

  // Cross-model sweep: re-run the 'all' grid under each builtin hardware
  // fault model (transient baseline, stuck-at-1, intermittent burst,
  // 2-bit mask) and attribute crash divergence per model, so the CSV shows
  // which mapping classes diverge under which model.
  std::cout << "\nCross-model crash sweep ('all' category, builtin fault "
               "models)\n";
  std::vector<std::pair<std::string, fault::ResultSet>> per_model;
  for (const fault::Model& m : fault::Model::builtin_suite()) {
    benchx::ExperimentRun mrun = benchx::run_experiment(
        apps, {ir::Category::All}, trials, {}, m, benchx::kDefaultSeed, exec);
    double crash_sum[2] = {0, 0};
    int counts[2] = {0, 0};
    for (const fault::CampaignResult& r : mrun.results.all()) {
      if (r.activated() == 0) continue;
      const int t = r.tool == "LLFI" ? 0 : 1;
      crash_sum[t] += r.crash_rate().percent();
      ++counts[t];
    }
    std::printf("  %-20s crash LLFI %5.1f%%  PINFI %5.1f%%\n",
                m.name().c_str(),
                counts[0] != 0 ? crash_sum[0] / counts[0] : 0.0,
                counts[1] != 0 ? crash_sum[1] / counts[1] : 0.0);
    per_model.emplace_back(m.name(), std::move(mrun.results));
  }
  fault::model_attribution_csv(per_model).save("table5_models.csv");
  std::cout << "[per-model attribution written to table5_models.csv]\n";

  // Propagation roll-up: the transient full grid (all apps × categories,
  // both tools) plus every non-baseline model's 'all' sweep. One row per
  // (model, app, category, tool, mapping class) of taint/divergence stats.
  std::vector<std::pair<std::string, fault::ResultSet>> prop_sets;
  prop_sets.emplace_back("transient", rs);
  for (const auto& [model, mrs] : per_model)
    if (model != "transient") prop_sets.emplace_back(model, mrs);
  fault::propagation_attribution_csv(prop_sets).save("table5_propagation.csv");
  std::cout << "[propagation roll-up written to table5_propagation.csv]\n";
  return 0;
}
