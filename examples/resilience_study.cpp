// Resilience study: how a developer uses FaultLab the way the paper
// intends LLFI to be used — estimate an application's SDC vulnerability
// per instruction category, then sanity-check the high-level numbers
// against assembly-level injection (the paper's core question).
//
//   ./build/examples/resilience_study [app] [trials]
//   app defaults to libquantum; trials to 80.
#include <cstdlib>
#include <iostream>

#include "apps/apps.h"
#include "cli_args.h"
#include "driver/pipeline.h"
#include "fault/campaign.h"
#include "fault/llfi.h"
#include "fault/pinfi.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace faultlab;

  const std::string app = argc > 1 ? argv[1] : "libquantum";
  const apps::Benchmark* benchmark = examples::find_app(app);
  if (benchmark == nullptr) return 2;
  std::uint64_t trials = 80;
  if (!examples::count_arg(argc, argv, 2, "trials", &trials)) return 2;

  std::cout << "Resilience study of '" << app << "' (" << trials
            << " trials per category)\n\n";

  driver::CompiledProgram prog = driver::compile(benchmark->source, app);
  fault::LlfiEngine llfi(prog.module());
  fault::PinfiEngine pinfi(prog.program());

  TextTable table({"Category", "LLFI SDC", "LLFI crash", "PINFI SDC",
                   "PINFI crash", "SDC CIs overlap"});
  for (ir::Category category : ir::kAllCategories) {
    fault::CampaignConfig cfg;
    cfg.app = app;
    cfg.category = category;
    cfg.trials = trials;
    const fault::CampaignResult l = fault::run_campaign(llfi, cfg);
    const fault::CampaignResult p = fault::run_campaign(pinfi, cfg);

    auto pct = [](const Proportion& pr) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.1f%% ±%.1f", pr.percent(),
                    pr.margin95() * 100.0);
      return std::string(buf);
    };
    const bool both = l.activated() > 0 && p.activated() > 0;
    table.add_row({ir::category_name(category),
                   both ? pct(l.sdc_rate()) : "-",
                   both ? pct(l.crash_rate()) : "-",
                   both ? pct(p.sdc_rate()) : "-",
                   both ? pct(p.crash_rate()) : "-",
                   both ? (Proportion::overlap95(l.sdc_rate(), p.sdc_rate())
                               ? "yes"
                               : "NO")
                        : "-"});
  }
  std::cout << table.to_string();

  std::cout << "\nReading: if the SDC columns agree (the paper's Figure 4 "
               "result), the cheap\nhigh-level injector is good enough for "
               "SDC studies of this program; the crash\ncolumns are "
               "expected to diverge (the paper's Table V result).\n";
  return 0;
}
