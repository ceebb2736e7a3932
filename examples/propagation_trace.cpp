// Propagation tracing: follow sampled bit flips through a program — the
// LLFI capability the paper's Section III describes ("enables tracing the
// propagation of the fault among instructions in the program").
//
//   ./build/examples/propagation_trace [app] [category] [samples]
//
// Each sampled injection runs as an ordinary LLFI trial with the
// propagation tracer armed (obs/propagation.h, the same tracer
// ExecConfig::trace_prop — FAULTLAB_PROP=1 — turns on for whole campaigns). The table shows how far
// the corruption spread (def-use depth and fan-out, memory, branches) and
// whether and how soon the run left the golden control flow — the raw
// material for answering "why did this particular fault become an SDC
// while that one stayed benign?"
#include <cstdlib>
#include <iostream>
#include <string>

#include "apps/apps.h"
#include "cli_args.h"
#include "driver/pipeline.h"
#include "fault/llfi.h"
#include "obs/propagation.h"
#include "support/rng.h"
#include "support/table.h"

int main(int argc, char** argv) {
  using namespace faultlab;

  const std::string app = argc > 1 ? argv[1] : "mcf";
  const apps::Benchmark* benchmark = examples::find_app(app);
  if (benchmark == nullptr) return 2;
  const auto category =
      ir::category_from_name(argc > 2 ? argv[2] : "all");
  if (!category) {
    std::cerr << "error: unknown category '" << argv[2] << "'\n";
    return 2;
  }
  std::uint64_t samples = 8;
  if (!examples::count_arg(argc, argv, 3, "samples", &samples)) return 2;

  driver::CompiledProgram prog = driver::compile(benchmark->source, app);
  // The engine traces from its golden run on, which captures the journal
  // that divergence is measured against.
  fault::ExecConfig exec = fault::ExecConfig::from_env();
  exec.trace_prop = true;
  fault::LlfiEngine llfi(prog.module(), {}, fault::CheckpointPolicy::from_env(),
                         fault::Model::from_env(), exec);
  const std::uint64_t n = llfi.profile_all()[*category];
  std::cout << "Tracing " << samples << " injections into '" << app
            << "' (category " << ir::category_name(*category) << ", " << n
            << " dynamic targets)\n\n";
  if (n == 0) return 0;

  TextTable table({"k", "bit", "outcome", "depth", "fanout", "tainted stores",
                   "store->load", "tainted branches", "peak values",
                   "diverged/offset"});
  Rng rng(7);
  for (std::size_t s = 0; s < samples; ++s) {
    const std::uint64_t k = rng.range(1, n);
    const fault::TrialRecord r = llfi.inject(*category, k, rng);
    const obs::PropSummary& p = r.prop;
    table.add_row({std::to_string(k), std::to_string(r.bit),
                   fault::outcome_name(r.outcome), std::to_string(p.depth),
                   std::to_string(p.fanout), std::to_string(p.tainted_stores),
                   std::to_string(p.store_load_edges),
                   std::to_string(p.tainted_branches),
                   std::to_string(p.peak_tainted_values),
                   p.diverged ? "yes/" + std::to_string(p.divergence_offset)
                              : std::string("no")});
  }
  std::cout << table.to_string();
  std::cout << "\nReading: depth and fanout measure how far the corrupted "
               "value spread through\ndef-use chains; tainted stores and "
               "store->load edges show it travelling through\nmemory; a "
               "diverged run left the golden control flow that many "
               "instructions\nafter the injection.\n";
  return 0;
}
