#include "common.h"

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "machine/dispatch.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "support/env.h"

namespace faultlab::benchx {

namespace {

/// ISO-8601 UTC timestamp, e.g. "2026-08-05T12:34:56Z".
std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string host_name() {
  char buf[256] = {0};
  if (gethostname(buf, sizeof buf - 1) != 0) return "unknown";
  return buf;
}

constexpr bool build_has_sanitizer() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

constexpr bool build_has_ndebug() {
#ifdef NDEBUG
  return true;
#else
  return false;
#endif
}

}  // namespace

std::vector<CompiledApp> compile_all_apps() {
  std::vector<CompiledApp> out;
  for (const auto& b : apps::all_benchmarks())
    out.push_back({b.name, driver::compile(b.source, b.name)});
  return out;
}

fault::SchedulerOptions default_scheduler_options(
    const fault::FaultModel& model) {
  fault::SchedulerOptions options;
  options.model = model;
  // FAULTLAB_THREADS pins the worker count (results are identical either
  // way; this exists so perf runs and CSV-diff checks are reproducible).
  options.threads = static_cast<std::size_t>(
      support::parse_env_u64("FAULTLAB_THREADS", 0));
  // With FAULTLAB_PROGRESS=1 the campaign monitor redraws its \r heartbeat;
  // these per-campaign lines would tear it, so they yield.
  if (!obs::progress_enabled()) {
    options.progress = [](const fault::SchedulerProgress& p) {
      if (p.completed == nullptr) return;
      char rate[32];
      std::snprintf(rate, sizeof rate, "%.0f",
                    p.completed->wall_seconds > 0.0
                        ? static_cast<double>(p.completed->trials.size()) /
                              p.completed->wall_seconds
                        : 0.0);
      std::cerr << "  [" << p.completed->app << " / " << p.completed->tool
                << " / " << ir::category_name(p.completed->category) << "] "
                << p.campaigns_done << "/" << p.campaigns_total
                << " campaigns (" << rate << " trials/s)\n";
    };
  }
  return options;
}

ExperimentRun run_experiment(const std::vector<CompiledApp>& apps,
                             const std::vector<ir::Category>& categories,
                             std::size_t trials,
                             const fault::FaultModel& model,
                             const fault::Model& fault_model,
                             std::uint64_t seed,
                             const fault::ExecConfig& exec) {
  fault::CampaignScheduler scheduler(default_scheduler_options(model));
  std::vector<std::unique_ptr<fault::InjectorEngine>> engines;
  for (const CompiledApp& app : apps) {
    engines.push_back(std::make_unique<fault::LlfiEngine>(
        app.program.module(), model, fault::CheckpointPolicy::from_env(),
        fault_model, exec));
    fault::InjectorEngine& llfi = *engines.back();
    engines.push_back(std::make_unique<fault::PinfiEngine>(
        app.program.program(), model, fault::CheckpointPolicy::from_env(),
        fault_model, exec));
    fault::InjectorEngine& pinfi = *engines.back();
    for (ir::Category category : categories) {
      fault::CampaignConfig cfg;
      cfg.app = app.name;
      cfg.category = category;
      cfg.trials = trials;
      cfg.seed = seed;
      scheduler.add(llfi, cfg);
      scheduler.add(pinfi, cfg);
    }
  }

  ExperimentRun out;
  for (fault::CampaignResult& r : scheduler.run())
    out.results.add(std::move(r));
  out.manifest = scheduler.manifest();
  out.seed = seed;
  out.exec = exec;
  // The engines die with this scope: fold their checkpoint counters and
  // phase times into the run record first.
  for (const auto& engine : engines) {
    out.checkpoints += engine->checkpoint_stats();
    out.phases += engine->phase_stats();
  }
  return out;
}

void print_banner(const std::string& what, std::size_t trials) {
  std::cout
      << "================================================================\n"
      << what << "\n"
      << "Reproduction of Wei et al., \"Quantifying the Accuracy of "
         "High-Level\nFault Injection Techniques for Hardware Faults\" "
         "(DSN 2014)\n"
      << "Trials per (app x tool x category): " << trials
      << "  (set FAULTLAB_TRIALS to change; the paper uses 1000)\n"
      << "================================================================\n";
}

void save_results(const fault::ResultSet& rs, const std::string& filename) {
  fault::results_csv(rs).save(filename);
  std::cout << "\n[results written to ./" << filename << "]\n";
}

void save_results(const ExperimentRun& run, const std::string& filename) {
  save_results(run.results, filename);
  std::string stem = filename;
  if (stem.size() > 4 && stem.compare(stem.size() - 4, 4, ".csv") == 0)
    stem.resize(stem.size() - 4);
  const std::string manifest_path = stem + ".manifest.csv";
  fault::manifest_csv(run.manifest).save(manifest_path);
  std::cout << "[run manifest written to ./" << manifest_path << "]\n";
  write_perf_entry(stem, run);
}

void write_perf_entry(const std::string& experiment,
                      const ExperimentRun& run) {
  static const char* const kPath = "BENCH_perf.json";
  std::size_t trials = 0;
  for (const fault::CampaignTiming& t : run.manifest.campaigns)
    trials += t.trials;
  const double wall = run.manifest.wall_seconds;
  const fault::CheckpointStats& cp = run.checkpoints;
  // A zero stride means checkpointing was off (FAULTLAB_CHECKPOINTS=0);
  // keep it under its own key so the manifest holds both sides of the
  // direct / checkpointed comparison across PRs.
  std::string key = cp.stride == 0 ? experiment + "_direct" : experiment;
  // Non-default dispatch runs get their own key (e.g.
  // "fig3_aggregate_switchdispatch"), so an interleaved A/B pair from one
  // process coexists in the manifest; threaded owns the plain key.
  if (run.exec.dispatch != machine::DispatchMode::Threaded)
    key += std::string("_") + machine::dispatch_mode_name(run.exec.dispatch) +
           "dispatch";
  // Propagation-traced runs pay the hooked slow path while taint is live;
  // keep them under their own key so the untraced baseline is never
  // overwritten by the traced leg.
  if (run.exec.trace_prop) key += "_prop";

  // One entry = one line, so the upsert below can merge without a JSON
  // parser: keep every other experiment's line, replace ours.
  std::ostringstream entry;
  entry << "  \"" << key << "\": {"
        << "\"wall_seconds\": " << wall << ", "
        << "\"profile_seconds\": " << run.manifest.profile_seconds << ", "
        << "\"trials\": " << trials << ", "
        << "\"trials_per_second\": " << (wall > 0.0 ? trials / wall : 0.0)
        << ", "
        << "\"threads\": " << run.manifest.threads << ", "
        << "\"seed\": " << run.seed << ", "
        << "\"snapshots\": " << cp.snapshots << ", "
        << "\"snapshot_stride\": " << cp.stride << ", "
        << "\"restored_trials\": " << cp.restored_trials << ", "
        << "\"snapshot_hit_rate\": " << cp.hit_rate() << ", "
        << "\"skipped_instructions\": " << cp.skipped_instructions << ", "
        << "\"delta_restores\": " << cp.delta_restores << ", "
        << "\"restored_pages\": " << cp.restored_pages << ", "
        << "\"mean_restored_pages\": " << cp.mean_restored_pages() << ", "
        << "\"dispatch_mode\": \""
        << obs::json_escape(run.manifest.dispatch_mode) << "\", "
        << "\"trace_decodes\": " << run.manifest.trace_decodes << ", "
        << "\"trace_hits\": " << run.manifest.trace_hits << ", "
        << "\"trace_invalidations\": " << run.manifest.trace_invalidations
        << ", "
        << "\"converged_trials\": " << cp.converged_trials << ", "
        << "\"converged_instructions\": " << cp.converged_instructions
        << ", "
        << "\"restore_seconds\": " << run.phases.restore_seconds << ", "
        << "\"execute_seconds\": " << run.phases.execute_seconds << ", "
        << "\"classify_seconds\": " << run.phases.classify_seconds << ", "
        << "\"timestamp\": \"" << obs::json_escape(utc_timestamp()) << "\", "
        << "\"hostname\": \"" << obs::json_escape(host_name()) << "\", "
        << "\"sanitizer\": " << (build_has_sanitizer() ? "true" : "false")
        << ", "
        << "\"ndebug\": " << (build_has_ndebug() ? "true" : "false") << ", "
        << "\"ci_target\": " << run.manifest.ci_target << ", "
        << "\"converged_campaigns\": "
        << [&] {
             std::size_t n = 0;
             for (const fault::CampaignTiming& t : run.manifest.campaigns)
               if (t.converged) ++n;
             return n;
           }()
        << ", "
        << "\"watchdog_flags\": "
        << [&] {
             std::uint64_t n = 0;
             for (const fault::CampaignTiming& t : run.manifest.campaigns)
               n += t.watchdog_flags;
             return n;
           }()
        << ", "
        << "\"campaigns\": {";
  bool first_campaign = true;
  for (const fault::CampaignTiming& t : run.manifest.campaigns) {
    const std::string campaign_key =
        t.app + "/" + t.tool + "/" + ir::category_name(t.category);
    entry << (first_campaign ? "" : ", ") << "\""
          << obs::json_escape(campaign_key) << "\": {"
          << "\"trials\": " << t.trials << ", "
          << "\"crash\": " << t.crash << ", "
          << "\"sdc\": " << t.sdc << ", "
          << "\"benign\": " << t.benign << ", "
          << "\"hang\": " << t.hang << ", "
          << "\"not_activated\": " << t.not_activated << ", "
          << "\"restored\": " << t.restored << ", "
          << "\"hit_rate\": " << t.hit_rate() << ", "
          << "\"delta_restores\": " << t.delta_restores << ", "
          << "\"mean_restored_pages\": " << t.mean_restored_pages << ", "
          << "\"p50_ms\": " << t.p50_ms << ", "
          << "\"p95_ms\": " << t.p95_ms << ", "
          << "\"p99_ms\": " << t.p99_ms << ", "
          << "\"converged\": " << (t.converged ? "true" : "false") << ", "
          << "\"ci_halfwidth\": " << t.ci_halfwidth << ", "
          << "\"watchdog_flags\": " << t.watchdog_flags << "}";
    first_campaign = false;
  }
  entry << "}}";

  std::vector<std::string> kept;
  {
    std::ifstream in(kPath);
    const std::string prefix = "  \"" + key + "\":";
    for (std::string line; std::getline(in, line);) {
      if (line.empty() || line[0] != ' ') continue;  // braces / garbage
      if (line.compare(0, prefix.size(), prefix) == 0) continue;
      if (!line.empty() && line.back() == ',') line.pop_back();
      kept.push_back(line);
    }
  }
  kept.push_back(entry.str());

  std::ofstream out(kPath, std::ios::trunc);
  out << "{\n";
  for (std::size_t i = 0; i < kept.size(); ++i)
    out << kept[i] << (i + 1 < kept.size() ? ",\n" : "\n");
  out << "}\n";
  std::cout << "[perf entry '" << key << "' written to ./" << kPath
            << "]\n";
}

}  // namespace faultlab::benchx
