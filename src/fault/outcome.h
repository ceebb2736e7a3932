// Failure taxonomy of the paper (Section V, "Failure categorization").
#pragma once

#include <cstdint>
#include <string>

#include "machine/trap.h"
#include "obs/propagation.h"

namespace faultlab::fault {

enum class Outcome : std::uint8_t {
  Benign,        // ran to completion, output matches the golden run
  SDC,           // ran to completion, output differs (silent data corruption)
  Crash,         // trapped (the simulated OS killed the program)
  Hang,          // exceeded the timeout (instruction budget)
  NotActivated,  // the corrupted value was never read before being lost
};

const char* outcome_name(Outcome o) noexcept;

/// One fault-injection trial.
struct TrialRecord {
  Outcome outcome = Outcome::NotActivated;
  machine::TrapKind trap = machine::TrapKind::UnmappedAccess;  // when Crash
  std::uint64_t dynamic_target = 0;  // k: which dynamic instance was hit
  unsigned bit = 0;                  // which bit was flipped
  std::uint64_t static_site = 0;     // instruction id / code index
  bool injected = false;             // the target instance was reached
  // Flight-recorder fields (obs/events.h): resolved by the engines so the
  // event log and the attribution analytics can name what was hit and how
  // far the fault travelled. The opcode/function pointers borrow storage
  // owned by the engine's module/program, which outlives every consumer
  // (the scheduler emits events immediately; attribution runs in-process
  // on the ResultSet while the engines are alive).
  const char* site_opcode = nullptr;    // opcode name of the injected site
  const char* site_function = nullptr;  // function containing the site
  std::uint64_t trap_pc = 0;            // static trap location (Crash only)
  std::uint64_t inject_instruction = 0; // dynamic index of the injection
  std::uint64_t total_instructions = 0; // whole-run dynamic instructions
  /// Propagation distance: dynamic instructions between the injection and
  /// the end of the run. Zero when the trial never injected.
  std::uint64_t instructions_after_injection() const noexcept {
    return injected && total_instructions > inject_instruction
               ? total_instructions - inject_instruction
               : 0;
  }
  // Checkpoint-layer observability (not part of the paper's record; the
  // scheduler aggregates these into per-campaign snapshot hit rates and
  // mean restored-pages. They may vary with execution order — e.g. which
  // worker ran the previous same-window trial — which is why campaign CSVs
  // and record-equality checks exclude them).
  bool restored = false;             // trial resumed from a snapshot
  bool delta_restored = false;       // reset walked only the dirty set
  std::uint32_t restored_pages = 0;  // page-table entries rewritten
  // Phase split of the trial's wall time, as TrialCore::run_trial measures
  // it: snapshot lookup + restore, the run, outcome classification.
  std::uint64_t restore_ns = 0;
  std::uint64_t execute_ns = 0;
  std::uint64_t classify_ns = 0;
  /// Taint/divergence observability (obs/propagation.h): filled only when
  /// FAULTLAB_PROP armed a tracer for this trial. Like the checkpoint
  /// fields above, excluded from campaign CSVs and record-equality checks;
  /// it feeds the v2 event log and propagation_attribution_csv.
  obs::PropSummary prop;
};

/// Classifies a finished run against the golden output. `activated` and
/// `injected` come from the injector's tracking.
Outcome classify(bool injected, bool activated, bool trapped, bool timed_out,
                 const std::string& output, const std::string& golden);

}  // namespace faultlab::fault
