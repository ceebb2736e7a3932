// Fault-propagation tracing — per-trial taint/divergence observability.
//
// The attribution layer (fault/attribution.h) says *which* mapping classes
// the LLFI-vs-PINFI crash gap concentrates in; this layer observes *why*:
// how the flipped bit flows through def-use chains, when it gets masked,
// and where the faulty run's control flow first leaves the golden path.
// At injection the corrupted destination becomes the taint root; from then
// on every instruction the engines deliver through their hooked slow path
// updates shadow taint state (per-register bitmask over the architectural
// register file for PINFI, a dynamic-SSA-value map for LLFI, and a shared
// page-granular machine::PageShadowSet over memory) and compares the
// program counter against a golden-run journal. The per-trial result is a
// PropSummary: propagation depth and fan-out, masking events, store-to-load
// edges, peak tainted footprint, and the first control-flow divergence
// point (static pc + dynamic offset after injection).
//
// Opt-in per engine via fault::ExecConfig::trace_prop (which
// ExecConfig::from_env() reads from FAULTLAB_PROP=1), with the same
// inert-when-disabled discipline as the event log: the disabled path is one
// bool branch at trial setup — no journal, no shadow state, no hook
// retention. Tracing never changes results: the
// tracer only *reads* the callbacks both injectors already receive, and
// keeping the injection hook attached after activation is exactly the
// (slower) path persistent fault models always take — the equivalence
// harness (Seeds/RandomContexts.StrategiesAgreeSideBySide) pins every
// trial record identical with the tracer on and off.
// Once the fault's own work is done and the tracer is quiet() (no live
// taint anywhere), no counter can move again: the hook then detaches if
// the run has diverged, or settles (ExecHook/SimHook::settled) and keeps
// only the journal compare, which lets the executor stop on exact golden
// convergence.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "machine/memory.h"
#include "vm/interpreter.h"
#include "x86/isa.h"

namespace faultlab::obs {

/// Aggregate taint/divergence statistics of one traced trial. Carried on
/// fault::TrialRecord (excluded from results CSVs, like the checkpoint
/// observability fields) and serialized additively as event-schema v2.
struct PropSummary {
  bool traced = false;  ///< tracer was armed for this trial
  /// Longest def-use chain from the taint root (root = depth 0).
  std::uint32_t depth = 0;
  /// Dynamic tainted definitions derived from the root (fan-out).
  std::uint32_t fanout = 0;
  /// Reads of tainted values/registers after injection.
  std::uint32_t tainted_reads = 0;
  /// Tainted values/registers overwritten by untainted results.
  std::uint32_t masking_events = 0;
  /// Loads that picked taint back up from a tainted page.
  std::uint32_t store_load_edges = 0;
  /// Stores that carried taint into memory.
  std::uint32_t tainted_stores = 0;
  /// Conditional branches whose input (condition/flags) was tainted.
  std::uint32_t tainted_branches = 0;
  /// Peak simultaneously-tainted SSA values (LLFI) / registers (PINFI).
  std::uint32_t peak_tainted_values = 0;
  /// Peak tainted shadow-memory pages.
  std::uint32_t peak_tainted_pages = 0;
  bool diverged = false;  ///< pc stream left the golden journal
  /// Static location of the first divergent instruction (IR instruction
  /// id for LLFI, code index for PINFI) — deterministic across runs.
  std::uint64_t divergence_pc = 0;
  /// Dynamic instructions between injection and first divergence.
  std::uint64_t divergence_offset = 0;

  bool operator==(const PropSummary&) const = default;
};

/// Golden-run pc journal: one 32-bit fingerprint per dynamic instruction,
/// captured once per engine (by its one fault-free run, the profiling run)
/// when tracing is enabled.
/// Fingerprints are only ever compared within the capturing process.
struct GoldenJournal {
  std::vector<std::uint32_t> pc;
  bool empty() const noexcept { return pc.empty(); }
};

/// In-process fingerprint of an IR instruction (pointer fold; stable for
/// the lifetime of the module, never serialized).
inline std::uint32_t vm_pc_fingerprint(const ir::Instruction& instr) noexcept {
  const auto p = reinterpret_cast<std::uintptr_t>(&instr);
  return static_cast<std::uint32_t>((p >> 4) ^ (p >> 36));
}

/// Fingerprint of an x86 instruction: its code index.
inline std::uint32_t sim_pc_fingerprint(std::size_t index) noexcept {
  return static_cast<std::uint32_t>(index);
}

/// IR-level taint tracker, driven by the LLFI injection hook's ExecHook
/// callbacks. Positions (`pos`) are absolute 1-based dynamic instruction
/// indices aligned with the golden journal, so trials resumed from a
/// checkpoint trace identically to from-scratch runs.
class VmPropTracer {
 public:
  /// `journal` may be null (no divergence detection). Not owned.
  explicit VmPropTracer(const GoldenJournal* journal) : journal_(journal) {}

  bool rooted() const noexcept { return rooted_; }
  /// The pc stream has left the golden journal (divergence fields final).
  bool diverged() const noexcept { return summary_.diverged; }
  /// Rooted with no live taint anywhere: no tainted value, argument,
  /// in-flight operand, return value, load result or shadow page. Only a
  /// new root can change any counter of a quiet tracer again.
  bool quiet() const noexcept {
    return rooted_ && taint_.empty() && arg_taint_.empty() &&
           pending_.empty() && shadow_.pages() == 0 && !ret_pending_ &&
           mem_user_ == nullptr;
  }

  /// Injection moment: the corrupted SSA def becomes the taint root.
  /// Re-fires (persistent/intermittent models) re-root the same trial;
  /// the divergence offset stays relative to the first injection.
  void plant_root(const vm::DynValueId& id, std::uint64_t pos);

  void on_instruction(std::uint64_t pos, const ir::Instruction& instr);
  void on_operand_read(const vm::DynValueId& id, const ir::Instruction& user);
  void on_argument_read(std::uint64_t frame, unsigned index,
                        const ir::Instruction& user);
  void on_call(const ir::Instruction& call, std::uint64_t callee_frame);
  void on_result(const vm::DynValueId& id);
  void on_memory_access(const ir::Instruction& instr, std::uint64_t addr,
                        unsigned size, bool is_store);

  /// Snapshot of the statistics so far (traced = true).
  PropSummary summary() const noexcept;

 private:
  struct Taint {
    std::uint32_t depth = 0;
    bool read = false;
  };
  struct IdHash {
    std::size_t operator()(const vm::DynValueId& id) const noexcept {
      std::uint64_t h = id.frame * 0x9e3779b97f4a7c15ULL;
      h ^= reinterpret_cast<std::uintptr_t>(id.def) + (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };

  void merge_pending(const ir::Instruction* user, std::uint32_t depth);
  void note_tainted_read(const ir::Instruction& user, std::uint32_t depth);

  const GoldenJournal* journal_;
  PropSummary summary_;
  bool rooted_ = false;
  std::uint64_t root_pos_ = 0;

  std::unordered_map<vm::DynValueId, Taint, IdHash> taint_;
  machine::PageShadowSet shadow_;
  /// Tainted callee-frame arguments: frame id -> source depth (coarse:
  /// one depth per frame, any tainted actual taints every formal read).
  std::unordered_map<std::uint64_t, std::uint32_t> arg_taint_;
  /// Source-operand taint gathered for in-flight users of the current
  /// step (phi groups keep several in flight).
  std::unordered_map<const ir::Instruction*, std::uint32_t> pending_;
  /// Tainted return value travelling from a Ret read to the call-site
  /// result definition in the caller frame.
  bool ret_pending_ = false;
  std::uint32_t ret_depth_ = 0;
  /// Taint picked up by the current load's memory read, consumed by its
  /// immediately-following on_result.
  const ir::Instruction* mem_user_ = nullptr;
  std::uint32_t mem_depth_ = 0;
};

/// Assembly-level taint tracker, driven by the PINFI injection hook.
/// Register shadow state is a bitmask + depth array over the simulated
/// register file (16 GPRs, 16 XMM low lanes, rflags); memory shadow is
/// page-granular. Taint transfer for one instruction is computed
/// structurally in on_before (pre-execution), optionally widened by
/// on_memory (exact pre-execution effective addresses), and committed in
/// on_after — matching the simulator's hook delivery order.
class SimPropTracer {
 public:
  explicit SimPropTracer(const GoldenJournal* journal) : journal_(journal) {}

  bool rooted() const noexcept { return rooted_; }
  /// The pc stream has left the golden journal (divergence fields final).
  bool diverged() const noexcept { return summary_.diverged; }
  /// Rooted with no tainted register, flag or shadow page. Only a new root
  /// can change any counter of a quiet tracer again.
  bool quiet() const noexcept {
    return rooted_ && taint_mask_ == 0 && shadow_.pages() == 0;
  }

  void plant_root_gpr(unsigned reg, std::uint64_t pos);
  void plant_root_xmm(unsigned reg, std::uint64_t pos);
  void plant_root_flags(std::uint64_t pos);

  void on_before(std::uint64_t pos, std::size_t index, const x86::Inst& inst);
  void on_memory(const x86::Inst& inst, std::uint64_t addr, unsigned size,
                 bool is_store);
  /// Commits the pending register/flags taint transfer (call from
  /// on_after, i.e. once the instruction has executed).
  void commit();

  /// Snapshot of the statistics so far (traced = true).
  PropSummary summary() const noexcept;

 private:
  // Shadow slots: 0..15 GPRs, 16..31 XMM low lanes, 32 rflags.
  static constexpr unsigned kFlagsSlot = 32;
  static constexpr unsigned kNumSlots = 33;

  static int slot_of(x86::RegId reg) noexcept {
    if (x86::is_phys_gpr(reg)) return static_cast<int>(reg);
    if (x86::is_phys_xmm(reg))
      return static_cast<int>(16 + (reg - x86::kXmmBase));
    return -1;
  }
  bool slot_tainted(unsigned slot) const noexcept {
    return (taint_mask_ >> slot) & 1;
  }
  void taint_slot(unsigned slot, std::uint32_t depth) noexcept;
  void untaint_slot(unsigned slot) noexcept { taint_mask_ &= ~(1ULL << slot); }
  void note_peaks() noexcept;

  const GoldenJournal* journal_;
  PropSummary summary_;
  bool rooted_ = false;
  std::uint64_t root_pos_ = 0;

  std::uint64_t taint_mask_ = 0;  ///< bit per shadow slot
  std::uint32_t slot_depth_[kNumSlots] = {};
  machine::PageShadowSet shadow_;
  std::vector<x86::RegId> reads_;  ///< scratch for collect_reads

  // Pending transfer computed by on_before, committed by commit().
  bool pending_valid_ = false;
  int pending_dest_ = -1;
  bool pending_src_tainted_ = false;
  std::uint32_t pending_src_depth_ = 0;
  bool pending_fully_overwrites_ = false;
  bool pending_writes_flags_ = false;
};

}  // namespace faultlab::obs
