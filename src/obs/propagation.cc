#include "obs/propagation.h"

#include <algorithm>
#include <bit>

#include "ir/instruction.h"

namespace faultlab::obs {

// ---------------------------------------------------------------------------
// VmPropTracer
// ---------------------------------------------------------------------------

void VmPropTracer::plant_root(const vm::DynValueId& id, std::uint64_t pos) {
  if (!rooted_) {
    rooted_ = true;
    root_pos_ = pos;
  }
  taint_[id] = Taint{0, false};
  summary_.peak_tainted_values = std::max<std::uint32_t>(
      summary_.peak_tainted_values, static_cast<std::uint32_t>(taint_.size()));
}

void VmPropTracer::on_instruction(std::uint64_t pos,
                                  const ir::Instruction& instr) {
  if (!rooted_) return;
  // Phi groups keep several users in flight (reads for phi i interleave
  // with on_instruction for phi i+1, results land at group end); any other
  // opcode starts a fresh step.
  if (instr.opcode() != ir::Opcode::Phi && !pending_.empty()) pending_.clear();
  if (!summary_.diverged && journal_ != nullptr) {
    if (pos > journal_->pc.size() ||
        journal_->pc[pos - 1] != vm_pc_fingerprint(instr)) {
      summary_.diverged = true;
      summary_.divergence_pc = instr.id();
      summary_.divergence_offset = pos > root_pos_ ? pos - root_pos_ : 0;
    }
  }
}

void VmPropTracer::merge_pending(const ir::Instruction* user,
                                 std::uint32_t depth) {
  auto [it, inserted] = pending_.emplace(user, depth);
  if (!inserted && depth > it->second) it->second = depth;
}

void VmPropTracer::note_tainted_read(const ir::Instruction& user,
                                     std::uint32_t depth) {
  ++summary_.tainted_reads;
  switch (user.opcode()) {
    case ir::Opcode::Br:
      // read_operand is only reached for conditional branches.
      ++summary_.tainted_branches;
      break;
    case ir::Opcode::Ret:
      // The value crosses frames: the caller's call-site result is defined
      // from inside the Ret step, before the next on_instruction.
      ret_pending_ = true;
      ret_depth_ = std::max(ret_depth_, depth);
      break;
    default:
      break;
  }
  merge_pending(&user, depth);
}

void VmPropTracer::on_operand_read(const vm::DynValueId& id,
                                   const ir::Instruction& user) {
  if (!rooted_ || taint_.empty()) return;
  const auto it = taint_.find(id);
  if (it == taint_.end()) return;
  it->second.read = true;
  note_tainted_read(user, it->second.depth);
}

void VmPropTracer::on_argument_read(std::uint64_t frame, unsigned index,
                                    const ir::Instruction& user) {
  (void)index;
  if (!rooted_ || arg_taint_.empty()) return;
  const auto it = arg_taint_.find(frame);
  if (it == arg_taint_.end()) return;
  note_tainted_read(user, it->second);
}

void VmPropTracer::on_call(const ir::Instruction& call,
                           std::uint64_t callee_frame) {
  if (!rooted_) return;
  const auto it = pending_.find(&call);
  if (it == pending_.end()) return;
  // Coarse cross-frame hand-off: any tainted actual taints every formal
  // argument read of the callee frame at the actual's depth.
  arg_taint_[callee_frame] = it->second;
}

void VmPropTracer::on_result(const vm::DynValueId& id) {
  if (!rooted_) return;
  bool tainted = false;
  std::uint32_t src = 0;
  if (const auto it = pending_.find(id.def); it != pending_.end()) {
    tainted = true;
    src = it->second;
    pending_.erase(it);
  }
  if (ret_pending_ && id.def->opcode() == ir::Opcode::Call) {
    tainted = true;
    src = std::max(src, ret_depth_);
    ret_pending_ = false;
    ret_depth_ = 0;
  }
  if (mem_user_ == id.def) {
    tainted = true;
    src = std::max(src, mem_depth_);
    mem_user_ = nullptr;
  }
  const auto it = taint_.find(id);
  if (tainted) {
    const std::uint32_t depth = src + 1;
    if (it == taint_.end()) {
      taint_.emplace(id, Taint{depth, false});
    } else {
      it->second = Taint{depth, false};
    }
    ++summary_.fanout;
    summary_.depth = std::max(summary_.depth, depth);
    summary_.peak_tainted_values =
        std::max<std::uint32_t>(summary_.peak_tainted_values,
                                static_cast<std::uint32_t>(taint_.size()));
  } else if (it != taint_.end()) {
    // Untainted redefinition kills the taint: a masking event (the `read`
    // flag distinguishes values that propagated first from ones masked
    // unread, which both count — the fault's influence ends either way).
    ++summary_.masking_events;
    taint_.erase(it);
  }
}

void VmPropTracer::on_memory_access(const ir::Instruction& instr,
                                    std::uint64_t addr, unsigned size,
                                    bool is_store) {
  if (!rooted_) return;
  if (is_store) {
    const auto it = pending_.find(&instr);
    if (it == pending_.end()) return;  // neither value nor address tainted
    shadow_.taint(addr, size, it->second);
    ++summary_.tainted_stores;
    summary_.peak_tainted_pages = std::max<std::uint32_t>(
        summary_.peak_tainted_pages, static_cast<std::uint32_t>(shadow_.pages()));
    return;
  }
  std::uint32_t depth = 0;
  if (!shadow_.tainted(addr, size, &depth)) return;
  ++summary_.store_load_edges;
  // The load's on_result follows immediately; hand it the memory taint.
  mem_user_ = &instr;
  mem_depth_ = depth;
}

PropSummary VmPropTracer::summary() const noexcept {
  PropSummary s = summary_;
  s.traced = true;
  return s;
}

// ---------------------------------------------------------------------------
// SimPropTracer
// ---------------------------------------------------------------------------

void SimPropTracer::taint_slot(unsigned slot, std::uint32_t depth) noexcept {
  taint_mask_ |= 1ULL << slot;
  slot_depth_[slot] = depth;
}

void SimPropTracer::note_peaks() noexcept {
  summary_.peak_tainted_values = std::max<std::uint32_t>(
      summary_.peak_tainted_values,
      static_cast<std::uint32_t>(std::popcount(taint_mask_)));
}

void SimPropTracer::plant_root_gpr(unsigned reg, std::uint64_t pos) {
  if (!rooted_) {
    rooted_ = true;
    root_pos_ = pos;
  }
  taint_slot(reg, 0);
  note_peaks();
}

void SimPropTracer::plant_root_xmm(unsigned reg, std::uint64_t pos) {
  if (!rooted_) {
    rooted_ = true;
    root_pos_ = pos;
  }
  taint_slot(16 + reg, 0);
  note_peaks();
}

void SimPropTracer::plant_root_flags(std::uint64_t pos) {
  if (!rooted_) {
    rooted_ = true;
    root_pos_ = pos;
  }
  taint_slot(kFlagsSlot, 0);
  note_peaks();
}

void SimPropTracer::on_before(std::uint64_t pos, std::size_t index,
                              const x86::Inst& inst) {
  if (!rooted_) return;
  if (!summary_.diverged && journal_ != nullptr) {
    if (pos > journal_->pc.size() ||
        journal_->pc[pos - 1] != sim_pc_fingerprint(index)) {
      summary_.diverged = true;
      summary_.divergence_pc = index;
      summary_.divergence_offset = pos > root_pos_ ? pos - root_pos_ : 0;
    }
  }

  // Structural source scan: explicit register reads (includes address
  // registers of memory operands) plus the flags register for jcc/setcc/
  // cmov. Taint transfer commits in commit() after the instruction
  // executes; on_memory may widen the source set in between.
  reads_.clear();
  x86::collect_reads(inst, reads_);
  bool src_tainted = false;
  std::uint32_t src_depth = 0;
  for (const x86::RegId reg : reads_) {
    const int slot = slot_of(reg);
    if (slot < 0 || !slot_tainted(static_cast<unsigned>(slot))) continue;
    src_tainted = true;
    src_depth = std::max(src_depth, slot_depth_[slot]);
    ++summary_.tainted_reads;
  }
  if (x86::reads_flags(inst) && slot_tainted(kFlagsSlot)) {
    src_tainted = true;
    src_depth = std::max(src_depth, slot_depth_[kFlagsSlot]);
    ++summary_.tainted_reads;
    if (inst.op == x86::Op::Jcc) ++summary_.tainted_branches;
  }

  const x86::RegId dest = x86::dest_reg(inst);
  pending_valid_ = true;
  pending_dest_ = dest == x86::kNoReg ? -1 : slot_of(dest);
  pending_src_tainted_ = src_tainted;
  pending_src_depth_ = src_depth;
  pending_fully_overwrites_ = x86::dest_fully_overwrites(inst);
  pending_writes_flags_ = x86::writes_flags(inst);
}

void SimPropTracer::on_memory(const x86::Inst& inst, std::uint64_t addr,
                              unsigned size, bool is_store) {
  (void)inst;
  if (!rooted_ || !pending_valid_) return;
  if (is_store) {
    // Stored value and address registers were scanned by on_before; the
    // store carries the deepest tainted source into memory verbatim.
    if (!pending_src_tainted_) return;
    shadow_.taint(addr, size, pending_src_depth_);
    ++summary_.tainted_stores;
    summary_.peak_tainted_pages = std::max<std::uint32_t>(
        summary_.peak_tainted_pages, static_cast<std::uint32_t>(shadow_.pages()));
    return;
  }
  std::uint32_t depth = 0;
  if (!shadow_.tainted(addr, size, &depth)) return;
  ++summary_.store_load_edges;
  pending_src_tainted_ = true;
  pending_src_depth_ = std::max(pending_src_depth_, depth);
}

void SimPropTracer::commit() {
  if (!rooted_ || !pending_valid_) return;
  pending_valid_ = false;
  if (pending_writes_flags_) {
    if (pending_src_tainted_) {
      taint_slot(kFlagsSlot, pending_src_depth_ + 1);
      ++summary_.fanout;
      summary_.depth = std::max(summary_.depth, pending_src_depth_ + 1);
    } else if (slot_tainted(kFlagsSlot)) {
      ++summary_.masking_events;
      untaint_slot(kFlagsSlot);
    }
  }
  if (pending_dest_ >= 0) {
    const auto slot = static_cast<unsigned>(pending_dest_);
    if (pending_src_tainted_) {
      taint_slot(slot, pending_src_depth_ + 1);
      ++summary_.fanout;
      summary_.depth = std::max(summary_.depth, pending_src_depth_ + 1);
    } else if (slot_tainted(slot) && pending_fully_overwrites_) {
      ++summary_.masking_events;
      untaint_slot(slot);
    }
  }
  note_peaks();
}

PropSummary SimPropTracer::summary() const noexcept {
  PropSummary s = summary_;
  s.traced = true;
  return s;
}

}  // namespace faultlab::obs
