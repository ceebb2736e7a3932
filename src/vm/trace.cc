#include "vm/trace.h"

#include <algorithm>

#include "ir/constant.h"
#include "machine/dispatch.h"
#include "machine/runtime.h"
#include "support/bitutil.h"

namespace faultlab::vm {

namespace {

using ir::Opcode;

std::uint64_t type_mask(const ir::Type* t) {
  return faultlab::low_mask(t->register_bits());
}

}  // namespace

TraceCache::TraceCache(const machine::GlobalLayout& layout)
    : layout_(layout) {}

TraceCache::~TraceCache() {
  if (decoded_ != 0)
    machine::dispatch_counters().decoded_blocks.fetch_sub(
        decoded_, std::memory_order_relaxed);
}

TraceFunction& TraceCache::function(const ir::Function& fn) {
  auto it = functions_.find(&fn);
  if (it != functions_.end()) return *it->second;

  auto tf = std::make_unique<TraceFunction>();
  tf->fn = &fn;
  tf->num_instructions = fn.num_instructions();
  // Same walk as the slow path's frame prologue: allocas in program order,
  // each aligned then appended, the whole frame rounded to 16 bytes.
  std::uint64_t frame_size = 0;
  for (const auto& bb : fn.blocks()) {
    for (const auto& instr : bb->instructions()) {
      if (auto* al = dynamic_cast<const ir::AllocaInst*>(instr.get())) {
        const auto align =
            std::max<std::uint64_t>(al->allocated_type()->alignment(), 1);
        frame_size = (frame_size + align - 1) / align * align;
        frame_size += al->allocated_type()->size_in_bytes();
        tf->allocas.push_back(
            {al->id(), align, al->allocated_type()->size_in_bytes()});
      }
    }
  }
  tf->frame_size = (frame_size + 15) / 16 * 16;

  tf->blocks.resize(fn.num_blocks());
  tf->block_index.reserve(fn.num_blocks());
  for (std::size_t i = 0; i < fn.num_blocks(); ++i) {
    tf->blocks[i].block = fn.block(i);
    tf->block_index.emplace(fn.block(i), static_cast<std::uint32_t>(i));
  }
  return *functions_.emplace(&fn, std::move(tf)).first->second;
}

TraceBlock* TraceCache::block(TraceFunction& tf, const ir::BasicBlock* bb) {
  TraceBlock* tb = tf.slot_for(bb);
  if (tb == nullptr) return nullptr;
  if (tb->state == TraceBlock::State::Empty) decode(tf, *tb);
  return tb->state == TraceBlock::State::Ready ? tb : nullptr;
}

namespace {

/// Pre-resolves one operand read. Mirrors Impl::read_operand exactly for
/// the hook-free case (the fast path never runs with a live hook).
VSlot resolve_slot(const machine::GlobalLayout& layout, const ir::Value* v) {
  VSlot slot;
  switch (v->vkind()) {
    case ir::ValueKind::ConstantInt:
      slot.imm = static_cast<const ir::ConstantInt*>(v)->raw();
      return slot;
    case ir::ValueKind::ConstantDouble:
      slot.imm = bits_of(static_cast<const ir::ConstantDouble*>(v)->value());
      return slot;
    case ir::ValueKind::ConstantNull:
      slot.imm = 0;
      return slot;
    case ir::ValueKind::GlobalVariable:
      slot.imm = layout.address_of(static_cast<const ir::GlobalVariable*>(v));
      return slot;
    case ir::ValueKind::Argument:
      slot.kind = VSlot::Kind::Arg;
      slot.index = static_cast<const ir::Argument*>(v)->index();
      return slot;
    case ir::ValueKind::Instruction:
      slot.kind = VSlot::Kind::Reg;
      slot.index = static_cast<const ir::Instruction*>(v)->id();
      return slot;
  }
  return slot;
}

VOp icmp_op(ir::ICmpPred p) {
  switch (p) {
    case ir::ICmpPred::EQ: return VOp::IcmpEq;
    case ir::ICmpPred::NE: return VOp::IcmpNe;
    case ir::ICmpPred::SLT: return VOp::IcmpSlt;
    case ir::ICmpPred::SLE: return VOp::IcmpSle;
    case ir::ICmpPred::SGT: return VOp::IcmpSgt;
    case ir::ICmpPred::SGE: return VOp::IcmpSge;
    case ir::ICmpPred::ULT: return VOp::IcmpUlt;
    case ir::ICmpPred::ULE: return VOp::IcmpUle;
    case ir::ICmpPred::UGT: return VOp::IcmpUgt;
    case ir::ICmpPred::UGE: return VOp::IcmpUge;
  }
  return VOp::IcmpEq;
}

VOp fcmp_op(ir::FCmpPred p) {
  switch (p) {
    case ir::FCmpPred::OEQ: return VOp::FcmpOeq;
    case ir::FCmpPred::ONE: return VOp::FcmpOne;
    case ir::FCmpPred::OLT: return VOp::FcmpOlt;
    case ir::FCmpPred::OLE: return VOp::FcmpOle;
    case ir::FCmpPred::OGT: return VOp::FcmpOgt;
    case ir::FCmpPred::OGE: return VOp::FcmpOge;
  }
  return VOp::FcmpOeq;
}

VOp int_binary_op(Opcode op) {
  switch (op) {
    case Opcode::Add: return VOp::Add;
    case Opcode::Sub: return VOp::Sub;
    case Opcode::Mul: return VOp::Mul;
    case Opcode::SDiv: return VOp::SDiv;
    case Opcode::UDiv: return VOp::UDiv;
    case Opcode::SRem: return VOp::SRem;
    case Opcode::URem: return VOp::URem;
    case Opcode::And: return VOp::And;
    case Opcode::Or: return VOp::Or;
    case Opcode::Xor: return VOp::Xor;
    case Opcode::Shl: return VOp::Shl;
    case Opcode::LShr: return VOp::LShr;
    case Opcode::AShr: return VOp::AShr;
    default: return VOp::Pad;
  }
}

VOp fp_binary_op(Opcode op) {
  switch (op) {
    case Opcode::FAdd: return VOp::FAdd;
    case Opcode::FSub: return VOp::FSub;
    case Opcode::FMul: return VOp::FMul;
    case Opcode::FDiv: return VOp::FDiv;
    default: return VOp::Pad;
  }
}

}  // namespace

void TraceCache::decode(TraceFunction& tf, TraceBlock& tb) {
  const ir::BasicBlock& bb = *tb.block;
  tb.uops.assign(bb.size(), VUOp{});
  bool ok = true;

  for (std::size_t i = 0; i < bb.size() && ok; ++i) {
    const ir::Instruction& instr = *bb.instr(i);
    VUOp& u = tb.uops[i];
    const Opcode op = instr.opcode();

    if (ir::is_int_binary(op)) {
      u.op = int_binary_op(op);
      u.bits = static_cast<std::uint8_t>(instr.type()->int_bits());
      u.imm = faultlab::low_mask(instr.type()->int_bits());  // operand mask
      u.mask = type_mask(instr.type());
      u.dst = instr.id();
      u.a = resolve_slot(layout_, instr.operand(0));
      u.b = resolve_slot(layout_, instr.operand(1));
      continue;
    }
    if (ir::is_fp_binary(op)) {
      u.op = fp_binary_op(op);
      u.mask = type_mask(instr.type());
      u.dst = instr.id();
      u.a = resolve_slot(layout_, instr.operand(0));
      u.b = resolve_slot(layout_, instr.operand(1));
      continue;
    }

    switch (op) {
      case Opcode::ICmp: {
        const auto& cmp = static_cast<const ir::ICmpInst&>(instr);
        u.op = icmp_op(cmp.predicate());
        u.bits = static_cast<std::uint8_t>(cmp.lhs()->type()->register_bits());
        u.imm = faultlab::low_mask(u.bits);
        u.mask = type_mask(instr.type());
        u.dst = instr.id();
        u.a = resolve_slot(layout_, cmp.lhs());
        u.b = resolve_slot(layout_, cmp.rhs());
        break;
      }
      case Opcode::FCmp: {
        const auto& cmp = static_cast<const ir::FCmpInst&>(instr);
        u.op = fcmp_op(cmp.predicate());
        u.mask = type_mask(instr.type());
        u.dst = instr.id();
        u.a = resolve_slot(layout_, cmp.lhs());
        u.b = resolve_slot(layout_, cmp.rhs());
        break;
      }
      case Opcode::Trunc:
      case Opcode::Bitcast:
      case Opcode::PtrToInt:
      case Opcode::IntToPtr:
        u.op = VOp::MaskCast;
        u.mask = type_mask(instr.type());
        u.dst = instr.id();
        u.a = resolve_slot(layout_, instr.operand(0));
        break;
      case Opcode::ZExt:
        // eval returns v & mask(from); set_result masks with mask(to):
        // one pre-folded AND covers both.
        u.op = VOp::MaskCast;
        u.mask = type_mask(instr.operand(0)->type()) & type_mask(instr.type());
        u.dst = instr.id();
        u.a = resolve_slot(layout_, instr.operand(0));
        break;
      case Opcode::SExt:
        u.op = VOp::SExt;
        u.bits =
            static_cast<std::uint8_t>(instr.operand(0)->type()->int_bits());
        u.mask = type_mask(instr.type());
        u.dst = instr.id();
        u.a = resolve_slot(layout_, instr.operand(0));
        break;
      case Opcode::FPToSI:
        u.op = VOp::FpToSi;
        u.mask = type_mask(instr.type());
        u.dst = instr.id();
        u.a = resolve_slot(layout_, instr.operand(0));
        break;
      case Opcode::SIToFP:
        u.op = VOp::SiToFp;
        u.bits =
            static_cast<std::uint8_t>(instr.operand(0)->type()->int_bits());
        u.mask = type_mask(instr.type());
        u.dst = instr.id();
        u.a = resolve_slot(layout_, instr.operand(0));
        break;
      case Opcode::Select:
        u.op = VOp::Select;
        u.mask = type_mask(instr.type());
        u.dst = instr.id();
        u.a = resolve_slot(layout_, instr.operand(0));
        u.b = resolve_slot(layout_, instr.operand(1));
        u.c = resolve_slot(layout_, instr.operand(2));
        break;
      case Opcode::Alloca:
        u.op = VOp::Alloca;
        u.mask = type_mask(instr.type());
        u.dst = instr.id();
        break;
      case Opcode::Load:
        u.op = VOp::Load;
        u.size = static_cast<std::uint32_t>(instr.type()->size_in_bytes());
        u.mask = type_mask(instr.type());
        u.dst = instr.id();
        u.a = resolve_slot(layout_, instr.operand(0));
        break;
      case Opcode::Store:
        u.op = VOp::Store;
        u.size = static_cast<std::uint32_t>(
            instr.operand(0)->type()->size_in_bytes());
        u.mask = type_mask(instr.operand(0)->type());
        u.a = resolve_slot(layout_, instr.operand(0));  // value
        u.b = resolve_slot(layout_, instr.operand(1));  // address
        break;
      case Opcode::Gep: {
        const auto& gep = static_cast<const ir::GepInst&>(instr);
        u.op = VOp::Gep;
        u.mask = type_mask(instr.type());
        u.dst = instr.id();
        u.a = resolve_slot(layout_, gep.base());
        u.imm = 0;  // accumulated constant offset
        u.pool = static_cast<std::uint32_t>(tb.gep_terms.size());
        const ir::Type* current = gep.base()->type()->pointee();
        for (unsigned k = 0; k < gep.num_indices() && ok; ++k) {
          const ir::Value* iv = gep.index(k);
          const unsigned ibits = iv->type()->register_bits();
          std::uint64_t scale = 0;
          bool is_struct_hop = false;
          if (k == 0) {
            scale = current->size_in_bytes();
          } else if (current->is_array()) {
            current = current->array_element();
            scale = current->size_in_bytes();
          } else if (current->is_struct()) {
            is_struct_hop = true;
          } else {
            ok = false;  // malformed gep: leave it to the slow path's trap
            break;
          }
          if (is_struct_hop) {
            // The verifier guarantees struct indices are ConstantInt.
            if (iv->vkind() != ir::ValueKind::ConstantInt) {
              ok = false;
              break;
            }
            const std::int64_t idx = sign_extend(
                static_cast<const ir::ConstantInt*>(iv)->raw(), ibits);
            u.imm += current->struct_field_offset(
                static_cast<std::size_t>(idx));
            current = current->struct_fields()[static_cast<std::size_t>(idx)];
          } else if (iv->vkind() == ir::ValueKind::ConstantInt) {
            const std::int64_t idx = sign_extend(
                static_cast<const ir::ConstantInt*>(iv)->raw(), ibits);
            u.imm += static_cast<std::uint64_t>(idx) * scale;
          } else {
            tb.gep_terms.push_back({resolve_slot(layout_, iv), scale,
                                    static_cast<std::uint8_t>(ibits)});
          }
        }
        u.n = static_cast<std::uint16_t>(tb.gep_terms.size() - u.pool);
        break;
      }
      case Opcode::Phi: {
        // Collapse the whole leading phi run into one group op at the
        // first phi's index; the rest become Pad (never executed: both
        // paths jump straight past the group).
        u.op = VOp::PhiGroup;
        u.pool = static_cast<std::uint32_t>(tb.phi_entries.size());
        std::size_t j = i;
        while (j < bb.size() && bb.instr(j)->opcode() == Opcode::Phi) {
          const auto& phi = static_cast<const ir::PhiInst&>(*bb.instr(j));
          PhiEntry entry;
          entry.dst = phi.id();
          entry.mask = type_mask(phi.type());
          entry.edges_at = static_cast<std::uint32_t>(tb.phi_edges.size());
          entry.edges_n = phi.num_incoming();
          for (unsigned e = 0; e < phi.num_incoming(); ++e)
            tb.phi_edges.push_back(
                {phi.incoming_block(e),
                 resolve_slot(layout_, phi.incoming_value(e))});
          tb.phi_entries.push_back(entry);
          if (j != i) tb.uops[j].op = VOp::Pad;
          ++j;
        }
        u.n = static_cast<std::uint16_t>(tb.phi_entries.size() - u.pool);
        i = j - 1;  // outer loop ++ lands just past the group
        break;
      }
      case Opcode::Br: {
        const auto& br = static_cast<const ir::BranchInst&>(instr);
        u.bb0 = br.true_target();
        u.tb0 = tf.slot_for(u.bb0);
        if (br.is_conditional()) {
          u.op = VOp::BrCond;
          u.a = resolve_slot(layout_, br.condition());
          u.bb1 = br.false_target();
          u.tb1 = tf.slot_for(u.bb1);
          ok = ok && u.tb0 != nullptr && u.tb1 != nullptr;
        } else {
          u.op = VOp::Br;
          ok = ok && u.tb0 != nullptr;
        }
        break;
      }
      case Opcode::Ret: {
        const auto& ret = static_cast<const ir::RetInst&>(instr);
        u.op = VOp::Ret;
        u.n = ret.has_value() ? 1 : 0;
        if (ret.has_value()) u.a = resolve_slot(layout_, ret.value());
        break;
      }
      case Opcode::Call: {
        const auto& call = static_cast<const ir::CallInst&>(instr);
        u.instr = &instr;
        u.callee = call.callee();
        u.pool = static_cast<std::uint32_t>(tb.call_args.size());
        u.n = static_cast<std::uint16_t>(call.num_args());
        for (unsigned k = 0; k < call.num_args(); ++k)
          tb.call_args.push_back(resolve_slot(layout_, call.arg(k)));
        if (call.callee()->is_builtin()) {
          u.op = VOp::CallBuiltin;
        } else {
          u.op = VOp::Call;
          u.callee_tf = &function(*call.callee());
        }
        if (instr.has_result()) {
          u.dst = instr.id();
          u.mask = type_mask(instr.type());
        }
        break;
      }
      default:
        ok = false;  // unknown opcode: the slow path owns its trap
        break;
    }
  }

  if (!ok || bb.terminator() == nullptr) {
    tb.state = TraceBlock::State::Poisoned;
    tb.uops.clear();
    tb.gep_terms.clear();
    tb.call_args.clear();
    tb.phi_entries.clear();
    tb.phi_edges.clear();
    return;
  }
  tb.state = TraceBlock::State::Ready;
  ++decoded_;
  machine::DispatchCounters& counters = machine::dispatch_counters();
  counters.trace_decodes.fetch_add(1, std::memory_order_relaxed);
  counters.decoded_blocks.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace faultlab::vm
