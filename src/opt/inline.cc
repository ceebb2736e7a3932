// Function inlining: replaces calls to small, non-recursive functions with
// a clone of their body. Part of the "standard optimizations" pipeline —
// without it, trivial helpers (grid index functions, max2/max3, ...) keep
// their full call/prologue/epilogue overhead at the assembly level, which
// no production compiler would exhibit.
#include <map>
#include <set>

#include "ir/irbuilder.h"
#include "opt/pass.h"

namespace faultlab::opt {

namespace {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Module;
using ir::Opcode;
using ir::Value;

constexpr std::size_t kMaxCalleeInstructions = 90;
constexpr std::size_t kMaxCalleeBlocks = 14;

bool calls_self(const Function& fn) {
  for (const auto& bb : fn.blocks())
    for (const auto& instr : bb->instructions())
      if (auto* call = dynamic_cast<const ir::CallInst*>(instr.get()))
        if (call->callee() == &fn) return true;
  return false;
}

/// Whether some reachable block of `fn` returns. A callee that never
/// returns stays a call: inlined, it would leave the code after the call
/// site unreachable.
bool returns(const Function& fn) {
  for (const BasicBlock* bb : reachable_blocks(fn)) {
    const Instruction* term = bb->terminator();
    if (term != nullptr && term->opcode() == Opcode::Ret) return true;
  }
  return false;
}

bool inlinable(const Function& callee, const Function& caller) {
  if (callee.is_builtin() || &callee == &caller) return false;
  if (callee.num_blocks() == 0 || callee.num_blocks() > kMaxCalleeBlocks)
    return false;
  if (callee.num_instructions() > kMaxCalleeInstructions) return false;
  return !calls_self(callee) && returns(callee);
}

/// Clones the reachable part of `callee`'s body into `caller` at the given
/// call site. A callee defined after its caller has not been through
/// simplifycfg yet and may still hold dead blocks; cloned, they would be
/// dead code in the caller whose alloca uses mem2reg never rewrites.
class Cloner {
 public:
  Cloner(Function& caller, ir::CallInst& call)
      : caller_(caller),
        call_(call),
        callee_(*call.callee()),
        reachable_(reachable_blocks(callee_)) {}

  void run() {
    map_arguments();
    create_blocks();
    split_call_block();
    clone_instructions();
    patch_phis();
    wire_up();
  }

 private:
  void map_arguments() {
    for (unsigned i = 0; i < call_.num_args(); ++i)
      value_map_[callee_.arg(i)] = call_.arg(i);
  }

  void create_blocks() {
    for (const auto& bb : callee_.blocks())
      if (reachable_.count(bb.get()))
        block_map_[bb.get()] =
            caller_.create_block(callee_.name() + "." + bb->name());
  }

  void split_call_block() {
    BasicBlock* block = call_.parent();
    const std::size_t call_index = block->index_of(&call_);
    continuation_ = caller_.create_block(block->name() + ".cont");
    // Move everything after the call (including the terminator) into the
    // continuation block.
    while (block->size() > call_index + 1)
      continuation_->append(block->take(call_index + 1));
    // Successor phis that named the original block now flow from the
    // continuation.
    for (BasicBlock* succ : continuation_->successors()) {
      for (ir::PhiInst* phi : succ->phis())
        for (unsigned i = 0; i < phi->num_incoming(); ++i)
          if (phi->incoming_block(i) == block)
            phi->set_incoming_block(i, continuation_);
    }
    call_block_ = block;
  }

  Value* mapped(Value* v) const {
    auto it = value_map_.find(v);
    return it == value_map_.end() ? v : it->second;
  }

  void clone_instructions() {
    Module& m = *caller_.parent();
    for (const auto& bb : callee_.blocks()) {
      if (!reachable_.count(bb.get())) continue;
      BasicBlock* target = block_map_.at(bb.get());
      for (const auto& instr : bb->instructions()) {
        Instruction* copy = clone_one(m, *instr, target);
        if (copy != nullptr) value_map_[instr.get()] = copy;
      }
    }
  }

  /// Clones one instruction into `target`; returns null for rets (turned
  /// into branches to the continuation).
  Instruction* clone_one(Module& m, Instruction& instr, BasicBlock* target) {
    auto op = [&](unsigned i) { return mapped(instr.operand(i)); };
    const ir::Type* void_type = m.types().void_type();
    switch (instr.opcode()) {
      case Opcode::Ret: {
        auto& ret = static_cast<ir::RetInst&>(instr);
        if (ret.has_value())
          returns_.emplace_back(mapped(ret.value()), target);
        else
          returns_.emplace_back(nullptr, target);
        return target->append(
            std::make_unique<ir::BranchInst>(void_type, continuation_));
      }
      case Opcode::Br: {
        auto& br = static_cast<ir::BranchInst&>(instr);
        if (br.is_conditional())
          return target->append(std::make_unique<ir::BranchInst>(
              void_type, op(0), block_map_.at(br.true_target()),
              block_map_.at(br.false_target())));
        return target->append(std::make_unique<ir::BranchInst>(
            void_type, block_map_.at(br.true_target())));
      }
      case Opcode::Phi: {
        // Operands are patched afterwards (they may be forward refs).
        auto phi = std::make_unique<ir::PhiInst>(instr.type(), instr.name());
        pending_phis_.emplace_back(static_cast<ir::PhiInst*>(phi.get()),
                                   static_cast<ir::PhiInst*>(&instr));
        return target->append(std::move(phi));
      }
      case Opcode::Call: {
        auto& call = static_cast<ir::CallInst&>(instr);
        std::vector<Value*> args;
        for (unsigned i = 0; i < call.num_args(); ++i) args.push_back(op(i));
        return target->append(std::make_unique<ir::CallInst>(
            call.type(), call.callee(), std::move(args), call.name()));
      }
      case Opcode::Alloca: {
        auto& al = static_cast<ir::AllocaInst&>(instr);
        return target->append(std::make_unique<ir::AllocaInst>(
            al.type(), al.allocated_type(), al.name()));
      }
      case Opcode::Load:
        return target->append(
            std::make_unique<ir::LoadInst>(op(0), instr.name()));
      case Opcode::Store:
        return target->append(
            std::make_unique<ir::StoreInst>(void_type, op(0), op(1)));
      case Opcode::Gep: {
        auto& gep = static_cast<ir::GepInst&>(instr);
        std::vector<Value*> indices;
        for (unsigned i = 0; i < gep.num_indices(); ++i)
          indices.push_back(mapped(gep.index(i)));
        return target->append(std::make_unique<ir::GepInst>(
            gep.type(), op(0), std::move(indices), gep.name()));
      }
      case Opcode::ICmp: {
        auto& cmp = static_cast<ir::ICmpInst&>(instr);
        return target->append(std::make_unique<ir::ICmpInst>(
            cmp.type(), cmp.predicate(), op(0), op(1), cmp.name()));
      }
      case Opcode::FCmp: {
        auto& cmp = static_cast<ir::FCmpInst&>(instr);
        return target->append(std::make_unique<ir::FCmpInst>(
            cmp.type(), cmp.predicate(), op(0), op(1), cmp.name()));
      }
      case Opcode::Select:
        return target->append(std::make_unique<ir::SelectInst>(
            op(0), op(1), op(2), instr.name()));
      default:
        break;
    }
    if (ir::is_int_binary(instr.opcode()) || ir::is_fp_binary(instr.opcode()))
      return target->append(std::make_unique<ir::BinaryInst>(
          instr.opcode(), op(0), op(1), instr.name()));
    if (ir::is_cast(instr.opcode()))
      return target->append(std::make_unique<ir::CastInst>(
          instr.opcode(), op(0), instr.type(), instr.name()));
    assert(false && "unhandled opcode in inliner");
    return nullptr;
  }

  void patch_phis() {
    for (auto& [copy, original] : pending_phis_) {
      for (unsigned i = 0; i < original->num_incoming(); ++i) {
        const auto from = block_map_.find(original->incoming_block(i));
        if (from != block_map_.end())  // edges from dead blocks are dropped
          copy->add_incoming(mapped(original->incoming_value(i)),
                             from->second);
      }
    }
  }

  void wire_up() {
    Module& m = *caller_.parent();
    // Replace the call's value with the return value (phi when several).
    if (call_.has_result() && call_.has_uses()) {
      Value* result = nullptr;
      if (returns_.size() == 1) {
        result = returns_[0].first;
      } else {
        ir::IRBuilder b(m);
        b.set_insert_point(continuation_);
        ir::PhiInst* phi = b.phi(call_.type(), callee_.name() + ".ret");
        for (auto& [value, block] : returns_) phi->add_incoming(value, block);
        result = phi;
      }
      call_.replace_all_uses_with(result);
    }
    // The call block now jumps into the cloned entry.
    BasicBlock* cloned_entry = block_map_.at(callee_.entry());
    call_block_->erase(call_block_->index_of(&call_));
    ir::IRBuilder b(m);
    b.set_insert_point(call_block_);
    b.br(cloned_entry);
  }

  Function& caller_;
  ir::CallInst& call_;
  const Function& callee_;
  const std::set<const BasicBlock*> reachable_;
  BasicBlock* call_block_ = nullptr;
  BasicBlock* continuation_ = nullptr;
  std::map<const Value*, Value*> value_map_;
  std::map<const BasicBlock*, BasicBlock*> block_map_;
  std::vector<std::pair<ir::PhiInst*, ir::PhiInst*>> pending_phis_;
  std::vector<std::pair<Value*, BasicBlock*>> returns_;  // value may be null
};

class Inliner final : public Pass {
 public:
  const char* name() const noexcept override { return "inline"; }

  bool run(Function& fn) override {
    bool changed = false;
    // Snapshot call sites first: inlining mutates the block list.
    std::vector<ir::CallInst*> sites;
    for (const auto& bb : fn.blocks())
      for (const auto& instr : bb->instructions())
        if (auto* call = dynamic_cast<ir::CallInst*>(instr.get()))
          if (inlinable(*call->callee(), fn)) sites.push_back(call);
    for (ir::CallInst* call : sites) {
      Cloner(fn, *call).run();
      changed = true;
    }
    if (changed) fn.renumber();
    return changed;
  }
};

}  // namespace

std::unique_ptr<Pass> make_inline() { return std::make_unique<Inliner>(); }

}  // namespace faultlab::opt
