// mem2reg: promotes scalar stack slots to SSA registers using the classic
// iterated-dominance-frontier phi placement + dominator-tree renaming
// algorithm. This is the pass that *creates* the phi nodes whose assembly
// lowering (register spilling) the paper's Table I row 2 discusses.
#include <map>
#include <set>

#include "ir/dominance.h"
#include "opt/pass.h"

namespace faultlab::opt {

namespace {

using ir::AllocaInst;
using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::LoadInst;
using ir::Opcode;
using ir::PhiInst;
using ir::StoreInst;
using ir::Value;

/// An alloca is promotable when every use is a direct load from it or a
/// store *to* it (never a store *of* it, a GEP, a call argument, ...), in
/// a block reachable from the entry: renaming walks the dominator tree,
/// which holds only those, and a use it never rewrote would outlive the
/// alloca.
bool is_promotable(const AllocaInst& alloca,
                   const std::set<const BasicBlock*>& reachable) {
  if (!alloca.allocated_type()->is_scalar()) return false;
  for (const ir::Use& use : alloca.uses()) {
    if (!reachable.count(use.user->parent())) return false;
    switch (use.user->opcode()) {
      case Opcode::Load:
        break;
      case Opcode::Store:
        if (use.index != 1) return false;  // address operand only
        break;
      default:
        return false;
    }
  }
  return true;
}

class Mem2Reg final : public Pass {
 public:
  const char* name() const noexcept override { return "mem2reg"; }

  bool run(Function& fn) override {
    if (fn.num_blocks() == 0) return false;
    const std::set<const BasicBlock*> reachable = reachable_blocks(fn);
    std::vector<AllocaInst*> candidates;
    for (const auto& bb : fn.blocks())
      for (const auto& instr : bb->instructions())
        if (auto* al = dynamic_cast<AllocaInst*>(instr.get()))
          if (is_promotable(*al, reachable)) candidates.push_back(al);
    if (candidates.empty()) return false;

    ir::DominatorTree dom(fn);
    // Map each candidate to an ordinal.
    std::map<const AllocaInst*, std::size_t> ordinal;
    for (std::size_t i = 0; i < candidates.size(); ++i)
      ordinal[candidates[i]] = i;

    place_phis(fn, dom, candidates, ordinal);
    rename(fn, dom, ordinal);
    cleanup(fn, candidates);
    return true;
  }

 private:
  // phi -> alloca ordinal it merges
  std::map<const PhiInst*, std::size_t> phi_slot_;

  void place_phis(Function& fn, const ir::DominatorTree& dom,
                  const std::vector<AllocaInst*>& candidates,
                  const std::map<const AllocaInst*, std::size_t>& ordinal) {
    phi_slot_.clear();
    ir::Module& module = *fn.parent();
    for (AllocaInst* alloca : candidates) {
      // Blocks containing a store to this slot.
      std::set<const BasicBlock*> def_blocks;
      for (const ir::Use& use : alloca->uses())
        if (use.user->opcode() == Opcode::Store)
          def_blocks.insert(use.user->parent());

      // Iterated dominance frontier worklist.
      std::set<const BasicBlock*> has_phi;
      std::vector<const BasicBlock*> work(def_blocks.begin(), def_blocks.end());
      while (!work.empty()) {
        const BasicBlock* bb = work.back();
        work.pop_back();
        for (const BasicBlock* frontier : dom.frontier(bb)) {
          if (!has_phi.insert(frontier).second) continue;
          auto* target = const_cast<BasicBlock*>(frontier);
          auto phi = std::make_unique<PhiInst>(alloca->allocated_type(),
                                               alloca->name() + ".phi");
          phi_slot_[phi.get()] = ordinal.at(alloca);
          target->insert(0, std::move(phi));
          if (!def_blocks.count(frontier)) work.push_back(frontier);
        }
      }
      (void)module;
    }
  }

  void rename(Function& fn, const ir::DominatorTree& dom,
              const std::map<const AllocaInst*, std::size_t>& ordinal) {
    // Children lists of the dominator tree.
    std::map<const BasicBlock*, std::vector<const BasicBlock*>> children;
    for (const BasicBlock* bb : dom.reverse_postorder())
      if (const BasicBlock* parent = dom.idom(bb)) children[parent].push_back(bb);

    ir::Module& module = *fn.parent();
    std::vector<Value*> current(ordinal.size(), nullptr);
    rename_block(fn.entry(), children, ordinal, current, module, dom);
  }

  void rename_block(const BasicBlock* bb,
                    const std::map<const BasicBlock*,
                                   std::vector<const BasicBlock*>>& children,
                    const std::map<const AllocaInst*, std::size_t>& ordinal,
                    std::vector<Value*> current,  // by value: scoped copies
                    ir::Module& module, const ir::DominatorTree& dom) {
    auto* block = const_cast<BasicBlock*>(bb);
    for (std::size_t i = 0; i < block->size();) {
      Instruction* instr = block->instr(i);
      if (auto* phi = dynamic_cast<PhiInst*>(instr)) {
        auto it = phi_slot_.find(phi);
        if (it != phi_slot_.end()) current[it->second] = phi;
        ++i;
        continue;
      }
      if (auto* load = dynamic_cast<LoadInst*>(instr)) {
        auto* alloca = dynamic_cast<AllocaInst*>(load->pointer());
        if (alloca != nullptr && ordinal.count(alloca)) {
          Value* live = current[ordinal.at(alloca)];
          if (live == nullptr) live = default_value(module, load->type());
          load->replace_all_uses_with(live);
          block->erase(i);
          continue;
        }
      }
      if (auto* store = dynamic_cast<StoreInst*>(instr)) {
        auto* alloca = dynamic_cast<AllocaInst*>(store->pointer());
        if (alloca != nullptr && ordinal.count(alloca)) {
          current[ordinal.at(alloca)] = store->stored_value();
          block->erase(i);
          continue;
        }
      }
      ++i;
    }

    // Feed this path's current values into successor phis.
    for (BasicBlock* succ : block->successors()) {
      for (PhiInst* phi : succ->phis()) {
        auto it = phi_slot_.find(phi);
        if (it == phi_slot_.end()) continue;
        Value* live = current[it->second];
        if (live == nullptr) live = default_value(module, phi->type());
        phi->add_incoming(live, block);
      }
    }

    auto it = children.find(bb);
    if (it != children.end())
      for (const BasicBlock* child : it->second)
        rename_block(child, children, ordinal, current, module, dom);
  }

  static Value* default_value(ir::Module& module, const ir::Type* type) {
    // Reading an uninitialized local is UB in C; we define it as zero so
    // runs are deterministic.
    if (type->is_double()) return module.const_double(0.0);
    if (type->is_ptr()) return module.const_null(type);
    return module.const_int(type, 0);
  }

  void cleanup(Function&, const std::vector<AllocaInst*>& candidates) {
    for (AllocaInst* alloca : candidates) {
      assert(!alloca->has_uses() && "promoted alloca still used");
      BasicBlock* bb = alloca->parent();
      bb->erase(bb->index_of(alloca));
    }
    phi_slot_.clear();
  }
};

}  // namespace

std::unique_ptr<Pass> make_mem2reg() { return std::make_unique<Mem2Reg>(); }

}  // namespace faultlab::opt
