// CFG cleanup: removes unreachable blocks, folds constant conditional
// branches, threads trivial forwarding blocks, and merges straight-line
// block pairs.
#include <set>

#include "ir/irbuilder.h"
#include "opt/pass.h"

namespace faultlab::opt {

std::set<const ir::BasicBlock*> reachable_blocks(const ir::Function& fn) {
  std::set<const ir::BasicBlock*> reachable;
  std::vector<ir::BasicBlock*> work{fn.entry()};
  while (!work.empty()) {
    ir::BasicBlock* bb = work.back();
    work.pop_back();
    if (!reachable.insert(bb).second) continue;
    for (ir::BasicBlock* s : bb->successors()) work.push_back(s);
  }
  return reachable;
}

namespace {

using ir::BasicBlock;
using ir::BranchInst;
using ir::Function;
using ir::Instruction;
using ir::Opcode;
using ir::PhiInst;

void remove_phi_edges_from(BasicBlock* successor, BasicBlock* dead_pred) {
  for (PhiInst* phi : successor->phis()) {
    for (unsigned i = 0; i < phi->num_incoming(); ++i) {
      if (phi->incoming_block(i) == dead_pred) {
        phi->remove_incoming(i);
        break;
      }
    }
  }
}

/// Replace single-incoming phis by their value.
bool collapse_trivial_phis(Function& fn) {
  bool changed = false;
  for (const auto& bb : fn.blocks()) {
    for (std::size_t i = 0; i < bb->size();) {
      auto* phi = dynamic_cast<PhiInst*>(bb->instr(i));
      if (phi == nullptr) break;
      if (phi->num_incoming() == 1) {
        phi->replace_all_uses_with(phi->incoming_value(0));
        bb->erase(i);
        changed = true;
        continue;
      }
      // All incomings identical (and not the phi itself).
      bool uniform = phi->num_incoming() > 0;
      for (unsigned k = 1; k < phi->num_incoming(); ++k)
        uniform &= phi->incoming_value(k) == phi->incoming_value(0);
      if (uniform && phi->incoming_value(0) != phi) {
        phi->replace_all_uses_with(phi->incoming_value(0));
        bb->erase(i);
        changed = true;
        continue;
      }
      ++i;
    }
  }
  return changed;
}

bool fold_constant_branches(Function& fn) {
  bool changed = false;
  for (const auto& bb : fn.blocks()) {
    auto* br = dynamic_cast<BranchInst*>(bb->terminator());
    if (br == nullptr || !br->is_conditional()) continue;
    BasicBlock* taken = nullptr;
    if (auto* c = dynamic_cast<ir::ConstantInt*>(br->condition())) {
      taken = c->raw() & 1 ? br->true_target() : br->false_target();
    } else if (br->true_target() == br->false_target()) {
      taken = br->true_target();
    }
    if (taken == nullptr) continue;
    BasicBlock* not_taken =
        taken == br->true_target() ? br->false_target() : br->true_target();
    if (not_taken != taken) remove_phi_edges_from(not_taken, bb.get());
    const std::size_t term_index = bb->index_of(br);
    bb->erase(term_index);
    ir::IRBuilder builder(*fn.parent());
    builder.set_insert_point(bb.get());
    builder.br(taken);
    changed = true;
  }
  return changed;
}

bool remove_unreachable(Function& fn) {
  const std::set<const BasicBlock*> reachable = reachable_blocks(fn);
  if (reachable.size() == fn.num_blocks()) return false;

  std::vector<BasicBlock*> dead;
  for (const auto& bb : fn.blocks())
    if (!reachable.count(bb.get())) dead.push_back(bb.get());

  // Detach dead blocks from live phis, then break all def-use edges inside
  // the dead region so the blocks can be destroyed in any order.
  for (BasicBlock* bb : dead)
    for (BasicBlock* s : bb->successors())
      if (reachable.count(s)) remove_phi_edges_from(s, bb);
  for (BasicBlock* bb : dead)
    for (const auto& instr : bb->instructions()) instr->clear_operands();
  for (BasicBlock* bb : dead) fn.erase_block(bb);
  return true;
}

/// Merge `bb` with its unique successor when that successor has `bb` as its
/// unique predecessor (classic straight-line merge).
bool merge_blocks(Function& fn) {
  bool changed = false;
  auto preds = fn.predecessors();
  for (std::size_t i = 0; i < fn.num_blocks(); ++i) {
    BasicBlock* bb = fn.block(i);
    auto* br = dynamic_cast<BranchInst*>(bb->terminator());
    if (br == nullptr || br->is_conditional()) continue;
    BasicBlock* succ = br->true_target();
    if (succ == bb || succ == fn.entry()) continue;
    if (preds.at(succ).size() != 1) continue;
    if (!succ->phis().empty()) continue;

    // Move all instructions of succ into bb (dropping bb's terminator).
    bb->erase(bb->index_of(br));
    while (!succ->empty()) bb->append(succ->take(0));
    // Rewire phis in succ's successors to name bb as predecessor.
    for (BasicBlock* next : bb->successors()) {
      for (PhiInst* phi : next->phis()) {
        for (unsigned k = 0; k < phi->num_incoming(); ++k)
          if (phi->incoming_block(k) == succ) phi->set_incoming_block(k, bb);
      }
    }
    fn.erase_block(succ);
    changed = true;
    preds = fn.predecessors();
    i = static_cast<std::size_t>(-1);  // restart scan
  }
  return changed;
}

class SimplifyCfg final : public Pass {
 public:
  const char* name() const noexcept override { return "simplifycfg"; }
  bool run(Function& fn) override {
    bool changed = false;
    bool local = true;
    while (local) {
      local = false;
      local |= fold_constant_branches(fn);
      local |= remove_unreachable(fn);
      local |= collapse_trivial_phis(fn);
      local |= merge_blocks(fn);
      changed |= local;
    }
    return changed;
  }
};

}  // namespace

std::unique_ptr<Pass> make_simplify_cfg() {
  return std::make_unique<SimplifyCfg>();
}

}  // namespace faultlab::opt
