// Pre-decoded micro-op traces for the IR interpreter's threaded fast path.
//
// A TraceBlock is a basic block decoded once into a flat array of
// micro-ops with every operand pre-resolved: constants are folded into
// immediate slots (including global addresses and double bit patterns),
// register/argument reads carry their index, type masks and sign widths
// are pre-looked-up, branch targets point straight at the successor
// TraceBlock, and getelementptr constant terms are folded into a single
// base offset at decode time. The array is strictly 1:1 with the block's
// instruction list (phi runs collapse into one PhiGroup op followed by
// Pad fillers), so `Snapshot::Frame::index` doubles as the micro-op index:
// side entry and side exit between the hooked slow path and the trace need
// no PC translation, and trap PCs stay exact.
//
// Decoding is lazy (first fast-path entry of a block) and cached per
// interpreter instance; the decoder never changes observable semantics —
// an instruction it cannot pre-resolve poisons its block, which then runs
// through the slow path forever. Fault hooks are never compiled into a
// trace: the interpreter only enters the fast path while no hook can
// observe execution (see machine::RunLoop's fast_eligible).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "ir/function.h"
#include "ir/module.h"

namespace faultlab::machine {
class GlobalLayout;
}

namespace faultlab::vm {

/// X-macro op inventory: the VOp enum and the threaded dispatcher's
/// computed-goto label table are both generated from this list, so the
/// two can never fall out of order.
///
/// Comparisons and casts are split per predicate/kind so the dispatcher
/// jumps straight to a branch-free handler. MaskCast covers
/// trunc/zext/bitcast/ptrtoint/inttoptr, whose semantics all reduce to one
/// pre-folded AND. Alloca only advances (its address is pre-assigned at
/// frame setup); PhiGroup executes the block's whole leading phi run
/// against prev_block; Pad fills the 1:1 slots under a PhiGroup and is
/// never executed (defensively side-exits if reached).
#define FAULTLAB_VM_UOPS(X)                                             \
  X(Add) X(Sub) X(Mul) X(SDiv) X(UDiv) X(SRem) X(URem)                  \
  X(And) X(Or) X(Xor) X(Shl) X(LShr) X(AShr)                            \
  X(FAdd) X(FSub) X(FMul) X(FDiv)                                       \
  X(IcmpEq) X(IcmpNe) X(IcmpSlt) X(IcmpSle) X(IcmpSgt) X(IcmpSge)       \
  X(IcmpUlt) X(IcmpUle) X(IcmpUgt) X(IcmpUge)                           \
  X(FcmpOeq) X(FcmpOne) X(FcmpOlt) X(FcmpOle) X(FcmpOgt) X(FcmpOge)     \
  X(MaskCast) X(SExt) X(FpToSi) X(SiToFp)                               \
  X(Select) X(Alloca) X(Load) X(Store) X(Gep)                           \
  X(PhiGroup) X(Pad)                                                    \
  X(Br) X(BrCond) X(Ret)                                                \
  X(Call) X(CallBuiltin)

enum class VOp : std::uint8_t {
#define FAULTLAB_VM_UOP_ENUM(name) name,
  FAULTLAB_VM_UOPS(FAULTLAB_VM_UOP_ENUM)
#undef FAULTLAB_VM_UOP_ENUM
};

/// One pre-resolved operand read.
struct VSlot {
  enum class Kind : std::uint8_t { Imm, Reg, Arg };
  Kind kind = Kind::Imm;
  std::uint32_t index = 0;  ///< register id / argument index
  std::uint64_t imm = 0;
};

/// Variable getelementptr term: addr += sext(read, bits) * scale.
struct GepTerm {
  VSlot slot;
  std::uint64_t scale = 0;  // element size; offsets wrap like addresses
  std::uint8_t bits = 64;
};

/// One incoming edge of a phi.
struct PhiEdge {
  const ir::BasicBlock* pred = nullptr;
  VSlot slot;
};

/// One phi of a PhiGroup: where its edges live and where the result goes.
struct PhiEntry {
  std::uint32_t dst = 0;
  std::uint64_t mask = 0;
  std::uint32_t edges_at = 0;
  std::uint32_t edges_n = 0;
};

struct TraceBlock;
struct TraceFunction;

/// One decoded micro-op. Deliberately flat: every field a handler needs is
/// a direct load off this struct or the owning block's side pools.
struct VUOp {
  VOp op = VOp::Pad;
  std::uint8_t bits = 0;    ///< operand int width (sign ops, shifts, sext)
  std::uint16_t n = 0;      ///< pool element count (args / gep terms / phis)
  std::uint32_t dst = 0;    ///< result register id
  std::uint32_t pool = 0;   ///< offset into the owning block's pool
  std::uint32_t size = 0;   ///< load/store access size in bytes
  std::uint64_t mask = 0;   ///< result mask (type_mask of the def)
  std::uint64_t imm = 0;    ///< operand mask (binaries/icmp) / gep base offset
  VSlot a, b, c;
  const ir::BasicBlock* bb0 = nullptr;  ///< branch targets (IR view)
  const ir::BasicBlock* bb1 = nullptr;
  TraceBlock* tb0 = nullptr;  ///< branch targets (trace view)
  TraceBlock* tb1 = nullptr;
  const ir::Instruction* instr = nullptr;  ///< call site (Call/CallBuiltin)
  const ir::Function* callee = nullptr;
  TraceFunction* callee_tf = nullptr;
};

/// A decoded basic block: micro-ops (1:1 with the block's instructions)
/// plus the side pools the variable-length ops index into.
struct TraceBlock {
  enum class State : std::uint8_t { Empty, Ready, Poisoned };
  State state = State::Empty;
  const ir::BasicBlock* block = nullptr;
  /// RunLimits::site_hits slot of uops[0]; uop i counts at site_base + i.
  std::uint64_t site_base = 0;
  std::vector<VUOp> uops;
  std::vector<GepTerm> gep_terms;
  std::vector<VSlot> call_args;
  std::vector<PhiEntry> phi_entries;
  std::vector<PhiEdge> phi_edges;
};

/// Frame-setup plan entry: one alloca's register and layout parameters, in
/// program order (the slow path's dynamic_cast walk, done once).
struct AllocaPlan {
  std::uint32_t reg = 0;
  std::uint64_t align = 1;
  std::uint64_t size = 0;
};

/// Per-function scaffolding: frame layout plan plus the block trace slots.
struct TraceFunction {
  const ir::Function* fn = nullptr;
  std::uint64_t frame_size = 0;  ///< allocas + padding, rounded to 16
  std::size_t num_instructions = 0;
  /// RunLimits::site_hits slot of the instruction with id 0.
  std::uint64_t site_base = 0;
  std::vector<AllocaPlan> allocas;
  /// Parallel to fn->blocks() (stable: sized once, never grown).
  std::vector<TraceBlock> blocks;
  std::unordered_map<const ir::BasicBlock*, std::uint32_t> block_index;

  TraceBlock* slot_for(const ir::BasicBlock* bb) {
    const auto it = block_index.find(bb);
    return it == block_index.end() ? nullptr : &blocks[it->second];
  }
};

/// Lazy per-interpreter trace cache. Not thread-safe: each resident
/// interpreter context owns one (snapshots never carry trace pointers, so
/// caches stay private to their executor).
class TraceCache {
 public:
  explicit TraceCache(const machine::GlobalLayout& layout);
  TraceCache(const TraceCache&) = delete;
  TraceCache& operator=(const TraceCache&) = delete;

  /// Scaffolding for `fn` (alloca plan, block table), built on first use.
  TraceFunction& function(const ir::Function& fn);

  /// Decoded trace for `bb`, decoding on first request. Returns nullptr
  /// when the block cannot be traced (runs via the slow path instead).
  TraceBlock* block(TraceFunction& tf, const ir::BasicBlock* bb);

 private:
  void decode(TraceFunction& tf, TraceBlock& tb);

  const machine::GlobalLayout& layout_;
  std::unordered_map<const ir::Function*, std::unique_ptr<TraceFunction>>
      functions_;
};

}  // namespace faultlab::vm
