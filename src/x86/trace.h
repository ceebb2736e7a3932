// Pre-decoded micro-op trace for the machine simulator's threaded fast
// path.
//
// A Program's code is already a flat Inst array, so the x86 trace is a
// parallel array (1:1 by instruction index, `rip_index` needs no
// translation) that pre-resolves everything the hot loop would otherwise
// re-derive per instruction: jump/call targets are bounds-validated at
// decode time, call return addresses are pre-computed, and builtin
// signatures are pre-looked-up. A TrapFetch sentinel at index code.size()
// turns the slow loop's fetch-bounds check into a plain dispatch.
//
// As with the VM traces, no fault hook is ever compiled in: the simulator
// enters the fast path only while no hook can observe execution (see
// machine/dispatch.h).
#pragma once

#include <cstdint>
#include <vector>

#include "x86/program.h"

namespace faultlab::x86 {

/// Micro-op inventory, mirroring x86::Op name-for-name and value-for-value
/// (static_asserts in trace.cc pin the correspondence) so decoding is a
/// cast, plus the TrapFetch sentinel. The simulator's computed-goto label
/// table is generated from this same list.
#define FAULTLAB_X86_UOPS_MIRROR(X)                                   \
  X(MovRR) X(MovRI) X(MovRM) X(MovMR) X(MovMI)                        \
  X(MovzxRR) X(MovzxRM) X(MovsxRR) X(MovsxRM)                         \
  X(Lea) X(Push) X(Pop)                                               \
  X(Add) X(Sub) X(Imul) X(And) X(Or) X(Xor) X(Shl) X(Sar) X(Shr)      \
  X(Neg) X(Not) X(Idiv) X(Irem) X(Cmp) X(Test) X(Setcc) X(Cmov)      \
  X(Jmp) X(Jcc) X(Call) X(CallBuiltin) X(Ret)                         \
  X(MovsdRR) X(MovsdRM) X(MovsdMR)                                    \
  X(Addsd) X(Subsd) X(Mulsd) X(Divsd) X(Sqrtsd) X(Ucomisd)           \
  X(Cvtsi2sd) X(Cvttsd2si) X(MovqXR) X(MovqRX)

#define FAULTLAB_X86_UOPS(X) FAULTLAB_X86_UOPS_MIRROR(X) X(TrapFetch)

enum class XOp : std::uint8_t {
#define FAULTLAB_X86_UOP_ENUM(name) name,
  FAULTLAB_X86_UOPS(FAULTLAB_X86_UOP_ENUM)
#undef FAULTLAB_X86_UOP_ENUM
};

/// One pre-decoded instruction slot.
struct XUOp {
  XOp op = XOp::TrapFetch;
  /// Jmp/Jcc/Call: the static target index is inside the code array.
  /// Taking a branch with target_ok false traps InvalidJump, exactly like
  /// the slow path's jump_to.
  bool target_ok = false;
  const Inst* inst = nullptr;
  /// CallBuiltin: pre-resolved signature, or nullptr when the ordinal is
  /// out of range (the slow path then owns the failure).
  const BuiltinSig* sig = nullptr;
  std::size_t target = 0;       ///< pre-validated jump/call target index
  std::uint64_t ret_addr = 0;   ///< Call: simulated address of index + 1
};

/// The decoded program: uops[i] executes code[i]; uops[code.size()] is the
/// TrapFetch sentinel. Built once per Machine on first fast-path entry.
struct XTrace {
  explicit XTrace(const Program& program);
  XTrace(const XTrace&) = delete;
  XTrace& operator=(const XTrace&) = delete;

  std::vector<XUOp> uops;
};

}  // namespace faultlab::x86
