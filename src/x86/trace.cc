#include "x86/trace.h"

#include "machine/dispatch.h"

namespace faultlab::x86 {

// XOp mirrors Op value-for-value so decode is a cast; pin every member.
#define FAULTLAB_X86_UOP_CHECK(name)                        \
  static_assert(static_cast<unsigned>(Op::name) ==          \
                    static_cast<unsigned>(XOp::name),       \
                "XOp must mirror Op: " #name);
FAULTLAB_X86_UOPS_MIRROR(FAULTLAB_X86_UOP_CHECK)
#undef FAULTLAB_X86_UOP_CHECK

XTrace::XTrace(const Program& program) {
  uops.resize(program.code.size() + 1);  // sentinel stays TrapFetch
  for (std::size_t i = 0; i < program.code.size(); ++i) {
    const Inst& inst = program.code[i];
    XUOp& u = uops[i];
    u.op = static_cast<XOp>(static_cast<std::uint8_t>(inst.op));
    u.inst = &inst;
    switch (inst.op) {
      case Op::Jmp:
      case Op::Jcc:
      case Op::Call:
        u.target = static_cast<std::size_t>(inst.target);
        u.target_ok = inst.target >= 0 &&
                      static_cast<std::size_t>(inst.target) <
                          program.code.size();
        u.ret_addr = Program::address_of_index(i + 1);
        break;
      case Op::CallBuiltin:
        if (inst.target >= 0 &&
            static_cast<std::size_t>(inst.target) < program.builtins.size())
          u.sig = &program.builtins[static_cast<std::size_t>(inst.target)];
        break;
      default:
        break;
    }
  }
  machine::dispatch_counters().trace_decodes.fetch_add(
      1, std::memory_order_relaxed);
}

}  // namespace faultlab::x86
