#include "x86/isa.h"

namespace faultlab::x86 {

namespace {
/// `prefix` followed by `n` in decimal. Built by appending: GCC's
/// -Wrestrict misfires on `"literal" + std::string&&`.
std::string numbered(const char* prefix, unsigned n) {
  std::string name(prefix);
  name += std::to_string(n);
  return name;
}
}  // namespace

std::string reg_name(RegId r, unsigned width_bytes) {
  static const char* q[] = {"rax", "rcx", "rdx", "rbx", "rsp", "rbp",
                            "rsi", "rdi", "r8",  "r9",  "r10", "r11",
                            "r12", "r13", "r14", "r15"};
  static const char* d[] = {"eax", "ecx", "edx", "ebx", "esp", "ebp",
                            "esi", "edi", "r8d", "r9d", "r10d", "r11d",
                            "r12d", "r13d", "r14d", "r15d"};
  if (is_phys_gpr(r)) return width_bytes >= 8 ? q[r] : d[r];
  if (is_phys_xmm(r)) return numbered("xmm", r - kXmmBase);
  if (r == kNoReg) return "<none>";
  if (is_xmm_class(r)) return numbered("vx", r - kVXmmBase);
  return numbered("v", r - kVGprBase);
}

const char* cond_name(Cond c) noexcept {
  switch (c) {
    case Cond::E: return "e";
    case Cond::NE: return "ne";
    case Cond::L: return "l";
    case Cond::LE: return "le";
    case Cond::G: return "g";
    case Cond::GE: return "ge";
    case Cond::B: return "b";
    case Cond::BE: return "be";
    case Cond::A: return "a";
    case Cond::AE: return "ae";
    case Cond::P: return "p";
    case Cond::NP: return "np";
    case Cond::FpEq: return "fpeq";
    case Cond::FpNe: return "fpne";
  }
  return "?";
}

std::vector<unsigned> cond_flag_bits(Cond c) {
  switch (c) {
    case Cond::E:
    case Cond::NE:
      return {kFlagZF};
    case Cond::L:
    case Cond::GE:
      return {kFlagSF, kFlagOF};
    case Cond::LE:
    case Cond::G:
      return {kFlagZF, kFlagSF, kFlagOF};
    case Cond::B:
    case Cond::AE:
      return {kFlagCF};
    case Cond::BE:
    case Cond::A:
      return {kFlagCF, kFlagZF};
    case Cond::P:
    case Cond::NP:
      return {kFlagPF};
    case Cond::FpEq:
    case Cond::FpNe:
      return {kFlagZF, kFlagPF};
  }
  return {};
}

bool cond_holds(Cond c, std::uint64_t f) noexcept {
  const bool cf = (f >> kFlagCF) & 1;
  const bool pf = (f >> kFlagPF) & 1;
  const bool zf = (f >> kFlagZF) & 1;
  const bool sf = (f >> kFlagSF) & 1;
  const bool of = (f >> kFlagOF) & 1;
  switch (c) {
    case Cond::E: return zf;
    case Cond::NE: return !zf;
    case Cond::L: return sf != of;
    case Cond::LE: return zf || sf != of;
    case Cond::G: return !zf && sf == of;
    case Cond::GE: return sf == of;
    case Cond::B: return cf;
    case Cond::BE: return cf || zf;
    case Cond::A: return !cf && !zf;
    case Cond::AE: return !cf;
    case Cond::P: return pf;
    case Cond::NP: return !pf;
    case Cond::FpEq: return zf && !pf;
    // Ordered not-equal: false when unordered (NaN sets ZF and PF).
    case Cond::FpNe: return !zf && !pf;
  }
  return false;
}

const char* op_name(Op op) noexcept {
  switch (op) {
    case Op::MovRR: case Op::MovRI: case Op::MovRM: case Op::MovMR:
    case Op::MovMI:
      return "mov";
    case Op::MovzxRR: case Op::MovzxRM: return "movzx";
    case Op::MovsxRR: case Op::MovsxRM: return "movsx";
    case Op::Lea: return "lea";
    case Op::Push: return "push";
    case Op::Pop: return "pop";
    case Op::Add: return "add";
    case Op::Sub: return "sub";
    case Op::Imul: return "imul";
    case Op::And: return "and";
    case Op::Or: return "or";
    case Op::Xor: return "xor";
    case Op::Shl: return "shl";
    case Op::Sar: return "sar";
    case Op::Shr: return "shr";
    case Op::Neg: return "neg";
    case Op::Not: return "not";
    case Op::Idiv: return "idiv";
    case Op::Irem: return "irem";
    case Op::Cmp: return "cmp";
    case Op::Test: return "test";
    case Op::Setcc: return "set";
    case Op::Cmov: return "cmov";
    case Op::Jmp: return "jmp";
    case Op::Jcc: return "j";
    case Op::Call: return "call";
    case Op::CallBuiltin: return "callb";
    case Op::Ret: return "ret";
    case Op::MovsdRR: case Op::MovsdRM: case Op::MovsdMR: return "movsd";
    case Op::Addsd: return "addsd";
    case Op::Subsd: return "subsd";
    case Op::Mulsd: return "mulsd";
    case Op::Divsd: return "divsd";
    case Op::Sqrtsd: return "sqrtsd";
    case Op::Ucomisd: return "ucomisd";
    case Op::Cvtsi2sd: return "cvtsi2sd";
    case Op::Cvttsd2si: return "cvttsd2si";
    case Op::MovqXR: case Op::MovqRX: return "movq";
  }
  return "?";
}

namespace {
void add_mem_regs(const MemOperand& mem, std::vector<RegId>& out) {
  if (mem.has_base()) out.push_back(mem.base);
  if (mem.has_index()) out.push_back(mem.index);
}
}  // namespace

void collect_reads(const Inst& inst, std::vector<RegId>& out) {
  // Memory-source / memory-destination address registers.
  if (inst.src_kind == SrcKind::Mem || inst.op == Op::MovMR ||
      inst.op == Op::MovMI || inst.op == Op::MovRM || inst.op == Op::MovsdRM ||
      inst.op == Op::MovsdMR || inst.op == Op::MovzxRM ||
      inst.op == Op::MovsxRM || inst.op == Op::Lea)
    add_mem_regs(inst.mem, out);
  if (inst.src_kind == SrcKind::Reg && inst.src != kNoReg)
    out.push_back(inst.src);

  switch (inst.op) {
    // Two-address ALU reads its destination.
    case Op::Add: case Op::Sub: case Op::Imul: case Op::And: case Op::Or:
    case Op::Xor: case Op::Shl: case Op::Sar: case Op::Shr:
    case Op::Idiv: case Op::Irem:
    case Op::Addsd: case Op::Subsd: case Op::Mulsd: case Op::Divsd:
    case Op::Neg: case Op::Not:
    case Op::Cmov:  // conditional merge keeps old dst
      if (inst.dst != kNoReg) out.push_back(inst.dst);
      break;
    case Op::Cmp: case Op::Test: case Op::Ucomisd:
      if (inst.dst != kNoReg) out.push_back(inst.dst);  // lhs operand
      break;
    case Op::Push: case Op::MovMR: case Op::MovsdMR:
      if (inst.dst != kNoReg) out.push_back(inst.dst);  // stored value
      break;
    case Op::Pop:
      break;
    default:
      break;
  }
}

RegId dest_reg(const Inst& inst) noexcept {
  switch (inst.op) {
    case Op::MovMR: case Op::MovMI: case Op::MovsdMR:  // stores
    case Op::Cmp: case Op::Test: case Op::Ucomisd:     // flags only
    case Op::Push: case Op::Jmp: case Op::Jcc: case Op::Call:
    case Op::CallBuiltin: case Op::Ret:
      return kNoReg;
    default:
      return inst.dst;
  }
}

bool dest_fully_overwrites(const Inst& inst) noexcept {
  const RegId d = dest_reg(inst);
  if (d == kNoReg) return false;
  if (is_xmm_class(d)) return true;  // movsd/arith write the low lane we track
  switch (inst.op) {
    case Op::Setcc:
      return false;  // writes one byte
    case Op::MovzxRR: case Op::MovzxRM: case Op::MovsxRR: case Op::MovsxRM:
      return true;   // always extend to full width
    default:
      return inst.width >= 4;  // 32/64-bit ops zero-extend; 8/16-bit merge
  }
}

bool writes_flags(const Inst& inst) noexcept {
  switch (inst.op) {
    case Op::Add: case Op::Sub: case Op::Imul: case Op::And: case Op::Or:
    case Op::Xor: case Op::Shl: case Op::Sar: case Op::Shr: case Op::Neg:
    case Op::Idiv: case Op::Irem:
    case Op::Cmp: case Op::Test: case Op::Ucomisd:
      return true;
    default:
      return false;
  }
}

bool reads_flags(const Inst& inst) noexcept {
  return inst.op == Op::Jcc || inst.op == Op::Setcc || inst.op == Op::Cmov;
}

}  // namespace faultlab::x86
