#include "x86/simulator.h"

#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "machine/dispatch.h"
#include "support/bitutil.h"
#include "x86/trace.h"

// Computed-goto threaded dispatch for the fast path; define
// FAULTLAB_NO_COMPUTED_GOTO (or build with a compiler lacking the
// extension) to fall back to a portable switch with identical semantics.
#if (defined(__GNUC__) || defined(__clang__)) && \
    !defined(FAULTLAB_NO_COMPUTED_GOTO)
#define FAULTLAB_X86_COMPUTED_GOTO 1
#else
#define FAULTLAB_X86_COMPUTED_GOTO 0
#endif

namespace faultlab::x86 {

namespace {

using machine::Layout;
using machine::TrapException;
using machine::TrapKind;

/// Sentinel return address pushed under main(); ret-ing to it halts.
constexpr std::uint64_t kHaltAddress = 0x0DEAD'0000'0000ull;

struct Flags {
  static std::uint64_t parity(std::uint64_t result) {
    return (__builtin_popcountll(result & 0xff) % 2 == 0) ? 1 : 0;
  }
};

}  // namespace

// Resident execution state behind Simulator: architectural registers on
// top of the run loop's memory and runtime (machine/run_loop.h), which
// persist across runs so consecutive restore() calls of the same snapshot
// stay on Memory's delta-restore path. The run loop alternates the hooked
// slow step below with fast_run over the pre-decoded trace (x86/trace.h).
class Machine final : public machine::RunLoop<Machine, SimHook, SimLimits> {
 public:
  static constexpr const char* kName = "Simulator";
  static constexpr const char* kRunHistogram = "x86.run_instructions";

  explicit Machine(const Program& program) : program_(program) {}

 private:
  friend RunLoop;

  /// Lays out a fresh image: data, stack and the halt return address.
  void start() {
    fresh_image();
    state_ = MachineState{};
    memory_.map_range(Layout::kGlobalBase,
                      std::max<std::uint64_t>(program_.data_size, 1));
    for (const auto& seg : program_.data)
      if (!seg.bytes.empty())
        memory_.write_bytes(seg.address, seg.bytes.data(), seg.bytes.size());
    memory_.map_range(Layout::kStackLimit, Layout::kStackSize);

    state_.gpr[RSP] = Layout::kStackTop - 64;  // small red zone below top
    push(kHaltAddress);
    state_.rip_index = program_.entry_index;
  }

  void load(const SimSnapshot& snapshot) { state_ = snapshot.state; }
  void capture(SimSnapshot& snap) const { snap.state = state_; }
  bool same_state(const SimSnapshot& golden) const {
    return std::memcmp(&state_, &golden.state, sizeof state_) == 0;
  }

  std::int64_t exit_value(std::uint64_t) const {
    return static_cast<std::int32_t>(state_.gpr[RAX]);
  }

  /// rip_index advances before execute(), so the faulting instruction's
  /// index is tracked separately (the fetch-bounds trap also lands on the
  /// bad rip fetch() recorded).
  std::uint64_t trap_pc() const { return current_index_; }

  [[noreturn]] void trap(TrapKind kind, std::uint64_t addr,
                         const char* detail = "") {
    throw TrapException(kind, addr, detail);
  }

  // -- register access --------------------------------------------------

  std::uint64_t gpr(RegId r, unsigned width) const {
    assert(is_phys_gpr(r));
    return truncate(state_.gpr[r], width * 8);
  }

  void set_gpr(RegId r, unsigned width, std::uint64_t value) {
    assert(is_phys_gpr(r));
    switch (width) {
      case 8: state_.gpr[r] = value; break;
      case 4: state_.gpr[r] = value & 0xffffffffull; break;  // zero-extends
      case 2: state_.gpr[r] = (state_.gpr[r] & ~0xffffull) | (value & 0xffff); break;
      case 1: state_.gpr[r] = (state_.gpr[r] & ~0xffull) | (value & 0xff); break;
      default: assert(false);
    }
  }

  std::uint64_t& xmm_lo(RegId r) {
    assert(is_phys_xmm(r));
    return state_.xmm[r - kXmmBase][0];
  }
  std::uint64_t& xmm_hi(RegId r) {
    assert(is_phys_xmm(r));
    return state_.xmm[r - kXmmBase][1];
  }

  // -- memory ------------------------------------------------------------

  std::uint64_t effective_address(const MemOperand& mem) const {
    std::uint64_t addr = static_cast<std::uint64_t>(mem.disp);
    if (mem.has_base()) addr += state_.gpr[mem.base];
    if (mem.has_index()) addr += state_.gpr[mem.index] * mem.scale;
    return addr;
  }

  std::uint64_t load(const MemOperand& mem, unsigned width) {
    const std::uint64_t addr = effective_address(mem);
    guard_data_address(addr);
    return memory_.read(addr, width);
  }

  void store(const MemOperand& mem, unsigned width, std::uint64_t value) {
    const std::uint64_t addr = effective_address(mem);
    guard_data_address(addr);
    memory_.write(addr, width, value);
  }

  /// Data accesses into the code region trap (W^X).
  void guard_data_address(std::uint64_t addr) {
    if (addr >= Layout::kCodeBase)
      trap(TrapKind::UnmappedAccess, addr, "code region");
  }

  void push(std::uint64_t value) {
    state_.gpr[RSP] -= 8;
    memory_.write(state_.gpr[RSP], 8, value);
  }

  std::uint64_t pop() {
    const std::uint64_t v = memory_.read(state_.gpr[RSP], 8);
    state_.gpr[RSP] += 8;
    return v;
  }

  // -- flags ---------------------------------------------------------------

  void set_result_flags(std::uint64_t result, unsigned width, bool cf,
                        bool of) {
    const unsigned bits = width * 8;
    const std::uint64_t masked = truncate(result, bits);
    std::uint64_t f = 0;
    if (cf) f |= 1ull << kFlagCF;
    f |= Flags::parity(masked) << kFlagPF;
    if (masked == 0) f |= 1ull << kFlagZF;
    if ((masked >> (bits - 1)) & 1) f |= 1ull << kFlagSF;
    if (of) f |= 1ull << kFlagOF;
    state_.rflags = f;
  }

  void flags_add(std::uint64_t a, std::uint64_t b, unsigned width) {
    const unsigned bits = width * 8;
    const std::uint64_t mask = low_mask(bits);
    const std::uint64_t r = (a + b) & mask;
    const bool cf = r < (a & mask);
    const std::uint64_t sign = 1ull << (bits - 1);
    const bool of = (~(a ^ b) & (a ^ r) & sign) != 0;
    set_result_flags(r, width, cf, of);
  }

  void flags_sub(std::uint64_t a, std::uint64_t b, unsigned width) {
    const unsigned bits = width * 8;
    const std::uint64_t mask = low_mask(bits);
    const std::uint64_t r = (a - b) & mask;
    const bool cf = (a & mask) < (b & mask);
    const std::uint64_t sign = 1ull << (bits - 1);
    const bool of = ((a ^ b) & (a ^ r) & sign) != 0;
    set_result_flags(r, width, cf, of);
  }

  void flags_logic(std::uint64_t result, unsigned width) {
    set_result_flags(result, width, false, false);
  }

  // -- source operand ------------------------------------------------------

  std::uint64_t int_src(const Inst& inst) {
    switch (inst.src_kind) {
      case SrcKind::Reg: return gpr(inst.src, inst.width);
      case SrcKind::Imm: return truncate(static_cast<std::uint64_t>(inst.imm),
                                         inst.width * 8);
      case SrcKind::Mem: return load(inst.mem, inst.width);
      case SrcKind::None: break;
    }
    assert(false && "integer instruction without source");
    return 0;
  }

  double fp_src(const Inst& inst) {
    switch (inst.src_kind) {
      case SrcKind::Reg: return double_of(xmm_lo(inst.src));
      case SrcKind::Mem: return double_of(load(inst.mem, 8));
      default: break;
    }
    assert(false && "fp instruction without source");
    return 0.0;
  }

  // -- slow step ------------------------------------------------------------

  /// The next instruction's index; a rip past the code traps before the
  /// instruction counts.
  std::size_t fetch() {
    current_index_ = state_.rip_index;
    if (state_.rip_index >= program_.code.size())
      trap(TrapKind::InvalidJump, Program::address_of_index(state_.rip_index));
    return state_.rip_index;
  }

  void count_site(std::size_t index) { ++limits_.site_hits[index]; }

  /// The slow step after the run loop's preamble (snapshot, convergence,
  /// count, re-arm); true when the program halted.
  bool step(std::size_t index, std::uint64_t*) {
    const Inst& inst = program_.code[index];
    if (live_hook_ != nullptr) {
      live_hook_->on_before(index, inst);
      deliver_memory(live_hook_, index, inst);
    }
    state_.rip_index = index + 1;  // default fallthrough
    const bool halted = execute(inst);
    if (live_hook_ != nullptr) live_hook_->on_after(index, inst, state_);
    return halted;
  }

  /// Reports the instruction's memory accesses to a live hook before it
  /// executes. Effective addresses come from pre-execution register state
  /// (execute() recomputes them identically), so the report is exact.
  /// Builtin calls read their arguments from the stack without a report —
  /// the only accesses this callback does not see.
  void deliver_memory(SimHook* live, std::size_t index, const Inst& inst) {
    switch (inst.op) {
      case Op::MovMR: case Op::MovMI:
        live->on_memory(index, inst, effective_address(inst.mem), inst.width,
                        /*is_store=*/true);
        return;
      case Op::MovsdMR:
        live->on_memory(index, inst, effective_address(inst.mem), 8,
                        /*is_store=*/true);
        return;
      case Op::Push: case Op::Call:
        live->on_memory(index, inst, state_.gpr[RSP] - 8, 8,
                        /*is_store=*/true);
        return;
      case Op::Pop: case Op::Ret:
        live->on_memory(index, inst, state_.gpr[RSP], 8, /*is_store=*/false);
        return;
      case Op::Lea:
        return;  // address computation only, no access
      default:
        break;
    }
    if (inst.src_kind != SrcKind::Mem) return;
    unsigned size = inst.width;
    switch (inst.op) {
      case Op::MovzxRM: case Op::MovsxRM:
        size = inst.src_width;
        break;
      case Op::MovsdRM: case Op::Addsd: case Op::Subsd: case Op::Mulsd:
      case Op::Divsd: case Op::Sqrtsd: case Op::Ucomisd:
        size = 8;
        break;
      default:
        break;
    }
    live->on_memory(index, inst, effective_address(inst.mem), size,
                    /*is_store=*/false);
  }

  /// Executes pre-decoded uops until `stop` (a dynamic-instruction
  /// count), a state only the slow path handles, or the halt sentinel
  /// (returns true). Side exits re-sync rip so the slow loop resumes at
  /// exactly the state a pure slow run would have; traps re-sync
  /// current_index_ so trap PCs stay exact. The kCount instantiation also
  /// counts every executed instruction into SimLimits::site_hits; the
  /// other one has no counting code at all.
  template <bool kCount>
  bool fast_run(std::uint64_t stop, std::uint64_t*) {
    if (trace_ == nullptr) trace_ = std::make_unique<XTrace>(program_);
    machine::DispatchCounters& dc = machine::dispatch_counters();
    std::size_t ip = state_.rip_index;
    if (ip > program_.code.size()) {
      // Wild resume state: beyond even the fetch sentinel.
      dc.trace_invalidations.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    dc.trace_hits.fetch_add(1, std::memory_order_relaxed);
    const XUOp* const uops = trace_->uops.data();
    [[maybe_unused]] std::uint64_t* const hits = limits_.site_hits;
    try {
      const XUOp* u = nullptr;

#if FAULTLAB_X86_COMPUTED_GOTO
#define FAULTLAB_X86_UOP_LABEL(name) &&x86_lbl_##name,
      static const void* const kLabels[] = {
          FAULTLAB_X86_UOPS(FAULTLAB_X86_UOP_LABEL)};
#undef FAULTLAB_X86_UOP_LABEL
#define X86_OP(name) x86_lbl_##name:
#define X86_NEXT()                                     \
  do {                                                 \
    if (executed_ >= stop) goto x86_side_exit;         \
    u = uops + ip;                                     \
    ++executed_;                                       \
    if constexpr (kCount) ++hits[ip];                  \
    goto* kLabels[static_cast<unsigned>(u->op)];       \
  } while (0)
      X86_NEXT();
#else
#define X86_OP(name) case XOp::name:
#define X86_NEXT() goto x86_dispatch
    x86_dispatch:
      if (executed_ >= stop) goto x86_side_exit;
      u = uops + ip;
      ++executed_;
      if constexpr (kCount) ++hits[ip];
      switch (u->op) {
#endif

      X86_OP(MovRR) {
        const Inst& inst = *u->inst;
        set_gpr(inst.dst, inst.width, gpr(inst.src, inst.width));
        ++ip;
        X86_NEXT();
      }
      X86_OP(MovRI) {
        const Inst& inst = *u->inst;
        set_gpr(inst.dst, inst.width, static_cast<std::uint64_t>(inst.imm));
        ++ip;
        X86_NEXT();
      }
      X86_OP(MovRM) {
        const Inst& inst = *u->inst;
        set_gpr(inst.dst, inst.width, load(inst.mem, inst.width));
        ++ip;
        X86_NEXT();
      }
      X86_OP(MovMR) {
        const Inst& inst = *u->inst;
        store(inst.mem, inst.width, gpr(inst.dst, inst.width));
        ++ip;
        X86_NEXT();
      }
      X86_OP(MovMI) {
        const Inst& inst = *u->inst;
        store(inst.mem, inst.width, static_cast<std::uint64_t>(inst.imm));
        ++ip;
        X86_NEXT();
      }
      X86_OP(MovzxRR) {
        const Inst& inst = *u->inst;
        set_gpr(inst.dst, 8, gpr(inst.src, inst.src_width));
        ++ip;
        X86_NEXT();
      }
      X86_OP(MovzxRM) {
        const Inst& inst = *u->inst;
        set_gpr(inst.dst, 8, load(inst.mem, inst.src_width));
        ++ip;
        X86_NEXT();
      }
      X86_OP(MovsxRR) {
        const Inst& inst = *u->inst;
        set_gpr(inst.dst, 8,
                static_cast<std::uint64_t>(sign_extend(
                    gpr(inst.src, inst.src_width), inst.src_width * 8)));
        ++ip;
        X86_NEXT();
      }
      X86_OP(MovsxRM) {
        const Inst& inst = *u->inst;
        set_gpr(inst.dst, 8,
                static_cast<std::uint64_t>(sign_extend(
                    load(inst.mem, inst.src_width), inst.src_width * 8)));
        ++ip;
        X86_NEXT();
      }
      X86_OP(Lea) {
        const Inst& inst = *u->inst;
        set_gpr(inst.dst, 8, effective_address(inst.mem));
        ++ip;
        X86_NEXT();
      }
      X86_OP(Push) {
        push(state_.gpr[u->inst->dst]);
        ++ip;
        X86_NEXT();
      }
      X86_OP(Pop) {
        set_gpr(u->inst->dst, 8, pop());
        ++ip;
        X86_NEXT();
      }
      X86_OP(Add) {
        const Inst& inst = *u->inst;
        const unsigned w = inst.width;
        const std::uint64_t a = gpr(inst.dst, w), b = int_src(inst);
        flags_add(a, b, w);
        set_gpr(inst.dst, w, a + b);
        ++ip;
        X86_NEXT();
      }
      X86_OP(Sub) {
        const Inst& inst = *u->inst;
        const unsigned w = inst.width;
        const std::uint64_t a = gpr(inst.dst, w), b = int_src(inst);
        flags_sub(a, b, w);
        set_gpr(inst.dst, w, a - b);
        ++ip;
        X86_NEXT();
      }
      X86_OP(Imul) {
        const Inst& inst = *u->inst;
        const unsigned w = inst.width;
        const unsigned bits = w * 8;
        const std::int64_t a = sign_extend(gpr(inst.dst, w), bits);
        const std::int64_t b = sign_extend(int_src(inst), bits);
        const __int128 wide = static_cast<__int128>(a) * b;
        const std::uint64_t r =
            truncate(static_cast<std::uint64_t>(wide), bits);
        const bool overflow = wide != sign_extend(r, bits);
        set_result_flags(r, w, overflow, overflow);
        set_gpr(inst.dst, w, r);
        ++ip;
        X86_NEXT();
      }
      X86_OP(And) {
        const Inst& inst = *u->inst;
        const unsigned w = inst.width;
        const std::uint64_t r = gpr(inst.dst, w) & int_src(inst);
        flags_logic(r, w);
        set_gpr(inst.dst, w, r);
        ++ip;
        X86_NEXT();
      }
      X86_OP(Or) {
        const Inst& inst = *u->inst;
        const unsigned w = inst.width;
        const std::uint64_t r = gpr(inst.dst, w) | int_src(inst);
        flags_logic(r, w);
        set_gpr(inst.dst, w, r);
        ++ip;
        X86_NEXT();
      }
      X86_OP(Xor) {
        const Inst& inst = *u->inst;
        const unsigned w = inst.width;
        const std::uint64_t r = gpr(inst.dst, w) ^ int_src(inst);
        flags_logic(r, w);
        set_gpr(inst.dst, w, r);
        ++ip;
        X86_NEXT();
      }
      X86_OP(Shl) {
        const Inst& inst = *u->inst;
        const unsigned w = inst.width;
        const unsigned bits = w * 8;
        const std::uint64_t a = gpr(inst.dst, w);
        const unsigned count = static_cast<unsigned>(
            int_src(inst) & (bits >= 64 ? 63 : 31));
        const std::uint64_t r = truncate(a << count, bits);
        bool cf = false;
        if (count > 0 && count <= bits) cf = (a >> (bits - count)) & 1;
        set_result_flags(r, w, cf, false);
        set_gpr(inst.dst, w, r);
        ++ip;
        X86_NEXT();
      }
      X86_OP(Sar) {
        const Inst& inst = *u->inst;
        const unsigned w = inst.width;
        const unsigned bits = w * 8;
        const std::uint64_t a = gpr(inst.dst, w);
        const unsigned count = static_cast<unsigned>(
            int_src(inst) & (bits >= 64 ? 63 : 31));
        const std::uint64_t r = truncate(
            static_cast<std::uint64_t>(sign_extend(a, bits) >> count), bits);
        bool cf = false;
        if (count > 0) cf = (sign_extend(a, bits) >> (count - 1)) & 1;
        set_result_flags(r, w, cf, false);
        set_gpr(inst.dst, w, r);
        ++ip;
        X86_NEXT();
      }
      X86_OP(Shr) {
        const Inst& inst = *u->inst;
        const unsigned w = inst.width;
        const unsigned bits = w * 8;
        const std::uint64_t a = gpr(inst.dst, w);
        const unsigned count = static_cast<unsigned>(
            int_src(inst) & (bits >= 64 ? 63 : 31));
        const std::uint64_t r = truncate(a, bits) >> count;
        bool cf = false;
        if (count > 0) cf = (a >> (count - 1)) & 1;
        set_result_flags(r, w, cf, false);
        set_gpr(inst.dst, w, r);
        ++ip;
        X86_NEXT();
      }
      X86_OP(Neg) {
        const Inst& inst = *u->inst;
        const unsigned w = inst.width;
        const std::uint64_t a = gpr(inst.dst, w);
        flags_sub(0, a, w);
        set_gpr(inst.dst, w, 0 - a);
        ++ip;
        X86_NEXT();
      }
      X86_OP(Not) {
        const Inst& inst = *u->inst;
        set_gpr(inst.dst, inst.width, ~gpr(inst.dst, inst.width));
        ++ip;
        X86_NEXT();
      }
      X86_OP(Idiv) {
        const Inst& inst = *u->inst;
        const unsigned w = inst.width;
        const unsigned bits = w * 8;
        const std::int64_t a = sign_extend(gpr(inst.dst, w), bits);
        const std::int64_t b = sign_extend(int_src(inst), bits);
        if (b == 0) trap(TrapKind::DivideByZero, 0);
        const std::int64_t min =
            bits >= 64 ? std::numeric_limits<std::int64_t>::min()
                       : -(std::int64_t{1} << (bits - 1));
        if (b == -1 && a == min)
          trap(TrapKind::DivideByZero, 0, "division overflow");
        const std::int64_t r = a / b;
        set_result_flags(static_cast<std::uint64_t>(r), w, false, false);
        set_gpr(inst.dst, w, static_cast<std::uint64_t>(r));
        ++ip;
        X86_NEXT();
      }
      X86_OP(Irem) {
        const Inst& inst = *u->inst;
        const unsigned w = inst.width;
        const unsigned bits = w * 8;
        const std::int64_t a = sign_extend(gpr(inst.dst, w), bits);
        const std::int64_t b = sign_extend(int_src(inst), bits);
        if (b == 0) trap(TrapKind::DivideByZero, 0);
        const std::int64_t min =
            bits >= 64 ? std::numeric_limits<std::int64_t>::min()
                       : -(std::int64_t{1} << (bits - 1));
        if (b == -1 && a == min)
          trap(TrapKind::DivideByZero, 0, "division overflow");
        const std::int64_t r = a % b;
        set_result_flags(static_cast<std::uint64_t>(r), w, false, false);
        set_gpr(inst.dst, w, static_cast<std::uint64_t>(r));
        ++ip;
        X86_NEXT();
      }
      X86_OP(Cmp) {
        const Inst& inst = *u->inst;
        flags_sub(gpr(inst.dst, inst.width), int_src(inst), inst.width);
        ++ip;
        X86_NEXT();
      }
      X86_OP(Test) {
        const Inst& inst = *u->inst;
        flags_logic(gpr(inst.dst, inst.width) & int_src(inst), inst.width);
        ++ip;
        X86_NEXT();
      }
      X86_OP(Setcc) {
        const Inst& inst = *u->inst;
        set_gpr(inst.dst, 1, cond_holds(inst.cond, state_.rflags) ? 1 : 0);
        ++ip;
        X86_NEXT();
      }
      X86_OP(Cmov) {
        const Inst& inst = *u->inst;
        if (cond_holds(inst.cond, state_.rflags))
          set_gpr(inst.dst, inst.width, int_src(inst));
        ++ip;
        X86_NEXT();
      }
      X86_OP(Jmp) {
        if (!u->target_ok)
          trap(TrapKind::InvalidJump, Program::address_of_index(u->target));
        ip = u->target;
        X86_NEXT();
      }
      X86_OP(Jcc) {
        if (cond_holds(u->inst->cond, state_.rflags)) {
          if (!u->target_ok)
            trap(TrapKind::InvalidJump, Program::address_of_index(u->target));
          ip = u->target;
        } else {
          ++ip;
        }
        X86_NEXT();
      }
      X86_OP(Call) {
        // Push before validating, like the slow path's rip-then-jump_to.
        push(u->ret_addr);
        if (!u->target_ok)
          trap(TrapKind::InvalidJump, Program::address_of_index(u->target));
        ip = u->target;
        X86_NEXT();
      }
      X86_OP(CallBuiltin) {
        const Inst& inst = *u->inst;
        if (u->sig == nullptr) goto x86_side_exit;  // slow path owns failure
        // Inner scope: an indirect goto (X86_NEXT) skips destructors, so
        // the argument vector must die before the dispatch jump.
        {
          std::vector<std::uint64_t> args(inst.arg_slots);
          for (std::uint16_t i = 0; i < inst.arg_slots; ++i)
            args[i] = memory_.read(state_.gpr[RSP] + 8ull * i, 8);
          const std::uint64_t r = runtime_.call_builtin(u->sig->name, args);
          if (u->sig->returns_value) {
            if (u->sig->returns_double) {
              xmm_lo(kXmmBase + 0) = r;
              xmm_hi(kXmmBase + 0) = 0;
            } else {
              state_.gpr[RAX] = r;
            }
          }
        }
        ++ip;
        X86_NEXT();
      }
      X86_OP(Ret) {
        const std::uint64_t addr = pop();
        if (addr == kHaltAddress) return true;
        const std::int64_t index = program_.index_of_address(addr);
        if (index < 0) trap(TrapKind::InvalidJump, addr);
        ip = static_cast<std::size_t>(index);
        X86_NEXT();
      }
      X86_OP(MovsdRR) {
        xmm_lo(u->inst->dst) = xmm_lo(u->inst->src);  // merges: high kept
        ++ip;
        X86_NEXT();
      }
      X86_OP(MovsdRM) {
        const Inst& inst = *u->inst;
        xmm_lo(inst.dst) = load(inst.mem, 8);
        xmm_hi(inst.dst) = 0;  // movsd xmm, m64 zeroes the upper lane
        ++ip;
        X86_NEXT();
      }
      X86_OP(MovsdMR) {
        const Inst& inst = *u->inst;
        store(inst.mem, 8, xmm_lo(inst.dst));
        ++ip;
        X86_NEXT();
      }
      X86_OP(Addsd) {
        const Inst& inst = *u->inst;
        xmm_lo(inst.dst) =
            bits_of(double_of(xmm_lo(inst.dst)) + fp_src(inst));
        ++ip;
        X86_NEXT();
      }
      X86_OP(Subsd) {
        const Inst& inst = *u->inst;
        xmm_lo(inst.dst) =
            bits_of(double_of(xmm_lo(inst.dst)) - fp_src(inst));
        ++ip;
        X86_NEXT();
      }
      X86_OP(Mulsd) {
        const Inst& inst = *u->inst;
        xmm_lo(inst.dst) =
            bits_of(double_of(xmm_lo(inst.dst)) * fp_src(inst));
        ++ip;
        X86_NEXT();
      }
      X86_OP(Divsd) {
        const Inst& inst = *u->inst;
        xmm_lo(inst.dst) =
            bits_of(double_of(xmm_lo(inst.dst)) / fp_src(inst));
        ++ip;
        X86_NEXT();
      }
      X86_OP(Sqrtsd) {
        const Inst& inst = *u->inst;
        xmm_lo(inst.dst) = bits_of(std::sqrt(fp_src(inst)));
        ++ip;
        X86_NEXT();
      }
      X86_OP(Ucomisd) {
        const Inst& inst = *u->inst;
        const double a = double_of(xmm_lo(inst.dst));
        const double b = fp_src(inst);
        std::uint64_t f = 0;
        if (std::isnan(a) || std::isnan(b)) {
          f = (1ull << kFlagZF) | (1ull << kFlagPF) | (1ull << kFlagCF);
        } else if (a == b) {
          f = 1ull << kFlagZF;
        } else if (a < b) {
          f = 1ull << kFlagCF;
        }
        state_.rflags = f;
        ++ip;
        X86_NEXT();
      }
      X86_OP(Cvtsi2sd) {
        const Inst& inst = *u->inst;
        const std::int64_t v = sign_extend(gpr(inst.src, inst.src_width),
                                           inst.src_width * 8);
        xmm_lo(inst.dst) = bits_of(static_cast<double>(v));
        ++ip;
        X86_NEXT();
      }
      X86_OP(Cvttsd2si) {
        const Inst& inst = *u->inst;
        const double d = fp_src(inst);
        std::int64_t out;
        if (std::isnan(d) || d >= 9.2233720368547758e18 ||
            d < -9.2233720368547758e18)
          out = std::numeric_limits<std::int64_t>::min();
        else
          out = static_cast<std::int64_t>(d);
        set_gpr(inst.dst, inst.width, static_cast<std::uint64_t>(out));
        ++ip;
        X86_NEXT();
      }
      X86_OP(MovqXR) {
        const Inst& inst = *u->inst;
        xmm_lo(inst.dst) = state_.gpr[inst.src];
        xmm_hi(inst.dst) = 0;
        ++ip;
        X86_NEXT();
      }
      X86_OP(MovqRX) {
        const Inst& inst = *u->inst;
        set_gpr(inst.dst, 8, xmm_lo(inst.src));
        ++ip;
        X86_NEXT();
      }
      X86_OP(TrapFetch) {
        // The slow loop's fetch-bounds check traps before counting the
        // instruction; undo this dispatch's bumps to match.
        --executed_;
        if constexpr (kCount) --hits[ip];
        trap(TrapKind::InvalidJump, Program::address_of_index(ip));
      }

#if !FAULTLAB_X86_COMPUTED_GOTO
        default:
          goto x86_side_exit;
      }
#endif
#undef X86_OP
#undef X86_NEXT

    x86_side_exit:
      state_.rip_index = ip;
      dc.trace_invalidations.fetch_add(1, std::memory_order_relaxed);
      return false;
    } catch (...) {
      // current_index_ is the slow loop's trap-pc source; point it at the
      // op that threw so drive() reports the same PC either way.
      current_index_ = ip;
      throw;
    }
  }

  bool execute(const Inst& inst) {
    const unsigned w = inst.width;
    switch (inst.op) {
      case Op::MovRR: set_gpr(inst.dst, w, gpr(inst.src, w)); return false;
      case Op::MovRI:
        set_gpr(inst.dst, w, static_cast<std::uint64_t>(inst.imm));
        return false;
      case Op::MovRM: set_gpr(inst.dst, w, load(inst.mem, w)); return false;
      case Op::MovMR: store(inst.mem, w, gpr(inst.dst, w)); return false;
      case Op::MovMI:
        store(inst.mem, w, static_cast<std::uint64_t>(inst.imm));
        return false;
      case Op::MovzxRR:
        set_gpr(inst.dst, 8, gpr(inst.src, inst.src_width));
        return false;
      case Op::MovzxRM:
        set_gpr(inst.dst, 8, load(inst.mem, inst.src_width));
        return false;
      case Op::MovsxRR:
        set_gpr(inst.dst, 8,
                static_cast<std::uint64_t>(sign_extend(
                    gpr(inst.src, inst.src_width), inst.src_width * 8)));
        return false;
      case Op::MovsxRM:
        set_gpr(inst.dst, 8,
                static_cast<std::uint64_t>(sign_extend(
                    load(inst.mem, inst.src_width), inst.src_width * 8)));
        return false;
      case Op::Lea:
        set_gpr(inst.dst, 8, effective_address(inst.mem));
        return false;
      case Op::Push: push(state_.gpr[inst.dst]); return false;
      case Op::Pop: set_gpr(inst.dst, 8, pop()); return false;

      case Op::Add: {
        const std::uint64_t a = gpr(inst.dst, w), b = int_src(inst);
        flags_add(a, b, w);
        set_gpr(inst.dst, w, a + b);
        return false;
      }
      case Op::Sub: {
        const std::uint64_t a = gpr(inst.dst, w), b = int_src(inst);
        flags_sub(a, b, w);
        set_gpr(inst.dst, w, a - b);
        return false;
      }
      case Op::Imul: {
        const unsigned bits = w * 8;
        const std::int64_t a = sign_extend(gpr(inst.dst, w), bits);
        const std::int64_t b = sign_extend(int_src(inst), bits);
        const __int128 wide = static_cast<__int128>(a) * b;
        const std::uint64_t r = truncate(static_cast<std::uint64_t>(wide), bits);
        const bool overflow = wide != sign_extend(r, bits);
        set_result_flags(r, w, overflow, overflow);
        set_gpr(inst.dst, w, r);
        return false;
      }
      case Op::And: case Op::Or: case Op::Xor: {
        const std::uint64_t a = gpr(inst.dst, w), b = int_src(inst);
        const std::uint64_t r = inst.op == Op::And ? (a & b)
                              : inst.op == Op::Or ? (a | b)
                                                  : (a ^ b);
        flags_logic(r, w);
        set_gpr(inst.dst, w, r);
        return false;
      }
      case Op::Shl: case Op::Sar: case Op::Shr: {
        const unsigned bits = w * 8;
        const std::uint64_t a = gpr(inst.dst, w);
        const unsigned count = static_cast<unsigned>(
            int_src(inst) & (bits >= 64 ? 63 : 31));
        std::uint64_t r;
        bool cf = false;
        if (inst.op == Op::Shl) {
          r = truncate(a << count, bits);
          if (count > 0 && count <= bits) cf = (a >> (bits - count)) & 1;
        } else if (inst.op == Op::Shr) {
          r = truncate(a, bits) >> count;
          if (count > 0) cf = (a >> (count - 1)) & 1;
        } else {
          r = truncate(static_cast<std::uint64_t>(
                           sign_extend(a, bits) >> count), bits);
          if (count > 0) cf = (sign_extend(a, bits) >> (count - 1)) & 1;
        }
        set_result_flags(r, w, cf, false);
        set_gpr(inst.dst, w, r);
        return false;
      }
      case Op::Neg: {
        const std::uint64_t a = gpr(inst.dst, w);
        flags_sub(0, a, w);
        set_gpr(inst.dst, w, 0 - a);
        return false;
      }
      case Op::Not:
        set_gpr(inst.dst, w, ~gpr(inst.dst, w));
        return false;
      case Op::Idiv: case Op::Irem: {
        const unsigned bits = w * 8;
        const std::int64_t a = sign_extend(gpr(inst.dst, w), bits);
        const std::int64_t b = sign_extend(int_src(inst), bits);
        if (b == 0) trap(TrapKind::DivideByZero, 0);
        const std::int64_t min =
            bits >= 64 ? std::numeric_limits<std::int64_t>::min()
                       : -(std::int64_t{1} << (bits - 1));
        if (b == -1 && a == min)
          trap(TrapKind::DivideByZero, 0, "division overflow");
        const std::int64_t r = inst.op == Op::Idiv ? a / b : a % b;
        set_result_flags(static_cast<std::uint64_t>(r), w, false, false);
        set_gpr(inst.dst, w, static_cast<std::uint64_t>(r));
        return false;
      }
      case Op::Cmp:
        flags_sub(gpr(inst.dst, w), int_src(inst), w);
        return false;
      case Op::Test:
        flags_logic(gpr(inst.dst, w) & int_src(inst), w);
        return false;
      case Op::Setcc:
        set_gpr(inst.dst, 1, cond_holds(inst.cond, state_.rflags) ? 1 : 0);
        return false;
      case Op::Cmov:
        if (cond_holds(inst.cond, state_.rflags))
          set_gpr(inst.dst, w, int_src(inst));
        return false;

      case Op::Jmp:
        jump_to(inst.target);
        return false;
      case Op::Jcc:
        if (cond_holds(inst.cond, state_.rflags)) jump_to(inst.target);
        return false;
      case Op::Call: {
        push(Program::address_of_index(state_.rip_index));
        jump_to(inst.target);
        return false;
      }
      case Op::CallBuiltin: {
        const BuiltinSig& sig = program_.builtins.at(
            static_cast<std::size_t>(inst.target));
        std::vector<std::uint64_t> args(inst.arg_slots);
        for (std::uint16_t i = 0; i < inst.arg_slots; ++i)
          args[i] = memory_.read(state_.gpr[RSP] + 8ull * i, 8);
        const std::uint64_t r = runtime_.call_builtin(sig.name, args);
        if (sig.returns_value) {
          if (sig.returns_double) {
            xmm_lo(kXmmBase + 0) = r;
            xmm_hi(kXmmBase + 0) = 0;
          } else {
            state_.gpr[RAX] = r;
          }
        }
        return false;
      }
      case Op::Ret: {
        const std::uint64_t addr = pop();
        if (addr == kHaltAddress) return true;
        const std::int64_t index = program_.index_of_address(addr);
        if (index < 0) trap(TrapKind::InvalidJump, addr);
        state_.rip_index = static_cast<std::uint64_t>(index);
        return false;
      }

      case Op::MovsdRR:
        xmm_lo(inst.dst) = xmm_lo(inst.src);  // merges: high lane kept
        return false;
      case Op::MovsdRM:
        xmm_lo(inst.dst) = load(inst.mem, 8);
        xmm_hi(inst.dst) = 0;  // movsd xmm, m64 zeroes the upper lane
        return false;
      case Op::MovsdMR:
        store(inst.mem, 8, xmm_lo(inst.dst));
        return false;
      case Op::Addsd: case Op::Subsd: case Op::Mulsd: case Op::Divsd: {
        const double a = double_of(xmm_lo(inst.dst));
        const double b = fp_src(inst);
        double r;
        switch (inst.op) {
          case Op::Addsd: r = a + b; break;
          case Op::Subsd: r = a - b; break;
          case Op::Mulsd: r = a * b; break;
          default: r = a / b; break;
        }
        xmm_lo(inst.dst) = bits_of(r);
        return false;
      }
      case Op::Sqrtsd:
        xmm_lo(inst.dst) = bits_of(std::sqrt(fp_src(inst)));
        return false;
      case Op::Ucomisd: {
        const double a = double_of(xmm_lo(inst.dst));
        const double b = fp_src(inst);
        std::uint64_t f = 0;
        if (std::isnan(a) || std::isnan(b)) {
          f = (1ull << kFlagZF) | (1ull << kFlagPF) | (1ull << kFlagCF);
        } else if (a == b) {
          f = 1ull << kFlagZF;
        } else if (a < b) {
          f = 1ull << kFlagCF;
        }
        state_.rflags = f;
        return false;
      }
      case Op::Cvtsi2sd: {
        const std::int64_t v = sign_extend(gpr(inst.src, inst.src_width),
                                           inst.src_width * 8);
        xmm_lo(inst.dst) = bits_of(static_cast<double>(v));
        return false;
      }
      case Op::Cvttsd2si: {
        const double d = fp_src(inst);
        std::int64_t out;
        if (std::isnan(d) || d >= 9.2233720368547758e18 ||
            d < -9.2233720368547758e18)
          out = std::numeric_limits<std::int64_t>::min();
        else
          out = static_cast<std::int64_t>(d);
        set_gpr(inst.dst, w, static_cast<std::uint64_t>(out));
        return false;
      }
      case Op::MovqXR:
        xmm_lo(inst.dst) = state_.gpr[inst.src];
        xmm_hi(inst.dst) = 0;
        return false;
      case Op::MovqRX:
        set_gpr(inst.dst, 8, xmm_lo(inst.src));
        return false;
    }
    trap(TrapKind::Unreachable, state_.rip_index, op_name(inst.op));
  }

  void jump_to(std::int64_t target) {
    if (target < 0 ||
        static_cast<std::size_t>(target) >= program_.code.size())
      trap(TrapKind::InvalidJump,
           Program::address_of_index(static_cast<std::size_t>(target)));
    state_.rip_index = static_cast<std::uint64_t>(target);
  }

  const Program& program_;
  MachineState state_;
  std::uint64_t current_index_ = 0;  // instruction being executed (trap_pc)
  std::unique_ptr<XTrace> trace_;  // decoded on first fast-path entry
};

Simulator::Simulator(const Program& program, SimHook* hook)
    : program_(program), hook_(hook) {}

Simulator::~Simulator() = default;

SimResult Simulator::run(const SimLimits& limits) {
  return Machine::resident(machine_, program_).run(hook_, limits);
}

machine::Memory::RestoreStats Simulator::restore(
    const SimSnapshot& snapshot) {
  return Machine::resident(machine_, program_).restore(snapshot);
}

SimResult Simulator::resume(const SimLimits& limits) {
  return Machine::resume(machine_.get(), hook_, limits);
}

}  // namespace faultlab::x86
