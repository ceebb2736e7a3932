#include "vm/interpreter.h"

#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "machine/dispatch.h"
#include "support/bitutil.h"
#include "vm/trace.h"

// Computed-goto threaded dispatch for the fast path; define
// FAULTLAB_NO_COMPUTED_GOTO (or build with a compiler lacking the
// extension) to fall back to a portable switch with identical semantics.
#if (defined(__GNUC__) || defined(__clang__)) && \
    !defined(FAULTLAB_NO_COMPUTED_GOTO)
#define FAULTLAB_VM_COMPUTED_GOTO 1
#else
#define FAULTLAB_VM_COMPUTED_GOTO 0
#endif

namespace faultlab::vm {

namespace {

using ir::Opcode;
using machine::Layout;
using machine::TrapException;
using machine::TrapKind;

std::uint64_t type_mask(const ir::Type* t) {
  return faultlab::low_mask(t->register_bits());
}

}  // namespace

// Execution keeps the call-frame stack as explicit data (frames_) instead
// of recursing on the native stack, so the complete interpreter state can
// be captured into a Snapshot between any two dynamic instructions and
// resumed later — the basis of checkpointed fault-injection trials. The
// run loop (machine/run_loop.h) drives two paths over that state: the
// hooked slow step below and fast_run, which executes pre-decoded micro-op
// traces (vm/trace.h) between the boundaries the run loop computes.
class Interpreter::Impl final
    : public machine::RunLoop<Interpreter::Impl, ExecHook, RunLimits> {
 public:
  using Frame = Snapshot::Frame;
  static constexpr const char* kName = "Interpreter";
  static constexpr const char* kRunHistogram = "vm.run_instructions";

  Impl(const ir::Module& module, const machine::GlobalLayout& layout)
      : module_(module), layout_(layout), cache_(layout) {}

 private:
  friend RunLoop;

  /// Lays out a fresh image and enters `entry` (no arguments).
  void start(const std::string& entry) {
    const ir::Function* main_fn = module_.find_function(entry);
    if (main_fn == nullptr || main_fn->is_builtin())
      throw std::invalid_argument("no such entry function: " + entry);
    fresh_image();
    frames_.clear();
    next_frame_id_ = 1;
    layout_.materialize(memory_);
    memory_.map_range(Layout::kStackLimit, Layout::kStackSize);
    sp_ = Layout::kStackTop;
    push_frame(*main_fn, {}, nullptr, 0);
    entry_fn_ = main_fn;
  }

  void load(const Snapshot& snapshot) {
    assert(!snapshot.frames.empty() && "snapshot of a finished run");
    // Copy-assign reuses the resident vectors' capacity (including each
    // frame's register file), so only the state that actually ran since
    // the last restore gets rewritten/reallocated.
    frames_ = snapshot.frames;
    sp_ = snapshot.sp;
    next_frame_id_ = snapshot.next_frame_id;
    entry_fn_ = frames_.front().function;
  }

  void capture(Snapshot& snap) const {
    snap.frames = frames_;
    snap.sp = sp_;
    snap.next_frame_id = next_frame_id_;
  }

  bool same_state(const Snapshot& golden) const {
    return sp_ == golden.sp && next_frame_id_ == golden.next_frame_id &&
           frames_ == golden.frames;
  }

  std::int64_t exit_value(std::uint64_t raw) const {
    const ir::Type* rt = entry_fn_->return_type();
    return rt->is_int() ? sign_extend(raw, rt->int_bits())
                        : static_cast<std::int64_t>(raw);
  }

  /// The frame stack is intact when a trap reaches the run loop, so the
  /// innermost frame still points at the instruction that trapped (indices
  /// advance only after an instruction completes; the fast paths re-sync
  /// frame.index before resolving the trap).
  std::uint64_t trap_pc() const {
    if (!frames_.empty()) {
      const Frame& top = frames_.back();
      if (top.block != nullptr && top.index < top.block->size())
        return top.block->instr(top.index)->id();
    }
    return 0;
  }

  std::uint64_t read_operand(Frame& frame, const ir::Instruction& user,
                             const ir::Value* v) {
    switch (v->vkind()) {
      case ir::ValueKind::ConstantInt:
        return static_cast<const ir::ConstantInt*>(v)->raw();
      case ir::ValueKind::ConstantDouble:
        return bits_of(static_cast<const ir::ConstantDouble*>(v)->value());
      case ir::ValueKind::ConstantNull:
        return 0;
      case ir::ValueKind::GlobalVariable:
        return layout_.address_of(static_cast<const ir::GlobalVariable*>(v));
      case ir::ValueKind::Argument: {
        const auto* arg = static_cast<const ir::Argument*>(v);
        if (live_hook_ != nullptr)
          live_hook_->on_argument_read(frame.id, arg->index(), user);
        return frame.args[arg->index()];
      }
      case ir::ValueKind::Instruction: {
        const auto* def = static_cast<const ir::Instruction*>(v);
        if (live_hook_ != nullptr)
          live_hook_->on_operand_read({frame.id, def}, user);
        return frame.regs[def->id()];
      }
    }
    return 0;
  }

  [[noreturn]] static void trap(TrapKind kind, std::uint64_t addr,
                                const char* detail = "") {
    throw TrapException(kind, addr, detail);
  }

  void push_frame(const ir::Function& fn, std::vector<std::uint64_t> args,
                  const ir::CallInst* site, std::uint64_t caller_frame) {
    if (frames_.size() >= kMaxCallDepth)
      trap(TrapKind::StackOverflow, sp_, "call depth");

    Frame frame;
    frame.function = &fn;
    frame.id = next_frame_id_++;
    frame.args = std::move(args);
    if (live_hook_ != nullptr && site != nullptr)
      live_hook_->on_call(*site, caller_frame, frame.id);
    frame.regs.assign(fn.num_instructions(), 0);

    // Allocate the frame's stack slots (allocas) in one adjustment, the way
    // a real prologue would.
    std::uint64_t frame_size = 0;
    std::vector<const ir::AllocaInst*> allocas;
    for (const auto& bb : fn.blocks()) {
      for (const auto& instr : bb->instructions()) {
        if (auto* al = dynamic_cast<const ir::AllocaInst*>(instr.get())) {
          const auto align = std::max<std::uint64_t>(al->allocated_type()->alignment(), 1);
          frame_size = (frame_size + align - 1) / align * align;
          frame_size += al->allocated_type()->size_in_bytes();
          allocas.push_back(al);
        }
      }
    }
    frame_size = (frame_size + 15) / 16 * 16;
    if (sp_ < Layout::kStackLimit + frame_size)
      trap(TrapKind::StackOverflow, sp_);
    frame.saved_sp = sp_;
    sp_ -= frame_size;
    std::uint64_t cursor = sp_;
    for (const ir::AllocaInst* al : allocas) {
      const auto align = std::max<std::uint64_t>(al->allocated_type()->alignment(), 1);
      cursor = (cursor + align - 1) / align * align;
      frame.regs[al->id()] = cursor;
      cursor += al->allocated_type()->size_in_bytes();
    }

    frame.block = fn.entry();
    frame.prev_block = nullptr;
    frame.index = 0;
    frame.call_site = site;
    frames_.push_back(std::move(frame));
  }

  /// Fast-path twin of push_frame: identical trap order, frame layout and
  /// id consumption, with the alloca walk replaced by the function's
  /// pre-computed plan. Only runs hook-free (no on_call callout).
  void push_frame_fast(TraceFunction& tf, std::vector<std::uint64_t> args,
                       const ir::CallInst* site) {
    if (frames_.size() >= kMaxCallDepth)
      trap(TrapKind::StackOverflow, sp_, "call depth");
    Frame frame;
    frame.function = tf.fn;
    frame.id = next_frame_id_++;
    frame.args = std::move(args);
    frame.regs.assign(tf.num_instructions, 0);
    if (sp_ < Layout::kStackLimit + tf.frame_size)
      trap(TrapKind::StackOverflow, sp_);
    frame.saved_sp = sp_;
    sp_ -= tf.frame_size;
    std::uint64_t cursor = sp_;
    for (const AllocaPlan& al : tf.allocas) {
      cursor = (cursor + al.align - 1) / al.align * al.align;
      frame.regs[al.reg] = cursor;
      cursor += al.size;
    }
    frame.block = tf.fn->entry();
    frame.prev_block = nullptr;
    frame.index = 0;
    frame.call_site = site;
    frames_.push_back(std::move(frame));
  }

  struct Fetched {
    Frame* frame;
    const ir::Instruction* instr;
  };

  Fetched fetch() {
    Frame& frame = frames_.back();
    return {&frame, frame.block->instr(frame.index)};
  }

  /// The slow step after the run loop's preamble (snapshot, convergence,
  /// count, re-arm). Returns true when the entry frame returned, with the
  /// raw return value in *ret.
  bool step(const Fetched& at, std::uint64_t* ret) {
    Frame& frame = *at.frame;
    const ir::Instruction& instr = *at.instr;
    if (live_hook_ != nullptr) live_hook_->on_instruction(instr);

    switch (instr.opcode()) {
      case Opcode::Phi: {
        // Evaluate the whole phi group atomically against prev_block.
        std::size_t index = frame.index;
        std::vector<std::pair<const ir::Instruction*, std::uint64_t>> updates;
        while (true) {
          const auto& phi =
              static_cast<const ir::PhiInst&>(*frame.block->instr(index));
          const ir::Value* in = phi.value_for_block(frame.prev_block);
          assert(in != nullptr && "phi has no edge for predecessor");
          updates.emplace_back(&phi, read_operand(frame, phi, in));
          if (index + 1 >= frame.block->size() ||
              frame.block->instr(index + 1)->opcode() != Opcode::Phi)
            break;
          ++index;
          bump_instruction_count();
          if (limits_.site_hits != nullptr)
            count_site({&frame, frame.block->instr(index)});
          if (live_hook_ != nullptr)
            live_hook_->on_instruction(*frame.block->instr(index));
        }
        for (auto& [phi, raw] : updates) set_result(frame, *phi, raw);
        frame.index = index + 1;
        return false;
      }
      case Opcode::Br: {
        const auto& br = static_cast<const ir::BranchInst&>(instr);
        const ir::BasicBlock* next;
        if (br.is_conditional()) {
          const std::uint64_t cond =
              read_operand(frame, instr, br.condition()) & 1;
          next = cond ? br.true_target() : br.false_target();
        } else {
          next = br.true_target();
        }
        frame.prev_block = frame.block;
        frame.block = next;
        frame.index = 0;
        return false;
      }
      case Opcode::Ret: {
        const auto& ret_inst = static_cast<const ir::RetInst&>(instr);
        const std::uint64_t raw =
            ret_inst.has_value() ? read_operand(frame, instr, ret_inst.value())
                                 : 0;
        sp_ = frame.saved_sp;
        const ir::Instruction* site = frame.call_site;
        frames_.pop_back();
        if (frames_.empty()) {
          *ret = raw;
          return true;
        }
        Frame& caller = frames_.back();
        if (site->has_result()) set_result(caller, *site, raw);
        ++caller.index;
        return false;
      }
      case Opcode::Store: {
        const std::uint64_t value =
            read_operand(frame, instr, instr.operand(0));
        const std::uint64_t addr =
            read_operand(frame, instr, instr.operand(1));
        const ir::Type* t = instr.operand(0)->type();
        const auto size = static_cast<unsigned>(t->size_in_bytes());
        if (live_hook_ != nullptr)
          live_hook_->on_memory_access(instr, addr, size, /*is_store=*/true);
        memory_.write(addr, size, value & type_mask(t));
        ++frame.index;
        return false;
      }
      case Opcode::Call: {
        const auto& call = static_cast<const ir::CallInst&>(instr);
        std::vector<std::uint64_t> args;
        args.reserve(call.num_args());
        for (unsigned i = 0; i < call.num_args(); ++i)
          args.push_back(read_operand(frame, instr, call.arg(i)));
        if (call.callee()->is_builtin()) {
          const std::uint64_t raw =
              runtime_.call_builtin(call.callee()->name(), args);
          if (instr.has_result()) set_result(frame, instr, raw);
          ++frame.index;
          return false;
        }
        const std::uint64_t caller_id = frame.id;
        // push_frame may reallocate frames_, invalidating `frame`; the
        // caller's index advances when the callee returns (Ret case).
        push_frame(*call.callee(), std::move(args), &call, caller_id);
        return false;
      }
      default: {
        const std::uint64_t raw = evaluate(frame, instr);
        set_result(frame, instr, raw);
        ++frame.index;
        return false;
      }
    }
  }

  /// Slow-path twin of the counting fast loop's per-dispatch increment.
  /// A traced profiling run counts every instruction here, so the
  /// function's site base is looked up only when the function changes.
  void count_site(const Fetched& at) {
    if (at.frame->function != count_function_) {
      count_function_ = at.frame->function;
      count_base_ = cache_.function(*at.frame->function).site_base;
    }
    ++limits_.site_hits[count_base_ + at.instr->id()];
  }

  /// Reads one pre-resolved operand slot (the fast path's hook-free
  /// read_operand).
  static std::uint64_t slot(const Frame& frame, const VSlot& s) {
    switch (s.kind) {
      case VSlot::Kind::Imm: return s.imm;
      case VSlot::Kind::Reg: return frame.regs[s.index];
      case VSlot::Kind::Arg: return frame.args[s.index];
    }
    return 0;
  }

  /// Executes decoded traces until `stop` (a dynamic-instruction count),
  /// a non-traceable block, or program exit. Returns true when the entry
  /// frame returned (value in *ret); false on a side exit back to the
  /// slow path, with every frame field re-synced so the slow loop (or a
  /// snapshot) sees exactly the state a pure slow run would have. The
  /// kCount instantiation also counts every executed instruction into
  /// RunLimits::site_hits; the other one has no counting code at all.
  template <bool kCount>
  bool fast_run(std::uint64_t stop, std::uint64_t* ret) {
    Frame* frame = &frames_.back();
    TraceFunction* tf = &cache_.function(*frame->function);
    TraceBlock* tb = cache_.block(*tf, frame->block);
    machine::DispatchCounters& dc = machine::dispatch_counters();
    std::size_t ip = frame->index;
    if (tb == nullptr || ip >= tb->uops.size()) {
      dc.trace_invalidations.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    dc.trace_hits.fetch_add(1, std::memory_order_relaxed);
    shadow_.clear();
    shadow_.push_back({tf, tb});
    [[maybe_unused]] std::uint64_t* const hits = limits_.site_hits;
    try {
      const VUOp* u = nullptr;

#if FAULTLAB_VM_COMPUTED_GOTO
#define FAULTLAB_VM_UOP_LABEL(name) &&vm_lbl_##name,
      static const void* const kLabels[] = {
          FAULTLAB_VM_UOPS(FAULTLAB_VM_UOP_LABEL)};
#undef FAULTLAB_VM_UOP_LABEL
#define VM_OP(name) vm_lbl_##name:
#define VM_NEXT()                                      \
  do {                                                 \
    if (executed_ >= stop) goto vm_side_exit;          \
    u = &tb->uops[ip];                                 \
    ++executed_;                                       \
    if constexpr (kCount) ++hits[tb->site_base + ip];  \
    goto* kLabels[static_cast<unsigned>(u->op)];       \
  } while (0)
      VM_NEXT();
#else
#define VM_OP(name) case VOp::name:
#define VM_NEXT() goto vm_dispatch
    vm_dispatch:
      if (executed_ >= stop) goto vm_side_exit;
      u = &tb->uops[ip];
      ++executed_;
      if constexpr (kCount) ++hits[tb->site_base + ip];
      switch (u->op) {
#endif

      VM_OP(Add) {
        const std::uint64_t m = u->imm;
        frame->regs[u->dst] =
            ((slot(*frame, u->a) & m) + (slot(*frame, u->b) & m)) & u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(Sub) {
        const std::uint64_t m = u->imm;
        frame->regs[u->dst] =
            ((slot(*frame, u->a) & m) - (slot(*frame, u->b) & m)) & u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(Mul) {
        const std::uint64_t m = u->imm;
        frame->regs[u->dst] =
            ((slot(*frame, u->a) & m) * (slot(*frame, u->b) & m)) & u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(SDiv) {
        const std::uint64_t m = u->imm;
        const std::int64_t sa = sign_extend(slot(*frame, u->a) & m, u->bits);
        const std::int64_t sb = sign_extend(slot(*frame, u->b) & m, u->bits);
        if (sb == 0) trap(TrapKind::DivideByZero, 0);
        if (sb == -1 && sa == int_min_of(u->bits))
          trap(TrapKind::DivideByZero, 0, "division overflow");  // x86 #DE
        frame->regs[u->dst] = static_cast<std::uint64_t>(sa / sb) & u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(UDiv) {
        const std::uint64_t m = u->imm;
        const std::uint64_t a = slot(*frame, u->a) & m;
        const std::uint64_t b = slot(*frame, u->b) & m;
        if (b == 0) trap(TrapKind::DivideByZero, 0);
        frame->regs[u->dst] = (a / b) & u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(SRem) {
        const std::uint64_t m = u->imm;
        const std::int64_t sa = sign_extend(slot(*frame, u->a) & m, u->bits);
        const std::int64_t sb = sign_extend(slot(*frame, u->b) & m, u->bits);
        if (sb == 0) trap(TrapKind::DivideByZero, 0);
        if (sb == -1 && sa == int_min_of(u->bits))
          trap(TrapKind::DivideByZero, 0, "division overflow");  // x86 #DE
        frame->regs[u->dst] = static_cast<std::uint64_t>(sa % sb) & u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(URem) {
        const std::uint64_t m = u->imm;
        const std::uint64_t a = slot(*frame, u->a) & m;
        const std::uint64_t b = slot(*frame, u->b) & m;
        if (b == 0) trap(TrapKind::DivideByZero, 0);
        frame->regs[u->dst] = (a % b) & u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(And) {
        const std::uint64_t m = u->imm;
        frame->regs[u->dst] =
            ((slot(*frame, u->a) & m) & (slot(*frame, u->b) & m)) & u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(Or) {
        const std::uint64_t m = u->imm;
        frame->regs[u->dst] =
            ((slot(*frame, u->a) & m) | (slot(*frame, u->b) & m)) & u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(Xor) {
        const std::uint64_t m = u->imm;
        frame->regs[u->dst] =
            ((slot(*frame, u->a) & m) ^ (slot(*frame, u->b) & m)) & u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(Shl) {
        const std::uint64_t m = u->imm;
        const std::uint64_t a = slot(*frame, u->a) & m;
        const unsigned amount = shift_amount(slot(*frame, u->b) & m, u->bits);
        frame->regs[u->dst] = (a << amount) & u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(LShr) {
        const std::uint64_t m = u->imm;
        const std::uint64_t a = slot(*frame, u->a) & m;
        const unsigned amount = shift_amount(slot(*frame, u->b) & m, u->bits);
        frame->regs[u->dst] = (a >> amount) & u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(AShr) {
        const std::uint64_t m = u->imm;
        const std::int64_t sa = sign_extend(slot(*frame, u->a) & m, u->bits);
        const unsigned amount = shift_amount(slot(*frame, u->b) & m, u->bits);
        frame->regs[u->dst] =
            static_cast<std::uint64_t>(sa >> amount) & u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(FAdd) {
        frame->regs[u->dst] = bits_of(double_of(slot(*frame, u->a)) +
                                      double_of(slot(*frame, u->b))) &
                              u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(FSub) {
        frame->regs[u->dst] = bits_of(double_of(slot(*frame, u->a)) -
                                      double_of(slot(*frame, u->b))) &
                              u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(FMul) {
        frame->regs[u->dst] = bits_of(double_of(slot(*frame, u->a)) *
                                      double_of(slot(*frame, u->b))) &
                              u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(FDiv) {
        // IEEE: inf/NaN, no trap.
        frame->regs[u->dst] = bits_of(double_of(slot(*frame, u->a)) /
                                      double_of(slot(*frame, u->b))) &
                              u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(IcmpEq) {
        const std::uint64_t m = u->imm;
        frame->regs[u->dst] =
            ((slot(*frame, u->a) & m) == (slot(*frame, u->b) & m) ? 1 : 0) &
            u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(IcmpNe) {
        const std::uint64_t m = u->imm;
        frame->regs[u->dst] =
            ((slot(*frame, u->a) & m) != (slot(*frame, u->b) & m) ? 1 : 0) &
            u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(IcmpSlt) {
        const std::uint64_t m = u->imm;
        frame->regs[u->dst] =
            (sign_extend(slot(*frame, u->a) & m, u->bits) <
                     sign_extend(slot(*frame, u->b) & m, u->bits)
                 ? 1
                 : 0) &
            u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(IcmpSle) {
        const std::uint64_t m = u->imm;
        frame->regs[u->dst] =
            (sign_extend(slot(*frame, u->a) & m, u->bits) <=
                     sign_extend(slot(*frame, u->b) & m, u->bits)
                 ? 1
                 : 0) &
            u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(IcmpSgt) {
        const std::uint64_t m = u->imm;
        frame->regs[u->dst] =
            (sign_extend(slot(*frame, u->a) & m, u->bits) >
                     sign_extend(slot(*frame, u->b) & m, u->bits)
                 ? 1
                 : 0) &
            u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(IcmpSge) {
        const std::uint64_t m = u->imm;
        frame->regs[u->dst] =
            (sign_extend(slot(*frame, u->a) & m, u->bits) >=
                     sign_extend(slot(*frame, u->b) & m, u->bits)
                 ? 1
                 : 0) &
            u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(IcmpUlt) {
        const std::uint64_t m = u->imm;
        frame->regs[u->dst] =
            ((slot(*frame, u->a) & m) < (slot(*frame, u->b) & m) ? 1 : 0) &
            u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(IcmpUle) {
        const std::uint64_t m = u->imm;
        frame->regs[u->dst] =
            ((slot(*frame, u->a) & m) <= (slot(*frame, u->b) & m) ? 1 : 0) &
            u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(IcmpUgt) {
        const std::uint64_t m = u->imm;
        frame->regs[u->dst] =
            ((slot(*frame, u->a) & m) > (slot(*frame, u->b) & m) ? 1 : 0) &
            u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(IcmpUge) {
        const std::uint64_t m = u->imm;
        frame->regs[u->dst] =
            ((slot(*frame, u->a) & m) >= (slot(*frame, u->b) & m) ? 1 : 0) &
            u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(FcmpOeq) {
        frame->regs[u->dst] = (double_of(slot(*frame, u->a)) ==
                                       double_of(slot(*frame, u->b))
                                   ? 1
                                   : 0) &
                              u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(FcmpOne) {
        const double a = double_of(slot(*frame, u->a));
        const double b = double_of(slot(*frame, u->b));
        frame->regs[u->dst] = ((a < b || a > b) ? 1 : 0) & u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(FcmpOlt) {
        frame->regs[u->dst] = (double_of(slot(*frame, u->a)) <
                                       double_of(slot(*frame, u->b))
                                   ? 1
                                   : 0) &
                              u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(FcmpOle) {
        frame->regs[u->dst] = (double_of(slot(*frame, u->a)) <=
                                       double_of(slot(*frame, u->b))
                                   ? 1
                                   : 0) &
                              u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(FcmpOgt) {
        frame->regs[u->dst] = (double_of(slot(*frame, u->a)) >
                                       double_of(slot(*frame, u->b))
                                   ? 1
                                   : 0) &
                              u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(FcmpOge) {
        frame->regs[u->dst] = (double_of(slot(*frame, u->a)) >=
                                       double_of(slot(*frame, u->b))
                                   ? 1
                                   : 0) &
                              u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(MaskCast) {
        frame->regs[u->dst] = slot(*frame, u->a) & u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(SExt) {
        frame->regs[u->dst] = static_cast<std::uint64_t>(sign_extend(
                                  slot(*frame, u->a), u->bits)) &
                              u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(FpToSi) {
        const double d = double_of(slot(*frame, u->a));
        std::int64_t out;
        // cvttsd2si semantics: out-of-range / NaN -> "integer indefinite".
        if (std::isnan(d) || d >= 9.2233720368547758e18 ||
            d < -9.2233720368547758e18) {
          out = std::numeric_limits<std::int64_t>::min();
        } else {
          out = static_cast<std::int64_t>(d);
        }
        frame->regs[u->dst] = static_cast<std::uint64_t>(out) & u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(SiToFp) {
        frame->regs[u->dst] =
            bits_of(static_cast<double>(
                sign_extend(slot(*frame, u->a), u->bits))) &
            u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(Select) {
        // Both arms are read (data dependences, not control) — matching
        // the slow path, though reads have no side effects unhooked.
        const std::uint64_t cond = slot(*frame, u->a) & 1;
        const std::uint64_t tv = slot(*frame, u->b);
        const std::uint64_t fv = slot(*frame, u->c);
        frame->regs[u->dst] = (cond ? tv : fv) & u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(Alloca) {
        // Address pre-assigned at frame setup; re-mask like set_result.
        frame->regs[u->dst] &= u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(Load) {
        frame->regs[u->dst] =
            memory_.read(slot(*frame, u->a), u->size) & u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(Store) {
        const std::uint64_t value = slot(*frame, u->a);
        memory_.write(slot(*frame, u->b), u->size, value & u->mask);
        ++ip;
        VM_NEXT();
      }
      VM_OP(Gep) {
        std::uint64_t addr = slot(*frame, u->a) + u->imm;
        const GepTerm* term = tb->gep_terms.data() + u->pool;
        for (std::uint16_t k = 0; k < u->n; ++k, ++term)
          addr += static_cast<std::uint64_t>(
                      sign_extend(slot(*frame, term->slot), term->bits)) *
                  term->scale;
        frame->regs[u->dst] = addr & u->mask;
        ++ip;
        VM_NEXT();
      }
      VM_OP(PhiGroup) {
        // All incoming values are read (and counted) before any write,
        // exactly like the slow path's update list: a timeout mid-group
        // leaves every phi register untouched.
        phi_scratch_.clear();
        const PhiEntry* entries = tb->phi_entries.data() + u->pool;
        for (std::uint16_t k = 0; k < u->n; ++k) {
          if (k != 0) {
            bump_instruction_count();
            if constexpr (kCount) ++hits[tb->site_base + ip + k];
          }
          const PhiEntry& e = entries[k];
          const PhiEdge* edge = tb->phi_edges.data() + e.edges_at;
          std::uint64_t v = 0;
          bool found = false;
          for (std::uint32_t j = 0; j < e.edges_n; ++j, ++edge) {
            if (edge->pred == frame->prev_block) {
              v = slot(*frame, edge->slot);
              found = true;
              break;
            }
          }
          assert(found && "phi has no edge for predecessor");
          (void)found;
          phi_scratch_.push_back(v);
        }
        for (std::uint16_t k = 0; k < u->n; ++k)
          frame->regs[entries[k].dst] = phi_scratch_[k] & entries[k].mask;
        ip += u->n;
        VM_NEXT();
      }
      VM_OP(Pad) {
        // Unreachable by construction (PhiGroup jumps past its pads);
        // defensively hand the state to the slow path. The bump this
        // dispatch did must be undone: the op executed nothing.
        --executed_;
        if constexpr (kCount) --hits[tb->site_base + ip];
        goto vm_side_exit;
      }
      VM_OP(Br) {
        frame->prev_block = frame->block;
        frame->block = u->bb0;
        ip = 0;
        TraceBlock* nt = u->tb0;
        if (nt->state != TraceBlock::State::Ready) {
          nt = cache_.block(*tf, u->bb0);
          if (nt == nullptr) goto vm_side_exit;
        }
        tb = nt;
        shadow_.back().second = tb;
        VM_NEXT();
      }
      VM_OP(BrCond) {
        const std::uint64_t cond = slot(*frame, u->a) & 1;
        const ir::BasicBlock* bb = cond ? u->bb0 : u->bb1;
        TraceBlock* nt = cond ? u->tb0 : u->tb1;
        frame->prev_block = frame->block;
        frame->block = bb;
        ip = 0;
        if (nt->state != TraceBlock::State::Ready) {
          nt = cache_.block(*tf, bb);
          if (nt == nullptr) goto vm_side_exit;
        }
        tb = nt;
        shadow_.back().second = tb;
        VM_NEXT();
      }
      VM_OP(Ret) {
        const std::uint64_t raw = u->n != 0 ? slot(*frame, u->a) : 0;
        sp_ = frame->saved_sp;
        const ir::Instruction* site = frame->call_site;
        frames_.pop_back();
        shadow_.pop_back();
        if (frames_.empty()) {
          *ret = raw;
          return true;
        }
        frame = &frames_.back();
        if (site->has_result())
          frame->regs[site->id()] = raw & type_mask(site->type());
        ++frame->index;
        ip = frame->index;
        if (shadow_.empty()) {
          // Returned past the fast-entry frame: re-resolve the caller's
          // trace (it was entered before this fast run began).
          tf = &cache_.function(*frame->function);
          TraceBlock* nt = cache_.block(*tf, frame->block);
          if (nt == nullptr || ip >= nt->uops.size()) goto vm_side_exit;
          tb = nt;
          shadow_.push_back({tf, tb});
        } else {
          tf = shadow_.back().first;
          tb = shadow_.back().second;
        }
        VM_NEXT();
      }
      VM_OP(Call) {
        frame->index = ip;  // caller resumes via ++index at Ret
        std::vector<std::uint64_t> args;
        args.reserve(u->n);
        const VSlot* arg_slots = tb->call_args.data() + u->pool;
        for (std::uint16_t k = 0; k < u->n; ++k)
          args.push_back(slot(*frame, arg_slots[k]));
        push_frame_fast(*u->callee_tf, std::move(args),
                        static_cast<const ir::CallInst*>(u->instr));
        frame = &frames_.back();
        tf = u->callee_tf;
        TraceBlock* nt = cache_.block(*tf, tf->fn->entry());
        ip = 0;
        if (nt == nullptr) goto vm_side_exit;
        tb = nt;
        shadow_.push_back({tf, tb});
        VM_NEXT();
      }
      VM_OP(CallBuiltin) {
        builtin_args_.clear();
        const VSlot* arg_slots = tb->call_args.data() + u->pool;
        for (std::uint16_t k = 0; k < u->n; ++k)
          builtin_args_.push_back(slot(*frame, arg_slots[k]));
        const std::uint64_t raw =
            runtime_.call_builtin(u->callee->name(), builtin_args_);
        if (u->instr->has_result())
          frame->regs[u->dst] = raw & u->mask;
        ++ip;
        VM_NEXT();
      }

#if !FAULTLAB_VM_COMPUTED_GOTO
        default:
          goto vm_side_exit;
      }
#endif
#undef VM_OP
#undef VM_NEXT

    vm_side_exit:
      frame->index = ip;
      dc.trace_invalidations.fetch_add(1, std::memory_order_relaxed);
      return false;
    } catch (...) {
      // Traps unwinding out of the fast loop re-sync the top frame so
      // drive() resolves the same trap PC a slow-path run reports (frame
      // indices only advance after an instruction completes).
      if (!frames_.empty()) frames_.back().index = ip;
      throw;
    }
  }

  void set_result(Frame& frame, const ir::Instruction& instr,
                  std::uint64_t raw) {
    raw &= type_mask(instr.type());
    if (live_hook_ != nullptr) {
      raw = live_hook_->on_result({frame.id, &instr}, raw);
      raw &= type_mask(instr.type());
    }
    frame.regs[instr.id()] = raw;
  }

  std::uint64_t evaluate(Frame& frame, const ir::Instruction& instr) {
    const Opcode op = instr.opcode();
    if (ir::is_int_binary(op)) return eval_int_binary(frame, instr);
    if (ir::is_fp_binary(op)) return eval_fp_binary(frame, instr);
    if (ir::is_cast(op)) return eval_cast(frame, instr);
    switch (op) {
      case Opcode::ICmp: return eval_icmp(frame, instr);
      case Opcode::FCmp: return eval_fcmp(frame, instr);
      case Opcode::Alloca:
        return frame.regs[instr.id()];  // address assigned at frame setup
      case Opcode::Load: {
        const std::uint64_t addr = read_operand(frame, instr, instr.operand(0));
        const ir::Type* t = instr.type();
        const auto size = static_cast<unsigned>(t->size_in_bytes());
        if (live_hook_ != nullptr)
          live_hook_->on_memory_access(instr, addr, size, /*is_store=*/false);
        return memory_.read(addr, size) & type_mask(t);
      }
      case Opcode::Gep: return eval_gep(frame, instr);
      case Opcode::Select: {
        const std::uint64_t cond = read_operand(frame, instr, instr.operand(0)) & 1;
        // Both arms are read (they are data dependences, not control).
        const std::uint64_t tv = read_operand(frame, instr, instr.operand(1));
        const std::uint64_t fv = read_operand(frame, instr, instr.operand(2));
        return cond ? tv : fv;
      }
      default:
        trap(TrapKind::Unreachable, 0, ir::opcode_name(op));
    }
  }

  std::uint64_t eval_int_binary(Frame& frame, const ir::Instruction& instr) {
    const unsigned bits = instr.type()->int_bits();
    const std::uint64_t mask = faultlab::low_mask(bits);
    const std::uint64_t a = read_operand(frame, instr, instr.operand(0)) & mask;
    const std::uint64_t b = read_operand(frame, instr, instr.operand(1)) & mask;
    const std::int64_t sa = sign_extend(a, bits);
    const std::int64_t sb = sign_extend(b, bits);
    switch (instr.opcode()) {
      case Opcode::Add: return (a + b) & mask;
      case Opcode::Sub: return (a - b) & mask;
      case Opcode::Mul: return (a * b) & mask;
      case Opcode::SDiv: {
        if (sb == 0) trap(TrapKind::DivideByZero, 0);
        if (sb == -1 && sa == int_min_of(bits))
          trap(TrapKind::DivideByZero, 0, "division overflow");  // x86 #DE
        return static_cast<std::uint64_t>(sa / sb) & mask;
      }
      case Opcode::UDiv:
        if (b == 0) trap(TrapKind::DivideByZero, 0);
        return (a / b) & mask;
      case Opcode::SRem: {
        if (sb == 0) trap(TrapKind::DivideByZero, 0);
        if (sb == -1 && sa == int_min_of(bits))
          trap(TrapKind::DivideByZero, 0, "division overflow");  // x86 #DE
        return static_cast<std::uint64_t>(sa % sb) & mask;
      }
      case Opcode::URem:
        if (b == 0) trap(TrapKind::DivideByZero, 0);
        return (a % b) & mask;
      case Opcode::And: return a & b;
      case Opcode::Or: return a | b;
      case Opcode::Xor: return a ^ b;
      case Opcode::Shl: {
        const unsigned amount = shift_amount(b, bits);
        return (a << amount) & mask;
      }
      case Opcode::LShr: {
        const unsigned amount = shift_amount(b, bits);
        return (a >> amount) & mask;
      }
      case Opcode::AShr: {
        const unsigned amount = shift_amount(b, bits);
        return static_cast<std::uint64_t>(sa >> amount) & mask;
      }
      default:
        trap(TrapKind::Unreachable, 0);
    }
  }

  /// x86-style shift-count masking so VM and simulator agree.
  static unsigned shift_amount(std::uint64_t b, unsigned bits) {
    return static_cast<unsigned>(b & (bits >= 64 ? 63 : 31));
  }

  static std::int64_t int_min_of(unsigned bits) {
    return bits >= 64 ? std::numeric_limits<std::int64_t>::min()
                      : -(std::int64_t{1} << (bits - 1));
  }

  std::uint64_t eval_fp_binary(Frame& frame, const ir::Instruction& instr) {
    const double a = double_of(read_operand(frame, instr, instr.operand(0)));
    const double b = double_of(read_operand(frame, instr, instr.operand(1)));
    switch (instr.opcode()) {
      case Opcode::FAdd: return bits_of(a + b);
      case Opcode::FSub: return bits_of(a - b);
      case Opcode::FMul: return bits_of(a * b);
      case Opcode::FDiv: return bits_of(a / b);  // IEEE: inf/NaN, no trap
      default:
        trap(TrapKind::Unreachable, 0);
    }
  }

  std::uint64_t eval_icmp(Frame& frame, const ir::Instruction& instr) {
    const auto& cmp = static_cast<const ir::ICmpInst&>(instr);
    const ir::Type* t = cmp.lhs()->type();
    const unsigned bits = t->register_bits();
    const std::uint64_t mask = faultlab::low_mask(bits);
    const std::uint64_t a = read_operand(frame, instr, cmp.lhs()) & mask;
    const std::uint64_t b = read_operand(frame, instr, cmp.rhs()) & mask;
    const std::int64_t sa = sign_extend(a, bits);
    const std::int64_t sb = sign_extend(b, bits);
    bool r = false;
    switch (cmp.predicate()) {
      case ir::ICmpPred::EQ: r = a == b; break;
      case ir::ICmpPred::NE: r = a != b; break;
      case ir::ICmpPred::SLT: r = sa < sb; break;
      case ir::ICmpPred::SLE: r = sa <= sb; break;
      case ir::ICmpPred::SGT: r = sa > sb; break;
      case ir::ICmpPred::SGE: r = sa >= sb; break;
      case ir::ICmpPred::ULT: r = a < b; break;
      case ir::ICmpPred::ULE: r = a <= b; break;
      case ir::ICmpPred::UGT: r = a > b; break;
      case ir::ICmpPred::UGE: r = a >= b; break;
    }
    return r ? 1 : 0;
  }

  std::uint64_t eval_fcmp(Frame& frame, const ir::Instruction& instr) {
    const auto& cmp = static_cast<const ir::FCmpInst&>(instr);
    const double a = double_of(read_operand(frame, instr, cmp.lhs()));
    const double b = double_of(read_operand(frame, instr, cmp.rhs()));
    bool r = false;
    switch (cmp.predicate()) {  // ordered: NaN compares false
      case ir::FCmpPred::OEQ: r = a == b; break;
      case ir::FCmpPred::ONE: r = a < b || a > b; break;
      case ir::FCmpPred::OLT: r = a < b; break;
      case ir::FCmpPred::OLE: r = a <= b; break;
      case ir::FCmpPred::OGT: r = a > b; break;
      case ir::FCmpPred::OGE: r = a >= b; break;
    }
    return r ? 1 : 0;
  }

  std::uint64_t eval_cast(Frame& frame, const ir::Instruction& instr) {
    const std::uint64_t v = read_operand(frame, instr, instr.operand(0));
    const ir::Type* from = instr.operand(0)->type();
    const ir::Type* to = instr.type();
    switch (instr.opcode()) {
      case Opcode::Trunc:
        return v & type_mask(to);
      case Opcode::ZExt:
        return v & type_mask(from);
      case Opcode::SExt:
        return static_cast<std::uint64_t>(
                   sign_extend(v, from->int_bits())) & type_mask(to);
      case Opcode::FPToSI: {
        const double d = double_of(v);
        std::int64_t out;
        // cvttsd2si semantics: out-of-range / NaN -> "integer indefinite".
        if (std::isnan(d) || d >= 9.2233720368547758e18 ||
            d < -9.2233720368547758e18) {
          out = std::numeric_limits<std::int64_t>::min();
        } else {
          out = static_cast<std::int64_t>(d);
        }
        return static_cast<std::uint64_t>(out) & type_mask(to);
      }
      case Opcode::SIToFP:
        return bits_of(static_cast<double>(
            sign_extend(v, from->int_bits())));
      case Opcode::Bitcast:
      case Opcode::PtrToInt:
      case Opcode::IntToPtr:
        return v & type_mask(to);
      default:
        trap(TrapKind::Unreachable, 0);
    }
  }

  std::uint64_t eval_gep(Frame& frame, const ir::Instruction& instr) {
    const auto& gep = static_cast<const ir::GepInst&>(instr);
    std::uint64_t addr = read_operand(frame, instr, gep.base());
    const ir::Type* current = gep.base()->type()->pointee();
    for (unsigned i = 0; i < gep.num_indices(); ++i) {
      const std::uint64_t raw = read_operand(frame, instr, gep.index(i));
      const std::int64_t idx =
          sign_extend(raw, gep.index(i)->type()->register_bits());
      // Scaled offsets multiply in uint64_t: a faulted index can overflow
      // int64_t, and two's-complement wrap gives the same address bits.
      if (i == 0) {
        addr += static_cast<std::uint64_t>(idx) * current->size_in_bytes();
      } else if (current->is_array()) {
        current = current->array_element();
        addr += static_cast<std::uint64_t>(idx) * current->size_in_bytes();
      } else {  // struct: verifier guarantees constant index
        addr += current->struct_field_offset(static_cast<std::size_t>(idx));
        current = current->struct_fields()[static_cast<std::size_t>(idx)];
      }
    }
    return addr;
  }

  static constexpr std::size_t kMaxCallDepth = 4096;

  const ir::Module& module_;
  const machine::GlobalLayout& layout_;
  std::vector<Frame> frames_;
  const ir::Function* entry_fn_ = nullptr;  // frames_.front() of this run
  std::uint64_t sp_ = Layout::kStackTop;
  std::uint64_t next_frame_id_ = 1;
  TraceCache cache_;
  const ir::Function* count_function_ = nullptr;  // count_site()'s memo
  std::uint64_t count_base_ = 0;
  /// Fast-path call-stack mirror: (function, block) trace pointers for
  /// every frame entered during the current fast_run.
  std::vector<std::pair<TraceFunction*, TraceBlock*>> shadow_;
  std::vector<std::uint64_t> phi_scratch_;
  std::vector<std::uint64_t> builtin_args_;
};

std::vector<const ir::Instruction*> site_order(const ir::Module& module) {
  std::vector<const ir::Instruction*> sites;
  for (const auto& fn : module.functions())
    for (const auto& bb : fn->blocks())
      for (const auto& instr : bb->instructions()) sites.push_back(instr.get());
  return sites;
}

Interpreter::Interpreter(const ir::Module& module, ExecHook* hook)
    : module_(module), hook_(hook), layout_(module) {}

Interpreter::~Interpreter() = default;

RunResult Interpreter::run(const std::string& entry, const RunLimits& limits) {
  return Impl::resident(impl_, module_, layout_).run(hook_, limits, entry);
}

machine::Memory::RestoreStats Interpreter::restore(const Snapshot& snapshot) {
  return Impl::resident(impl_, module_, layout_).restore(snapshot);
}

RunResult Interpreter::resume(const RunLimits& limits) {
  return Impl::resume(impl_.get(), hook_, limits);
}

}  // namespace faultlab::vm
