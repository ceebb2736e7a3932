#include "driver/pipeline.h"

#include "backend/emit.h"
#include "backend/frame.h"
#include "backend/isel.h"
#include "backend/phi_elim.h"
#include "backend/regalloc.h"
#include "frontend/codegen.h"
#include "frontend/lexer.h"
#include "ir/dominance.h"
#include "ir/verifier.h"

namespace faultlab::driver {

x86::Program lower_module(ir::Module& module,
                          const machine::GlobalLayout& layout) {
  // Critical-edge splitting mutates the IR; do it for every function first,
  // then normalize block order to reverse postorder (instruction selection
  // requires defs to precede uses in list order) and verify once.
  for (const auto& f : module.functions()) {
    if (f->is_builtin()) continue;
    backend::split_critical_edges(*f);
    ir::DominatorTree dom(*f);
    f->reorder_blocks(dom.reverse_postorder());
  }
  ir::verify_or_throw(module);

  backend::LoweringContext ctx = backend::LoweringContext::build(module, layout);
  std::vector<x86::MachineFunction> lowered;
  for (const auto& f : module.functions()) {
    if (f->is_builtin()) continue;
    backend::IselResult sel = backend::select_instructions(*f, ctx);
    backend::eliminate_phis(sel.mf, sel.phi_copies);
    backend::allocate_registers(sel.mf);
    backend::lower_frame(sel.mf);
    lowered.push_back(std::move(sel.mf));
  }
  return backend::emit_program(std::move(lowered), ctx);
}

CompiledProgram compile(const std::string& source, const std::string& name,
                        const CompileOptions& options) {
  CompiledProgram out;
  out.module_ = mc::compile_to_ir(source, name);
  // A program runs from main; without one there is nothing to lower.
  if (out.module_->find_function("main") == nullptr)
    throw mc::CompileError("program has no main function", 1, 1);
  if (options.optimize) {
    out.opt_stats_ = opt::run_standard_pipeline(*out.module_);
  } else if (options.verify) {
    ir::verify_or_throw(*out.module_);
  }
  out.layout_ = std::make_unique<machine::GlobalLayout>(*out.module_);
  out.program_ = lower_module(*out.module_, *out.layout_);
  // The data image (globals with their alignment padding, string literals
  // and the x86 double pool, which covers the IR layout) must end at or
  // below the heap, or the two would overlap.
  if (out.program_.data_size >
      machine::Layout::kHeapBase - machine::Layout::kGlobalBase)
    throw mc::CompileError("globals do not fit below the heap", 1, 1);
  return out;
}

vm::RunResult CompiledProgram::run_ir(vm::ExecHook* hook,
                                      const vm::RunLimits& limits) const {
  vm::Interpreter interp(*module_, hook);
  return interp.run("main", limits);
}

x86::SimResult CompiledProgram::run_asm(x86::SimHook* hook,
                                        const x86::SimLimits& limits) const {
  x86::Simulator sim(program_, hook);
  return sim.run(limits);
}

}  // namespace faultlab::driver
