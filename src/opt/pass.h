// Optimization pass framework and the standard pipeline.
//
// The paper compiles its benchmarks "with the same standard optimizations
// enabled"; our pipeline plays that role: CFG cleanup, mem2reg (SSA/phi
// construction), algebraic simplification, constant folding, local CSE and
// dead-code elimination. Each pass reports whether it changed anything so
// the pipeline can run to a fixpoint.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ir/module.h"

namespace faultlab::opt {

class Pass {
 public:
  virtual ~Pass() = default;
  virtual const char* name() const noexcept = 0;
  /// Returns true when the function was modified.
  virtual bool run(ir::Function& function) = 0;
};

std::unique_ptr<Pass> make_simplify_cfg();
std::unique_ptr<Pass> make_inline();
std::unique_ptr<Pass> make_mem2reg();
std::unique_ptr<Pass> make_const_fold();
std::unique_ptr<Pass> make_inst_combine();
std::unique_ptr<Pass> make_cse();
std::unique_ptr<Pass> make_dce();

/// The blocks control can reach from `fn`'s entry.
std::set<const ir::BasicBlock*> reachable_blocks(const ir::Function& fn);

struct PipelineStats {
  std::size_t instructions_before = 0;
  std::size_t instructions_after = 0;
  std::size_t phis_after = 0;     // phi nodes present post-pipeline (mem2reg)
  std::size_t allocas_before = 0;
  std::size_t allocas_after = 0;  // before-after == promoted or folded away
  std::size_t iterations = 0;
};

/// Runs the standard pipeline over every function until fixpoint (bounded),
/// verifying the module afterwards. Returns summary statistics.
PipelineStats run_standard_pipeline(ir::Module& module);

}  // namespace faultlab::opt
