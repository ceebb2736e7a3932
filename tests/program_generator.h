// Seeded random mini-C programs for the property tests. Every generated
// program terminates and runs trap-free when executed fault-free; it
// covers the constructs behind the paper's call, phi and GEP rows: helper
// calls (some small enough to inline, some too large), bounded recursion,
// int* parameters with in-bounds pointer arithmetic, a struct array with
// mixed int/long/double fields reached through pointers, malloc/free
// buffers and while loops with data-dependent but bounded trip counts.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "support/rng.h"

namespace faultlab {

class ProgramGenerator {
 public:
  explicit ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string generate();

 private:
  /// The variables an expression may read and a statement may assign.
  /// Only main may call helpers, so no helper ever recurses by accident.
  struct Scope {
    std::vector<std::string> ints;
    std::vector<std::string> longs;
    std::vector<std::string> doubles;
    std::string array;        ///< int array or pointer that is safe to index
    unsigned array_mask = 0;  ///< indices are masked with this
    std::string loop;         ///< counter of bounded for loops
    bool calls = false;
  };

  std::string pick(const std::vector<std::string>& names);
  std::string int_var() { return pick(scope_.ints); }
  std::string long_var() { return pick(scope_.longs); }
  std::string double_var() { return pick(scope_.doubles); }

  /// An int-valued expression that cannot trap.
  std::string int_expr(int depth);
  std::string cond_expr();
  /// An index into garr, or into a helper's 8-int window, kept in bounds.
  std::string index_expr(unsigned mask);

  void emit_helpers(std::ostringstream& os);
  void emit_small_helper(std::ostringstream& os, int index);
  void emit_big_helper(std::ostringstream& os, int index);
  void emit_statement(std::ostringstream& os, int depth);
  /// Statements only main emits: helper calls, heap buffers, struct and
  /// pointer traffic.
  void emit_main_statement(std::ostringstream& os);

  Rng rng_;
  Scope scope_;
  int small_helpers_ = 0;
  int big_helpers_ = 0;
};

}  // namespace faultlab
