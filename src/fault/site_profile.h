// Category instance counting for profile_all(), shared by both engines.
//
// The engine's one fault-free run executes on the executors' fast path
// (unhooked unless propagation tracing captures the golden journal) with a
// per-static-site hit array (vm::RunLimits / x86::SimLimits::site_hits).
// Each site carries a category bitmask precomputed from the engine's
// static is_target predicate, so folding hits through the masks yields the
// per-category dynamic instance counts — at a snapshot, those of the
// snapshot's prefix. The hooked profile(category) stays the independent
// oracle for these counts.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "fault/engine.h"
#include "ir/category.h"

namespace faultlab::fault {

struct SiteProfile {
  static_assert(ir::kNumCategories <= 8, "category masks are one byte");

  /// Bit c set when the site is a target of category c, one per site in
  /// the executor's site numbering.
  std::vector<std::uint8_t> masks;
  /// Executions per site, filled by the executor. May hold more slots
  /// than `masks` (the simulator's fetch sentinel); those never count.
  std::vector<std::uint64_t> hits;

  /// Appends the next site, in category c iff `in_category(c)`.
  template <typename InCategory>
  void add_site(InCategory in_category) {
    std::uint8_t mask = 0;
    for (ir::Category c : ir::kAllCategories)
      if (in_category(c))
        mask |= static_cast<std::uint8_t>(1u << static_cast<unsigned>(c));
    masks.push_back(mask);
  }

  /// Per-category dynamic instance counts of the execution so far. The
  /// profiling run folds them at every mark, so the pass over the sites is
  /// one branch-free add per site into a bin per mask value; the bins then
  /// fold into the categories.
  CategoryCounts counts() const {
    std::array<std::uint64_t, std::size_t{1} << ir::kNumCategories> by_mask{};
    for (std::size_t i = 0; i < masks.size(); ++i) by_mask[masks[i]] += hits[i];
    CategoryCounts out;
    for (unsigned mask = 1; mask < by_mask.size(); ++mask)
      for (unsigned m = mask; m != 0; m &= m - 1)
        out.counts[static_cast<std::size_t>(std::countr_zero(m))] +=
            by_mask[mask];
    return out;
  }
};

}  // namespace faultlab::fault
