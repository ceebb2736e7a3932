// The one trial-record comparison every equivalence test goes through.
//
// A trial's record must depend on nothing but its draw (k, bit, model):
// not on thread count, snapshot stride, golden convergence, dispatch mode,
// propagation tracing or which observability sinks are on. The fields that
// may differ are the checkpoint-layer observability (restored,
// delta_restored, restored_pages), which depends on what a context ran
// before, and the wall-time phase split. The propagation summary is
// compared only when both sides were traced.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "fault/outcome.h"

namespace faultlab::fault {

enum class PropCheck { Skip, Compare };

inline void expect_same_record(const TrialRecord& expected,
                               const TrialRecord& actual,
                               const std::string& where,
                               PropCheck prop = PropCheck::Skip) {
  EXPECT_EQ(expected.outcome, actual.outcome) << where;
  EXPECT_EQ(expected.trap, actual.trap) << where;
  EXPECT_EQ(expected.dynamic_target, actual.dynamic_target) << where;
  EXPECT_EQ(expected.bit, actual.bit) << where;
  EXPECT_EQ(expected.static_site, actual.static_site) << where;
  EXPECT_EQ(expected.injected, actual.injected) << where;
  EXPECT_STREQ(expected.site_opcode, actual.site_opcode) << where;
  EXPECT_STREQ(expected.site_function, actual.site_function) << where;
  EXPECT_EQ(expected.trap_pc, actual.trap_pc) << where;
  EXPECT_EQ(expected.inject_instruction, actual.inject_instruction) << where;
  EXPECT_EQ(expected.total_instructions, actual.total_instructions) << where;
  if (prop == PropCheck::Compare) {
    EXPECT_TRUE(expected.prop == actual.prop) << "PropSummary " << where;
  }
}

inline void expect_same_records(const std::vector<TrialRecord>& expected,
                                const std::vector<TrialRecord>& actual,
                                const std::string& where = "",
                                PropCheck prop = PropCheck::Skip) {
  ASSERT_EQ(expected.size(), actual.size()) << where;
  for (std::size_t i = 0; i < expected.size(); ++i)
    expect_same_record(expected[i], actual[i],
                       "trial " + std::to_string(i) + " " + where, prop);
}

}  // namespace faultlab::fault
