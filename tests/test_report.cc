// Report rendering edge cases: missing cells, zero activation, CSV export,
// and cross-tool comparison bounds.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "fault/compare.h"
#include "fault/report.h"

namespace faultlab::fault {
namespace {

CampaignResult make_result(const std::string& app, const char* tool,
                           ir::Category cat, std::size_t crash,
                           std::size_t sdc, std::size_t benign,
                           std::uint64_t profiled = 1000) {
  CampaignResult r;
  r.app = app;
  r.tool = tool;
  r.category = cat;
  r.profiled_count = profiled;
  r.crash = crash;
  r.sdc = sdc;
  r.benign = benign;
  return r;
}

TEST(Report, HandlesMissingToolGracefully) {
  ResultSet rs;
  rs.add(make_result("solo", "LLFI", ir::Category::All, 10, 5, 85));
  // No PINFI counterpart: rendering must not crash and must mark gaps.
  EXPECT_NO_THROW(render_figure3(rs));
  EXPECT_NO_THROW(render_figure4(rs));
  EXPECT_NO_THROW(render_table5(rs));
  const std::string t5 = render_table5(rs);
  EXPECT_NE(t5.find("-"), std::string::npos);
}

TEST(Report, HandlesZeroActivation) {
  ResultSet rs;
  CampaignResult r = make_result("dead", "LLFI", ir::Category::Cast, 0, 0, 0);
  r.not_activated = 100;
  rs.add(r);
  EXPECT_EQ(r.activated(), 0u);
  EXPECT_NO_THROW(render_figure4(rs));
  EXPECT_NO_THROW(render_table4(rs));
}

TEST(Report, Table4PercentagesAgainstAll) {
  ResultSet rs;
  rs.add(make_result("app", "LLFI", ir::Category::All, 1, 1, 1, 1000));
  rs.add(make_result("app", "LLFI", ir::Category::Load, 1, 1, 1, 500));
  const std::string t4 = render_table4(rs);
  EXPECT_NE(t4.find("(50%)"), std::string::npos);
}

TEST(Report, CsvSaveRoundTrip) {
  ResultSet rs;
  rs.add(make_result("app", "LLFI", ir::Category::All, 30, 10, 60));
  const std::string path = ::testing::TempDir() + "faultlab_test.csv";
  results_csv(rs).save(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("crash_pct"), std::string::npos);
  std::string row;
  std::getline(in, row);
  EXPECT_NE(row.find("app,LLFI,all,transient,1000"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Compare, InvalidCellsExcluded) {
  ResultSet rs;
  rs.add(make_result("a", "LLFI", ir::Category::All, 10, 10, 80));
  // PINFI side has zero activated trials -> cell invalid.
  CampaignResult dead = make_result("a", "PINFI", ir::Category::All, 0, 0, 0);
  rs.add(dead);
  const auto cells = compare_cells(rs);
  for (const auto& c : cells) {
    if (c.app == "a" && c.category == ir::Category::All) {
      EXPECT_FALSE(c.valid);
    }
  }
  const HeadlineFindings h = summarize(rs);
  EXPECT_DOUBLE_EQ(h.max_crash_delta, 0.0);
}

TEST(Compare, CiOverlapTracksSampleSize) {
  ResultSet rs;
  // Same point estimates, tiny samples: CIs overlap.
  rs.add(make_result("b", "LLFI", ir::Category::All, 3, 2, 5));
  rs.add(make_result("b", "PINFI", ir::Category::All, 5, 2, 3));
  const auto cells = compare_cells(rs);
  bool found = false;
  for (const auto& c : cells) {
    if (c.app == "b" && c.category == ir::Category::All) {
      found = true;
      EXPECT_TRUE(c.valid);
      EXPECT_TRUE(c.sdc_ci_overlap);  // both 20% SDC
    }
  }
  EXPECT_TRUE(found);
}

TEST(Compare, AppsPreserveInsertionOrder) {
  ResultSet rs;
  rs.add(make_result("zeta", "LLFI", ir::Category::All, 1, 1, 1));
  rs.add(make_result("alpha", "LLFI", ir::Category::All, 1, 1, 1));
  rs.add(make_result("zeta", "PINFI", ir::Category::All, 1, 1, 1));
  EXPECT_EQ(rs.apps(), (std::vector<std::string>{"zeta", "alpha"}));
}

}  // namespace
}  // namespace faultlab::fault
