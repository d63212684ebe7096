#include "optimizer/exec_stats.h"

#include <gtest/gtest.h>

#include <string>

namespace od {
namespace opt {
namespace {

/// Distinct prime-ish values per field so a cross-wired Merge (adding one
/// field into another) can't cancel out.
ExecStats MakeStats(int64_t base) {
  ExecStats s;
  s.rows_scanned = base + 1;
  s.rows_joined = base + 2;
  s.rows_output = base + 3;
  s.batches = base + 4;
  s.sorts = static_cast<int>(base + 5);
  s.sorts_elided = static_cast<int>(base + 6);
  s.joins = static_cast<int>(base + 7);
  s.joins_elided = static_cast<int>(base + 8);
  s.partitions_scanned = static_cast<int>(base + 9);
  s.fragments = static_cast<int>(base + 10);
  s.spills = static_cast<int>(base + 11);
  s.spilled_rows = base + 12;
  s.spilled_bytes = base + 13;
  s.exchange_peak_rows = base + 14;
  s.exchange_parks = base + 15;
  return s;
}

TEST(ExecStatsTest, MergeAddsEveryField) {
  ExecStats a = MakeStats(100);
  const ExecStats b = MakeStats(1000);
  a.Merge(b);
  EXPECT_EQ(a.rows_scanned, 101 + 1001);
  EXPECT_EQ(a.rows_joined, 102 + 1002);
  EXPECT_EQ(a.rows_output, 103 + 1003);
  EXPECT_EQ(a.batches, 104 + 1004);
  EXPECT_EQ(a.sorts, 105 + 1005);
  EXPECT_EQ(a.sorts_elided, 106 + 1006);
  EXPECT_EQ(a.joins, 107 + 1007);
  EXPECT_EQ(a.joins_elided, 108 + 1008);
  EXPECT_EQ(a.partitions_scanned, 109 + 1009);
  EXPECT_EQ(a.fragments, 110 + 1010);
  EXPECT_EQ(a.spills, 111 + 1011);
  EXPECT_EQ(a.spilled_rows, 112 + 1012);
  EXPECT_EQ(a.spilled_bytes, 113 + 1013);
  // Watermark semantics: the larger side wins, sums would double-count.
  EXPECT_EQ(a.exchange_peak_rows, 1014);
  EXPECT_EQ(a.exchange_parks, 115 + 1015);
}

TEST(ExecStatsTest, PeakRowsMergesByMaxEitherDirection) {
  ExecStats a;
  a.exchange_peak_rows = 500;
  ExecStats b;
  b.exchange_peak_rows = 40;
  a.Merge(b);
  EXPECT_EQ(a.exchange_peak_rows, 500);
}

TEST(ExecStatsTest, MergeWithDefaultIsIdentity) {
  ExecStats a = MakeStats(7);
  const ExecStats before = a;
  a.Merge(ExecStats{});
  EXPECT_EQ(a.ToString(), before.ToString());
}

TEST(ExecStatsTest, ToStringNamesEveryField) {
  const std::string s = MakeStats(200).ToString();
  EXPECT_NE(s.find("rows_scanned=201"), std::string::npos) << s;
  EXPECT_NE(s.find("rows_joined=202"), std::string::npos) << s;
  EXPECT_NE(s.find("rows_output=203"), std::string::npos) << s;
  EXPECT_NE(s.find("batches=204"), std::string::npos) << s;
  EXPECT_NE(s.find("sorts=205"), std::string::npos) << s;
  EXPECT_NE(s.find("sorts_elided=206"), std::string::npos) << s;
  EXPECT_NE(s.find("joins=207"), std::string::npos) << s;
  EXPECT_NE(s.find("joins_elided=208"), std::string::npos) << s;
  EXPECT_NE(s.find("partitions_scanned=209"), std::string::npos) << s;
  EXPECT_NE(s.find("fragments=210"), std::string::npos) << s;
  EXPECT_NE(s.find("spills=211"), std::string::npos) << s;
  EXPECT_NE(s.find("spilled_rows=212"), std::string::npos) << s;
  EXPECT_NE(s.find("spilled_bytes=213"), std::string::npos) << s;
  EXPECT_NE(s.find("exchange_peak_rows=214"), std::string::npos) << s;
  EXPECT_NE(s.find("exchange_parks=215"), std::string::npos) << s;
}

}  // namespace
}  // namespace opt
}  // namespace od
