// The Section 2.3 surrogate-key date rewrite: its precondition (the
// [d_date_sk] <-> [d_date] OD), the two dimension probes, and the rewrite
// itself as the planner applies it — the same planner and executor run
// each query with the date ODs (join elided, surrogate range scanned) and
// without them (join kept), and both must return the same rows.

#include "optimizer/date_rewrite.h"

#include <gtest/gtest.h>

#include <memory>

#include "engine/index.h"
#include "engine/partition.h"
#include "optimizer/planner.h"
#include "theory/theory.h"
#include "warehouse/date_dim.h"
#include "warehouse/queries.h"
#include "warehouse/star_schema.h"

namespace od {
namespace opt {
namespace {

using engine::Table;

class DateRewriteTest : public ::testing::Test {
 protected:
  static constexpr int kStartYear = 1998;
  static constexpr int kYears = 4;
  void SetUp() override {
    dim_ = warehouse::GenerateDateDim(kStartYear, kYears);
    const int64_t first_sk = dim_.col(0).Int(0);
    fact_ = warehouse::GenerateStoreSales(/*num_rows=*/20000, first_sk,
                                          dim_.num_rows(), /*num_items=*/50,
                                          /*num_stores=*/10, /*seed=*/42);
  }
  engine::Table dim_;
  engine::Table fact_;
};

TEST_F(DateRewriteTest, ApplicabilityRequiresSurrogateOd) {
  OrderReasoner with_od(warehouse::DateDimOds());
  const warehouse::DateDimColumns d;
  EXPECT_TRUE(RewriteApplicable(with_od, d.d_date_sk, d.d_date));
  OrderReasoner without((DependencySet()));
  EXPECT_FALSE(RewriteApplicable(without, d.d_date_sk, d.d_date));
}

TEST_F(DateRewriteTest, SurrogateRangeMatchesPredicate) {
  const warehouse::DateDimColumns d;
  const std::vector<engine::Predicate> preds{
      {d.d_year, engine::Predicate::Op::kEq, Value(int64_t{kStartYear + 1})}};
  auto range = SurrogateKeyRange(dim_, d.d_date_sk, preds);
  ASSERT_TRUE(range.has_value());
  // A non-leap/leap year has 365/366 days; 1999 has 365.
  EXPECT_EQ(range->second - range->first + 1, 365);
  EXPECT_TRUE(QualifyingRowsContiguous(dim_, d.d_date_sk, preds));
}

TEST_F(DateRewriteTest, AllThirteenQueriesRewriteCorrectly) {
  const warehouse::DateDimColumns d;
  engine::OrderedIndex fact_index(&fact_, {0});
  auto ods = std::make_shared<theory::Theory>(warehouse::DateDimOds());
  const auto queries = warehouse::TpcdsDateQueries(kStartYear, kYears);
  ASSERT_EQ(queries.size(), 13u);
  for (const auto& q : queries) {
    // Precondition: contiguity of the qualifying dimension rows.
    EXPECT_TRUE(QualifyingRowsContiguous(dim_, d.d_date_sk,
                                         q.dim_predicates))
        << q.name;
    ASSERT_TRUE(SurrogateKeyRange(dim_, d.d_date_sk, q.dim_predicates)
                    .has_value())
        << q.name;

    ExecStats blind_stats, od_stats;
    Table blind = PlanQuery(warehouse::ToLogicalQuery(
                                q, &fact_, &dim_, &fact_index,
                                /*fact_parts=*/nullptr, /*dim_ods=*/nullptr))
                      .Execute(&blind_stats);
    Table rewritten =
        PlanQuery(warehouse::ToLogicalQuery(q, &fact_, &dim_, &fact_index,
                                            /*fact_parts=*/nullptr, ods))
            .Execute(&od_stats);
    EXPECT_TRUE(engine::SameRowMultiset(blind, rewritten)) << q.name;
    // The rewritten plan performs no join and scans fewer rows.
    EXPECT_EQ(od_stats.joins, 0) << q.name;
    EXPECT_EQ(od_stats.joins_elided, 1) << q.name;
    EXPECT_EQ(blind_stats.joins, 1) << q.name;
    EXPECT_LT(od_stats.rows_scanned, blind_stats.rows_scanned) << q.name;
  }
}

TEST_F(DateRewriteTest, PartitionPruning) {
  engine::PartitionedTable parts =
      engine::PartitionedTable::PartitionByRange(fact_, 0, 16);
  auto ods = std::make_shared<theory::Theory>(warehouse::DateDimOds());
  const auto queries = warehouse::TpcdsDateQueries(kStartYear, kYears);
  const auto& q = queries[0];  // a one-year predicate over four years

  ExecStats blind_stats, od_stats;
  Table blind = PlanQuery(warehouse::ToLogicalQuery(
                              q, &fact_, &dim_, /*fact_sk_index=*/nullptr,
                              &parts, /*dim_ods=*/nullptr))
                    .Execute(&blind_stats);
  PhysicalPlan od_plan = PlanQuery(warehouse::ToLogicalQuery(
      q, &fact_, &dim_, /*fact_sk_index=*/nullptr, &parts, ods));
  ASSERT_NE(od_plan.Explain().find("PartitionedScan"), std::string::npos)
      << od_plan.Explain();
  Table rewritten = od_plan.Execute(&od_stats);
  EXPECT_TRUE(engine::SameRowMultiset(blind, rewritten));
  EXPECT_EQ(blind_stats.joins, 1);
  EXPECT_EQ(od_stats.joins, 0);
  // Without the OD nothing bounds the fact scan: the blind plan reads the
  // rows of all 16 partitions; the rewrite prunes to fewer than half.
  EXPECT_GE(blind_stats.rows_scanned, parts.total_rows());
  EXPECT_LT(od_stats.rows_scanned, blind_stats.rows_scanned);
  EXPECT_GT(od_stats.partitions_scanned, 0);
  EXPECT_LT(od_stats.partitions_scanned, 16 / 2);
}

}  // namespace
}  // namespace opt
}  // namespace od
