// Example 1 and the Section 2.3 date rewrite, end to end: builds the star
// schema, plans one date query twice with the same planner and executor —
// once without the date-dimension ODs (OD-blind: the join stays) and once
// with them (OD-aware: the join is proven away) — prints both EXPLAINs,
// executes both, and verifies they agree.

#include <cstdio>
#include <memory>

#include "engine/index.h"
#include "engine/ops.h"
#include "optimizer/date_rewrite.h"
#include "optimizer/order_property.h"
#include "optimizer/planner.h"
#include "optimizer/reduce_order.h"
#include "warehouse/date_dim.h"
#include "warehouse/queries.h"
#include "warehouse/star_schema.h"

int main() {
  using namespace od;

  // --- Build the warehouse ------------------------------------------------
  engine::Table dim = warehouse::GenerateDateDim(1998, 5);
  engine::Table fact = warehouse::GenerateStoreSales(
      /*num_rows=*/200000, dim.col(0).Int(0), dim.num_rows(),
      /*num_items=*/100, /*num_stores=*/10, /*seed=*/99);
  std::printf("date_dim: %lld rows, store_sales: %lld rows\n\n",
              static_cast<long long>(dim.num_rows()),
              static_cast<long long>(fact.num_rows()));

  // --- Example 1: eliminate quarter from ORDER BY / GROUP BY ---------------
  // One shared catalog for every reasoning consumer: the date-dimension
  // ODs live in a Theory, and both the raw prover and the optimizer's
  // OrderReasoner attach to it (catalog edits would reach both at once).
  const warehouse::DateDimColumns d;
  auto catalog = std::make_shared<theory::Theory>(warehouse::DateDimOds());
  prover::Prover pv(catalog);
  const AttributeList order_by({d.d_year, d.d_quarter, d.d_moy});
  auto reduced = opt::ReduceOrderPlus(pv, order_by);
  std::printf("ORDER BY %s reduces to %s\n", ToString(order_by).c_str(),
              ToString(reduced.reduced).c_str());
  for (const auto& line : reduced.log) std::printf("  %s\n", line.c_str());

  // --- The surrogate-key rewrite (Section 2.3 / [18]) ----------------------
  opt::OrderReasoner reasoner(catalog);
  std::printf("\nrewrite applicable ([d_date_sk] <-> [d_date])? %s\n\n",
              opt::RewriteApplicable(reasoner, d.d_date_sk, d.d_date)
                  ? "yes"
                  : "no");

  const auto queries = warehouse::TpcdsDateQueries(1998, 5);
  const auto& q = queries[5];  // a (year, month) query
  auto range = opt::SurrogateKeyRange(dim, d.d_date_sk, q.dim_predicates);
  std::printf("query %s: surrogate range probes -> [%lld, %lld]\n\n",
              q.name.c_str(), static_cast<long long>(range->first),
              static_cast<long long>(range->second));

  engine::OrderedIndex fact_index(&fact, {0});
  const opt::PhysicalPlan blind = opt::PlanQuery(warehouse::ToLogicalQuery(
      q, &fact, &dim, &fact_index, /*fact_parts=*/nullptr,
      /*dim_ods=*/nullptr));
  const opt::PhysicalPlan rewritten = opt::PlanQuery(warehouse::ToLogicalQuery(
      q, &fact, &dim, &fact_index, /*fact_parts=*/nullptr, catalog));
  std::printf("OD-blind plan:\n%s\nOD-aware plan:\n%s\n",
              blind.Explain().c_str(), rewritten.Explain().c_str());

  opt::ExecStats base_stats, rw_stats;
  engine::Table base_result = blind.Execute(&base_stats);
  engine::Table rw_result = rewritten.Execute(&rw_stats);
  std::printf("results identical: %s\n",
              engine::SameRowMultiset(base_result, rw_result) ? "yes" : "NO");
  std::printf("OD-blind: %lld rows scanned, %d join(s)\n",
              static_cast<long long>(base_stats.rows_scanned),
              base_stats.joins);
  std::printf("OD-aware: %lld rows scanned, %d join(s), %d elided\n\n",
              static_cast<long long>(rw_stats.rows_scanned), rw_stats.joins,
              rw_stats.joins_elided);

  std::printf("result sample:\n%s", rw_result.ToString(5).c_str());
  return 0;
}
