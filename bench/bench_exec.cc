// Experiment EXEC: the streaming executor + cost-based planner turn OD
// reasoning into wall-clock wins. Two ≥1M-row workloads, each measured as
// the materializing sort plan (what a reasoner-less optimizer would run)
// against the streaming OD-aware plan PlanQuery chooses:
//   * TAX (Example 5): SELECT * FROM taxes ORDER BY bracket, tax.
//     Materializing: scan + full sort of 1.2M rows. OD-aware: the
//     income-ordered index stream provably satisfies the ORDER BY
//     ([income] ↦ [bracket, tax]) — zero sorts.
//   * DAILY (Section 2.3 shape): per-day totals for one year from a 1M-row
//     fact ⋈ date_dim. Materializing: hash join + hash aggregate + sort.
//     OD-aware: the surrogate-key OD elides the join (index range scan),
//     the index order makes groups contiguous (stream aggregate), and the
//     ORDER BY is provably satisfied — zero sorts, zero joins.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "engine/index.h"
#include "engine/ops.h"
#include "optimizer/planner.h"
#include "theory/theory.h"
#include "warehouse/date_dim.h"
#include "warehouse/queries.h"
#include "warehouse/star_schema.h"
#include "warehouse/tax_schedule.h"

namespace od {
namespace {

struct TaxWorkload {
  engine::Table taxes;
  engine::OrderedIndex income_index;
  std::shared_ptr<theory::Theory> ods;

  explicit TaxWorkload(int64_t rows)
      : taxes(warehouse::GenerateTaxTable(rows, /*max_income=*/250000,
                                          /*seed=*/29)),
        income_index(&taxes, {warehouse::TaxColumns().income}),
        ods(std::make_shared<theory::Theory>(warehouse::TaxOds())) {}
};

TaxWorkload& GetTax(int64_t rows) {
  static auto* cache = new std::map<int64_t, TaxWorkload*>();
  auto it = cache->find(rows);
  if (it == cache->end()) {
    it = cache->emplace(rows, new TaxWorkload(rows)).first;
  }
  return *it->second;
}

void BM_TaxOrderByMaterializing(benchmark::State& state) {
  TaxWorkload& w = GetTax(state.range(0));
  const warehouse::TaxColumns t;
  for (auto _ : state) {
    opt::ExecStats stats;
    engine::Table out =
        opt::SortNode(opt::TableScan(&w.taxes), {t.bracket, t.tax})
            ->Execute(&stats);
    benchmark::DoNotOptimize(out);
  }
}

void BM_TaxOrderByStreamingOdAware(benchmark::State& state) {
  TaxWorkload& w = GetTax(state.range(0));
  opt::PhysicalPlan plan = opt::PlanQuery(
      warehouse::TaxOrderByQuery(&w.taxes, &w.income_index, w.ods));
  {
    opt::ExecStats stats;
    engine::Table out = plan.Execute(&stats);
    if (stats.sorts != 0 || stats.sorts_elided < 1) {
      state.SkipWithError("planner failed to elide the ORDER BY sort");
      return;
    }
  }
  for (auto _ : state) {
    opt::ExecStats stats;
    engine::Table out = plan.Execute(&stats);
    benchmark::DoNotOptimize(out);
  }
}

struct StarWorkload {
  engine::Table dim;
  engine::Table fact;
  engine::OrderedIndex fact_index;
  std::shared_ptr<theory::Theory> dim_ods;

  explicit StarWorkload(int64_t rows)
      : dim(warehouse::GenerateDateDim(1998, 5)),
        fact(warehouse::GenerateStoreSales(rows, dim.col(0).Int(0),
                                           dim.num_rows(), /*num_items=*/100,
                                           /*num_stores=*/10, /*seed=*/29)),
        fact_index(&fact, {0}),
        dim_ods(std::make_shared<theory::Theory>(warehouse::DateDimOds())) {}
};

StarWorkload& GetStar(int64_t rows) {
  static auto* cache = new std::map<int64_t, StarWorkload*>();
  auto it = cache->find(rows);
  if (it == cache->end()) {
    it = cache->emplace(rows, new StarWorkload(rows)).first;
  }
  return *it->second;
}

opt::DateRangeQuery DailyQuery() {
  const warehouse::DateDimColumns d;
  const warehouse::StoreSalesColumns f;
  opt::DateRangeQuery q;
  q.name = "daily_sales";
  q.dim_predicates = {engine::Predicate{d.d_year, engine::Predicate::Op::kEq,
                                        Value(int64_t{1999})}};
  q.fact_date_sk = f.ss_sold_date_sk;
  q.dim_date_sk = d.d_date_sk;
  q.fact_group_cols = {f.ss_sold_date_sk};
  q.fact_aggs = {
      {engine::AggSpec::Kind::kSum, f.ss_net_paid, "sum_net_paid"},
      {engine::AggSpec::Kind::kCount, 0, "cnt"}};
  return q;
}

void BM_DailySalesMaterializing(benchmark::State& state) {
  StarWorkload& w = GetStar(state.range(0));
  const opt::DateRangeQuery q = DailyQuery();
  for (auto _ : state) {
    opt::ExecStats stats;
    // Join + hash aggregate + sort: the plan an order-unaware optimizer
    // runs, every operator materializing its full result.
    engine::Table out =
        opt::SortNode(opt::BuildBaselinePlan(&w.fact, &w.dim, q), {0})
            ->Execute(&stats);
    benchmark::DoNotOptimize(out);
  }
}

void BM_DailySalesStreamingOdAware(benchmark::State& state) {
  StarWorkload& w = GetStar(state.range(0));
  opt::PhysicalPlan plan = opt::PlanQuery(warehouse::DailySalesQuery(
      &w.fact, &w.dim, &w.fact_index, /*fact_parts=*/nullptr, w.dim_ods,
      /*year=*/1999));
  {
    opt::ExecStats stats;
    engine::Table out = plan.Execute(&stats);
    if (stats.sorts != 0 || stats.joins != 0 || stats.joins_elided != 1) {
      state.SkipWithError("planner failed to elide the join and sorts");
      return;
    }
  }
  for (auto _ : state) {
    opt::ExecStats stats;
    engine::Table out = plan.Execute(&stats);
    benchmark::DoNotOptimize(out);
  }
}

// ---------------------------------------------------------------------------
// Morsel-parallel execution: the same OD-aware plans, split into row-range
// fragments behind an exchange. Benchmark arg = degree of parallelism; the
// thread-scaling gate (bench/check_scaling.py) asserts the dop sweep, so
// these run at real sizes: 10M fact rows for the parallel aggregate.

common::ThreadPool& BenchPool() {
  static auto* pool = new common::ThreadPool(0);  // hardware concurrency
  return *pool;
}

// Partition-parallel GROUP BY over 10M rows: thread-local accumulator
// build dominates, so this is the family the ≥3×-at-≥4-cores gate holds.
void BM_ExecParallelGroupBy10M(benchmark::State& state) {
  StarWorkload& w = GetStar(10000000);
  const warehouse::StoreSalesColumns f;
  opt::LogicalQuery q;
  q.name = "groupby_item";
  q.tables.push_back(opt::TableRef{"store_sales", &w.fact, nullptr, nullptr,
                                   nullptr, nullptr, -1});
  q.filters.resize(1);
  q.group_cols = {f.ss_item_sk};
  q.aggs = {{engine::AggSpec::Kind::kSum, f.ss_net_paid, "sum_net"},
            {engine::AggSpec::Kind::kCount, 0, "cnt"},
            {engine::AggSpec::Kind::kAvg, f.ss_sales_price, "avg_price"}};
  const int dop = static_cast<int>(state.range(0));
  opt::PlanOptions opts;
  opts.dop = dop;
  opts.pool = &BenchPool();
  opt::PhysicalPlan plan = opt::PlanQuery(q, opt::CostModel(), opts);
  if (dop > 1 &&
      plan.Explain().find("ParallelHashAggregate") == std::string::npos) {
    state.SkipWithError("planner declined the parallel aggregate");
    return;
  }
  for (auto _ : state) {
    opt::ExecStats stats;
    engine::Table out = plan.Execute(&stats);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 10000000);
}

// The OD-proven ordered recombination on a 2M-row ordered scan: fragments
// of the income-index stream recombined without any sort, in fragment
// order. Every row passes through the one consumer (the plan is a pure
// pass-through with nothing per-row to parallelize), and later fragments
// park once their bounded queues fill, so the serial consumer caps the
// ceiling. This family is reported by the gate but not required — it
// documents the pass-through overhead rather than hiding it.
void BM_ExecParallelOrderedMerge2M(benchmark::State& state) {
  TaxWorkload& w = GetTax(2000000);
  opt::LogicalQuery q =
      warehouse::TaxOrderByQuery(&w.taxes, &w.income_index, w.ods);
  const int dop = static_cast<int>(state.range(0));
  opt::PlanOptions opts;
  opts.dop = dop;
  opts.pool = &BenchPool();
  opt::CostModel cm;
  cm.fragment_startup = 0;  // always fan out: the sweep is the experiment
  opt::PhysicalPlan plan = opt::PlanQuery(q, cm, opts);
  {
    opt::ExecStats stats;
    engine::Table out = plan.Execute(&stats);
    if (stats.sorts != 0) {
      state.SkipWithError("parallel plan reintroduced a sort");
      return;
    }
  }
  for (auto _ : state) {
    opt::ExecStats stats;
    engine::Table out = plan.Execute(&stats);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 2000000);
}

// The streaming exchange end to end: daily sales over a 10M-row fact,
// planned as per-fragment stream-aggregate partials behind the OD-proven
// ordered exchange (+ combine). Fragments push coalesced partial batches
// through the row-bounded queues, which hold a whole fragment's partials,
// while the consumer concatenates them in fragment order — nothing
// materializes and no producer waits, so the dop sweep measures the
// parallel scan-and-aggregate itself.
void BM_ExecParallelStreamingExchange10M(benchmark::State& state) {
  StarWorkload& w = GetStar(10000000);
  opt::LogicalQuery q = warehouse::DailySalesQuery(
      &w.fact, &w.dim, &w.fact_index, /*fact_parts=*/nullptr, w.dim_ods,
      /*year=*/1999);
  const int dop = static_cast<int>(state.range(0));
  opt::PlanOptions opts;
  opts.dop = dop;
  opts.pool = &BenchPool();
  opt::CostModel cm;
  cm.fragment_startup = 0;  // always fan out: the sweep is the experiment
  opt::PhysicalPlan plan = opt::PlanQuery(q, cm, opts);
  if (dop > 1 && plan.Explain().find("Exchange") == std::string::npos) {
    state.SkipWithError("planner declined the streaming exchange");
    return;
  }
  for (auto _ : state) {
    opt::ExecStats stats;
    engine::Table out = plan.Execute(&stats);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 10000000);
}

// Nested parallel regions: the same query at max_exchange_depth=2 — each
// outer fragment's morsel is subdivided behind an inner exchange of its
// own. Documents the overhead (or win) of nesting against the flat
// streaming exchange above; arg = dop at both levels.
void BM_ExecParallelNestedExchange10M(benchmark::State& state) {
  StarWorkload& w = GetStar(10000000);
  opt::LogicalQuery q = warehouse::DailySalesQuery(
      &w.fact, &w.dim, &w.fact_index, /*fact_parts=*/nullptr, w.dim_ods,
      /*year=*/1999);
  const int dop = static_cast<int>(state.range(0));
  opt::PlanOptions opts;
  opts.dop = dop;
  opts.pool = &BenchPool();
  opts.max_exchange_depth = 2;
  opt::CostModel cm;
  cm.fragment_startup = 0;
  opt::PhysicalPlan plan = opt::PlanQuery(q, cm, opts);
  for (auto _ : state) {
    opt::ExecStats stats;
    engine::Table out = plan.Execute(&stats);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * 10000000);
}

BENCHMARK(BM_TaxOrderByMaterializing)
    ->Arg(1200000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TaxOrderByStreamingOdAware)
    ->Arg(1200000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DailySalesMaterializing)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DailySalesStreamingOdAware)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ExecParallelGroupBy10M)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ExecParallelOrderedMerge2M)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ExecParallelStreamingExchange10M)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ExecParallelNestedExchange10M)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace od

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  od::bench::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  od::bench::PrintPairedSummary(
      reporter, "ORDER BY bracket, tax (1.2M rows): materializing sort vs "
                "streaming OD plan",
      {"/1200000"}, "BM_TaxOrderByMaterializing",
      "BM_TaxOrderByStreamingOdAware");
  od::bench::PrintPairedSummary(
      reporter, "Daily sales (1M-row fact): join+hash+sort vs streaming OD "
                "plan",
      {"/1000000"}, "BM_DailySalesMaterializing",
      "BM_DailySalesStreamingOdAware");
  benchmark::Shutdown();
  return 0;
}
