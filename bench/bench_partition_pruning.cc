// Experiment C-PART (Section 2.3): when the fact table is partitioned by
// the date surrogate key but queries predicate on natural dates, nothing
// bounds the fact scan; the OD-derived surrogate range prunes to the
// overlapping partitions only. Measured as "OD theory off vs on" on one
// planner and executor over the partitioned fact (no index), sweeping
// partition counts.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_util.h"
#include "engine/ops.h"
#include "engine/partition.h"
#include "optimizer/planner.h"
#include "theory/theory.h"
#include "warehouse/date_dim.h"
#include "warehouse/queries.h"
#include "warehouse/star_schema.h"

namespace od {
namespace {

constexpr int kStartYear = 1998;
constexpr int kYears = 5;

struct Workload {
  engine::Table dim;
  engine::Table fact;
  std::map<int, engine::PartitionedTable> partitioned;
  std::shared_ptr<theory::Theory> dim_ods;
  opt::DateRangeQuery query;
  int agree = 0;  // 0 unchecked, 1 agree, -1 differ

  Workload()
      : dim(warehouse::GenerateDateDim(kStartYear, kYears)),
        fact(warehouse::GenerateStoreSales(300000, dim.col(0).Int(0),
                                           dim.num_rows(), 100, 10, 3)),
        dim_ods(std::make_shared<theory::Theory>(warehouse::DateDimOds())),
        query(warehouse::TpcdsDateQueries(kStartYear, kYears)[5]) {
    // query index 5: a (year, month) predicate — 1/60th of the days.
    for (int parts : {4, 16, 64}) {
      partitioned.emplace(parts, engine::PartitionedTable::PartitionByRange(
                                     fact, 0, parts));
    }
  }

  opt::LogicalQuery Query(const engine::PartitionedTable* parts,
                          bool with_ods) const {
    return warehouse::ToLogicalQuery(query, &fact, &dim,
                                     /*fact_sk_index=*/nullptr, parts,
                                     with_ods ? dim_ods : nullptr);
  }
};

Workload& GetWorkload() {
  static Workload* w = new Workload();
  return *w;
}

void RunArm(benchmark::State& state, bool with_ods) {
  Workload& w = GetWorkload();
  const auto& parts = w.partitioned.at(static_cast<int>(state.range(0)));
  const opt::PhysicalPlan plan = opt::PlanQuery(w.Query(&parts, with_ods));
  {
    opt::ExecStats stats;
    plan.Execute(&stats);
    const bool shape_ok =
        with_ods ? stats.joins_elided == 1 &&
                       stats.partitions_scanned < parts.num_partitions()
                 : stats.joins == 1;
    if (!shape_ok) {
      state.SkipWithError(with_ods ? "planner failed to prune partitions"
                                   : "OD-blind plan did not pay the join");
      return;
    }
    if (w.agree == 0) {
      const engine::Table a = opt::PlanQuery(w.Query(&parts, false))
                                  .Execute(nullptr);
      const engine::Table b = opt::PlanQuery(w.Query(&parts, true))
                                  .Execute(nullptr);
      w.agree = engine::SameRowMultiset(a, b) ? 1 : -1;
    }
    if (w.agree < 0) {
      state.SkipWithError("OD-blind and OD-aware plans disagree");
      return;
    }
  }
  opt::ExecStats stats;
  for (auto _ : state) {
    stats = opt::ExecStats();
    engine::Table result = plan.Execute(&stats);
    benchmark::DoNotOptimize(result);
  }
  state.counters["partitions_scanned"] = stats.partitions_scanned;
  state.counters["rows_scanned"] = static_cast<double>(stats.rows_scanned);
}

void BM_PartitionedOdBlind(benchmark::State& state) { RunArm(state, false); }
void BM_PartitionedOdAware(benchmark::State& state) { RunArm(state, true); }

BENCHMARK(BM_PartitionedOdBlind)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PartitionedOdAware)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace od

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  od::bench::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  od::bench::PrintPairedSummary(
      reporter,
      "Date-partitioned fact: OD theory off (join, unbounded scan) vs on "
      "(pruned surrogate range)",
      {"/4", "/16", "/64"}, "BM_PartitionedOdBlind", "BM_PartitionedOdAware");
  benchmark::Shutdown();
  return 0;
}
