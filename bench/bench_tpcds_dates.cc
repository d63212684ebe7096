// Experiment C-TPCDS (Section 2.3 / [18]): the surrogate-key date rewrite
// over the thirteen TPC-DS-style query templates. The paper reports that
// all thirteen matching TPC-DS queries benefited from the rewrite in the
// DB2 prototype, with an average gain of 48%; this harness regenerates the
// same comparison as "OD theory off vs on" on one planner and executor:
// each query is planned and executed with no date-dimension ODs declared
// (OD-blind: fact ⋈ date_dim) and with them (OD-aware: the join is proven
// away and the fact index range-scanned), and the per-query and average
// gains are printed. Both arms time PlanQuery + Execute, so the OD arm
// pays for its proof and its two dimension probes.

#include <benchmark/benchmark.h>

#include <memory>

#include "bench_util.h"
#include "engine/index.h"
#include "engine/ops.h"
#include "optimizer/planner.h"
#include "theory/theory.h"
#include "warehouse/date_dim.h"
#include "warehouse/queries.h"
#include "warehouse/star_schema.h"

namespace od {
namespace {

constexpr int kStartYear = 1998;
constexpr int kYears = 5;
constexpr int64_t kFactRows = 400000;

struct Workload {
  engine::Table dim;
  engine::Table fact;
  engine::OrderedIndex fact_index;
  std::shared_ptr<theory::Theory> dim_ods;
  std::vector<opt::DateRangeQuery> queries;
  std::vector<int> agree;  // per query: 0 unchecked, 1 agree, -1 differ

  Workload()
      : dim(warehouse::GenerateDateDim(kStartYear, kYears)),
        fact(warehouse::GenerateStoreSales(kFactRows, dim.col(0).Int(0),
                                           dim.num_rows(), /*num_items=*/200,
                                           /*num_stores=*/20, /*seed=*/1)),
        fact_index(&fact, {0}),
        dim_ods(std::make_shared<theory::Theory>(warehouse::DateDimOds())),
        queries(warehouse::TpcdsDateQueries(kStartYear, kYears)),
        agree(queries.size(), 0) {}

  opt::LogicalQuery Query(size_t i, bool with_ods) const {
    return warehouse::ToLogicalQuery(queries[i], &fact, &dim, &fact_index,
                                     /*fact_parts=*/nullptr,
                                     with_ods ? dim_ods : nullptr);
  }

  /// Whether both arms of query `i` return the same row multiset; checked
  /// once, by whichever arm asks first.
  bool AnswersAgree(size_t i) {
    if (agree[i] == 0) {
      const engine::Table a = opt::PlanQuery(Query(i, false)).Execute(nullptr);
      const engine::Table b = opt::PlanQuery(Query(i, true)).Execute(nullptr);
      agree[i] = engine::SameRowMultiset(a, b) ? 1 : -1;
    }
    return agree[i] > 0;
  }
};

Workload& GetWorkload() {
  static Workload* w = new Workload();
  return *w;
}

void RunArm(benchmark::State& state, bool with_ods) {
  Workload& w = GetWorkload();
  const size_t i = static_cast<size_t>(state.range(0));
  const opt::LogicalQuery q = w.Query(i, with_ods);
  {
    opt::ExecStats stats;
    opt::PlanQuery(q).Execute(&stats);
    const bool shape_ok = with_ods ? stats.joins == 0 && stats.joins_elided == 1
                                   : stats.joins == 1;
    if (!shape_ok) {
      state.SkipWithError(with_ods ? "planner failed to elide the join"
                                   : "OD-blind plan did not pay the join");
      return;
    }
    if (!w.AnswersAgree(i)) {
      state.SkipWithError("OD-blind and OD-aware plans disagree");
      return;
    }
  }
  int64_t rows = 0;
  for (auto _ : state) {
    opt::ExecStats stats;
    engine::Table result = opt::PlanQuery(q).Execute(&stats);
    rows = result.num_rows();
    benchmark::DoNotOptimize(result);
  }
  state.counters["groups"] = static_cast<double>(rows);
  state.SetLabel(w.queries[i].name);
}

void BM_OdBlind(benchmark::State& state) { RunArm(state, false); }
void BM_OdAware(benchmark::State& state) { RunArm(state, true); }

BENCHMARK(BM_OdBlind)->DenseRange(0, 12)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OdAware)->DenseRange(0, 12)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace od

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  od::bench::CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  // Summarize per paper: per-query OD-blind vs OD-aware and average gain.
  std::vector<std::string> labels;
  for (int i = 0; i < 13; ++i) labels.push_back("/" + std::to_string(i));
  od::bench::PrintPairedSummary(
      reporter,
      "TPC-DS date-predicate queries: OD theory off vs on, same planner and "
      "executor (paper: 13/13 improved, avg 48%)",
      labels, "BM_OdBlind", "BM_OdAware");
  benchmark::Shutdown();
  return 0;
}
