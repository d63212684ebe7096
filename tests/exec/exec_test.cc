// Streaming-operator contracts: batch boundaries, ordering-property
// propagation, the StreamAggregate contiguity precondition, aggregate
// output coalescing, NaN-bearing double keys (must agree with
// od::CompareDoubles), early exit, and the hash aggregation / hash join
// kernels against the independent engine::ops oracle.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "engine/index.h"
#include "engine/ops.h"
#include "engine/partition.h"
#include "exec/operator.h"
#include "exec/parallel.h"

namespace od {
namespace exec {
namespace {

using engine::AggSpec;
using engine::DataType;
using engine::Predicate;
using engine::Schema;
using engine::Table;

// Rows (i % key_mod, i * 0.5); with `nan_every` > 0, every nan_every-th
// measure is NaN instead.
Table MakeKv(int64_t rows, int64_t key_mod, int64_t nan_every = 0) {
  Schema s;
  s.Add("k", DataType::kInt64);
  s.Add("v", DataType::kDouble);
  Table t(s);
  for (int64_t i = 0; i < rows; ++i) {
    const double v = nan_every > 0 && i % nan_every == 0
                         ? std::numeric_limits<double>::quiet_NaN()
                         : static_cast<double>(i) * 0.5;
    t.AppendRow({Value(i % key_mod), Value(v)});
  }
  return t;
}

bool TablesEqualExactly(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_columns(); ++c) {
      if (a.col(c).Get(r) != b.col(c).Get(r)) return false;
    }
  }
  return true;
}

TEST(ScanTest, BatchBoundariesAndStats) {
  Table t = MakeKv(10000, 7);
  opt::ExecStats stats;
  OpPtr scan = Scan(&t, &stats);
  Table out = Drain(scan.get(), &stats);
  EXPECT_TRUE(TablesEqualExactly(t, out));
  EXPECT_EQ(stats.rows_scanned, 10000);
  EXPECT_EQ(stats.rows_output, 10000);
  // 10000 rows at 4096/batch: 4096 + 4096 + 1808.
  EXPECT_EQ(stats.batches, 3);
}

TEST(ScanTest, EmptyTableAndSingleBatch) {
  Table empty = MakeKv(0, 1);
  OpPtr scan = Scan(&empty);
  Batch b;
  EXPECT_FALSE(scan->Next(&b));
  EXPECT_FALSE(scan->Next(&b));  // stays exhausted

  Table one = MakeKv(100, 3);
  opt::ExecStats stats;
  OpPtr s2 = Scan(&one, &stats);
  Table out = Drain(s2.get(), &stats);
  EXPECT_EQ(stats.batches, 1);
  EXPECT_TRUE(TablesEqualExactly(one, out));
}

TEST(ScanTest, CarriesOrderingProperty) {
  Table t = engine::SortBy(MakeKv(100, 5), {0, 1});
  OpPtr scan = Scan(&t);
  EXPECT_EQ(scan->ordering(), engine::SortSpec({0, 1}));
}

TEST(FilterTest, MatchesMaterializingFilter) {
  Table t = MakeKv(5000, 13);
  const std::vector<Predicate> preds{
      {0, Predicate::Op::kGe, Value(3)}, {0, Predicate::Op::kLe, Value(9)}};
  OpPtr f = Filter(Scan(&t, nullptr, 512), preds);
  Table streamed = Drain(f.get());
  Table materialized = engine::Filter(t, preds);
  EXPECT_TRUE(TablesEqualExactly(materialized, streamed));
}

TEST(FilterTest, SkipsEmptyBatchesAndPreservesOrdering) {
  Table t = engine::SortBy(MakeKv(1000, 10), {0});
  // k == 7 rows are contiguous after the sort: most batches yield nothing.
  OpPtr f = Filter(Scan(&t, nullptr, 16),
                   {{0, Predicate::Op::kEq, Value(7)}});
  EXPECT_EQ(f->ordering(), engine::SortSpec({0}));
  Batch b;
  while (f->Next(&b)) {
    EXPECT_GT(b.num_rows(), 0);  // contract: non-empty batches only
  }
}

TEST(ProjectTest, RemapsOrdering) {
  Table t = engine::SortBy(MakeKv(100, 5), {0});
  OpPtr p = Project(Scan(&t), {1, 0});
  // Child ordering [0] survives as output position 1.
  EXPECT_EQ(p->ordering(), engine::SortSpec({1}));
  Table out = Drain(p.get());
  EXPECT_EQ(out.num_columns(), 2);
  EXPECT_EQ(out.schema().col(0).name, "v");
  EXPECT_EQ(out.schema().col(1).name, "k");
}

TEST(StreamAggregateTest, MatchesHashAggAcrossBatchBoundaries) {
  // Sorted input with group runs straddling the (tiny) batch boundary:
  // batch size 7 never aligns with the group size.
  Table t = engine::SortBy(MakeKv(1000, 23), {0});
  const std::vector<AggSpec> aggs{{AggSpec::Kind::kSum, 1, "s"},
                                  {AggSpec::Kind::kCount, 0, "c"},
                                  {AggSpec::Kind::kMin, 1, "mn"},
                                  {AggSpec::Kind::kMax, 1, "mx"},
                                  {AggSpec::Kind::kAvg, 1, "av"}};
  OpPtr agg = StreamAggregate(Scan(&t, nullptr, 7), {0}, aggs);
  Table streamed = Drain(agg.get());
  Table hashed = engine::HashGroupBy(t, {0}, aggs);
  EXPECT_EQ(streamed.num_rows(), 23);
  EXPECT_TRUE(engine::SameRowMultiset(hashed, streamed));
  // Order-exploiting: the output streams out in group order.
  EXPECT_TRUE(engine::IsSortedBy(streamed, {0}));
}

TEST(StreamAggregateTest, GroupStraddlingManyBatches) {
  // One giant group spanning dozens of batches, then a tiny one.
  Schema s;
  s.Add("g", DataType::kInt64);
  s.Add("x", DataType::kInt64);
  Table t(s);
  for (int64_t i = 0; i < 500; ++i) t.AppendRow({Value(1), Value(i)});
  t.AppendRow({Value(2), Value(int64_t{1000})});
  OpPtr agg = StreamAggregate(Scan(&t, nullptr, 8), {0},
                              {{AggSpec::Kind::kCount, 0, "c"}});
  Table out = Drain(agg.get());
  ASSERT_EQ(out.num_rows(), 2);
  EXPECT_EQ(out.col(1).Int(0), 500);
  EXPECT_EQ(out.col(1).Int(1), 1);
}

TEST(StreamAggregateTest, NonContiguousInputEmitsOneRowPerRun) {
  // The documented precondition: equal group keys must be contiguous.
  // On a violating input the operator (like engine::StreamGroupBy) emits
  // one row per maximal run — MORE groups than hash aggregation, the
  // failure mode the planner's contiguity proof exists to prevent.
  Table t = MakeKv(50, 5);  // keys cycle 0..4: every group re-appears
  OpPtr stream = StreamAggregate(Scan(&t, nullptr, 16), {0},
                                 {{AggSpec::Kind::kCount, 0, "c"}});
  Table streamed = Drain(stream.get());
  Table hashed = engine::HashGroupBy(t, {0}, {{AggSpec::Kind::kCount, 0,
                                               "c"}});
  EXPECT_EQ(streamed.num_rows(), 50);  // one per run of length 1
  EXPECT_GT(streamed.num_rows(), hashed.num_rows());
}

TEST(StreamAggregateTest, EmptyInput) {
  Table t = MakeKv(0, 1);
  OpPtr agg = StreamAggregate(Scan(&t), {0},
                              {{AggSpec::Kind::kSum, 1, "s"}});
  Batch b;
  EXPECT_FALSE(agg->Next(&b));
}

// Drains `op` like exec::Drain, also recording each batch's row count.
Table DrainBatchSizes(Operator* op, std::vector<int64_t>* sizes) {
  Table out(op->schema());
  Batch batch;
  while (op->Next(&batch)) {
    sizes->push_back(batch.num_rows());
    for (int c = 0; c < out.num_columns(); ++c) {
      out.col(c).AppendRange(batch.col(c), 0, batch.num_rows());
    }
    out.SetRowCount(out.num_rows() + batch.num_rows());
  }
  return out;
}

TEST(StreamAggregateTest, CoalescesGroupsUpToBatchRows) {
  // 23 groups of ~43 rows; 100-row child batches hold two or three group
  // boundaries each, so filling a 5-row output batch stops mid-way
  // through a child batch and the next call must resume there.
  Table t = engine::SortBy(MakeKv(1000, 23), {0});
  const std::vector<AggSpec> aggs{{AggSpec::Kind::kSum, 1, "s"},
                                  {AggSpec::Kind::kCount, 0, "c"}};
  std::vector<int64_t> sizes, single_sizes;
  OpPtr coalesced = StreamAggregate(Scan(&t, nullptr, 100), {0}, aggs,
                                    /*batch_rows=*/5);
  const Table got = DrainBatchSizes(coalesced.get(), &sizes);
  OpPtr single = StreamAggregate(Scan(&t, nullptr, 100), {0}, aggs,
                                 /*batch_rows=*/1);
  const Table ref = DrainBatchSizes(single.get(), &single_sizes);
  EXPECT_EQ(sizes, (std::vector<int64_t>{5, 5, 5, 5, 3}));
  EXPECT_EQ(single_sizes, std::vector<int64_t>(23, 1));
  EXPECT_TRUE(TablesEqualExactly(ref, got));
  EXPECT_TRUE(engine::SameRowMultiset(engine::HashGroupBy(t, {0}, aggs), got));
}

TEST(CombinePartialAggregatesTest, CoalescesGroupsUpToBatchRows) {
  // Two adjacent partial rows per group (as a morsel boundary leaves
  // them), 23 groups, 9-row child batches that split some pairs.
  Schema s;
  s.Add("g", DataType::kInt64);
  s.Add("c", DataType::kInt64);
  s.Add("s", DataType::kDouble);
  Table partials(s);
  for (int64_t g = 0; g < 23; ++g) {
    partials.AppendRow({Value(g), Value(int64_t{2}), Value(0.5 * g)});
    partials.AppendRow({Value(g), Value(int64_t{3}), Value(1.0)});
  }
  partials = engine::SortBy(partials, {0});
  const std::vector<AggSpec::Kind> kinds{AggSpec::Kind::kCount,
                                         AggSpec::Kind::kSum};
  std::vector<int64_t> sizes, single_sizes;
  OpPtr coalesced = CombinePartialAggregates(Scan(&partials, nullptr, 9), 1,
                                             kinds, /*batch_rows=*/5);
  const Table got = DrainBatchSizes(coalesced.get(), &sizes);
  OpPtr single = CombinePartialAggregates(Scan(&partials, nullptr, 9), 1,
                                          kinds, /*batch_rows=*/1);
  const Table ref = DrainBatchSizes(single.get(), &single_sizes);
  EXPECT_EQ(sizes, (std::vector<int64_t>{5, 5, 5, 5, 3}));
  EXPECT_EQ(single_sizes, std::vector<int64_t>(23, 1));
  EXPECT_TRUE(TablesEqualExactly(ref, got));
  for (int64_t g = 0; g < 23; ++g) {
    EXPECT_EQ(got.col(0).Int(g), g);
    EXPECT_EQ(got.col(1).Int(g), 5);
    EXPECT_EQ(got.col(2).Double(g), 0.5 * g + 1.0);
  }
}

TEST(StreamDistinctTest, MatchesHashDistinctOnSortedInput) {
  Table t = engine::SortBy(MakeKv(777, 19), {0});
  OpPtr d = StreamDistinct(Scan(&t, nullptr, 10), {0});
  Table streamed = Drain(d.get());
  Table hashed = engine::HashDistinct(t, {0});
  EXPECT_TRUE(engine::SameRowMultiset(hashed, streamed));
  EXPECT_EQ(streamed.num_rows(), 19);
}

TEST(StreamDistinctTest, NonContiguousEmitsRuns) {
  Table t = MakeKv(10, 2);  // 0,1,0,1,...
  OpPtr d = StreamDistinct(Scan(&t), {0});
  EXPECT_EQ(Drain(d.get()).num_rows(), 10);
}

TEST(MergeJoinTest, MatchesEngineSortMergeJoin) {
  // Duplicate keys on both sides: cross products per equal-key run, with
  // runs straddling the 3-row batches.
  Schema s;
  s.Add("k", DataType::kInt64);
  s.Add("x", DataType::kInt64);
  Table l(s), r(s);
  const int64_t lkeys[] = {1, 1, 2, 3, 3, 3, 5, 7, 7, 9};
  const int64_t rkeys[] = {0, 1, 3, 3, 4, 5, 5, 7, 10};
  for (size_t i = 0; i < sizeof(lkeys) / sizeof(lkeys[0]); ++i) {
    l.AppendRow({Value(lkeys[i]), Value(static_cast<int64_t>(100 + i))});
  }
  for (size_t i = 0; i < sizeof(rkeys) / sizeof(rkeys[0]); ++i) {
    r.AppendRow({Value(rkeys[i]), Value(static_cast<int64_t>(200 + i))});
  }
  opt::ExecStats stats;
  OpPtr j = MergeJoin(Scan(&l, nullptr, 3), 0, Scan(&r, nullptr, 3), 0,
                      &stats);
  Table streamed = Drain(j.get(), &stats);
  Table reference = engine::SortMergeJoin(l, 0, r, 0, /*assume_sorted=*/true);
  EXPECT_TRUE(engine::SameRowMultiset(reference, streamed));
  EXPECT_EQ(stats.joins, 1);
  EXPECT_EQ(stats.rows_joined, streamed.num_rows());
  EXPECT_TRUE(engine::IsSortedBy(streamed, {0}));
}

TEST(MergeJoinTest, EmptyInputs) {
  Table l = MakeKv(10, 3);
  Table empty = MakeKv(0, 1);
  OpPtr j1 = MergeJoin(Scan(&l), 0, Scan(&empty), 0);
  EXPECT_EQ(Drain(j1.get()).num_rows(), 0);
  OpPtr j2 = MergeJoin(Scan(&empty), 0, Scan(&l), 0);
  EXPECT_EQ(Drain(j2.get()).num_rows(), 0);
}

TEST(MergeJoinTest, NanDoubleKeysAgreeWithCompareDoubles) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Schema s;
  s.Add("k", DataType::kDouble);
  s.Add("side", DataType::kInt64);
  Table l(s), r(s);
  for (double k : {1.0, 2.5, 0.0, nan, nan}) {
    l.AppendRow({Value(k), Value(int64_t{1})});
  }
  for (double k : {2.5, 2.5, -0.0, nan}) {
    r.AppendRow({Value(k), Value(int64_t{2})});
  }
  // engine::SortBy orders doubles via od::CompareDoubles: NaNs equal each
  // other and sort after every ordered value.
  Table ls = engine::SortBy(l, {0});
  Table rs = engine::SortBy(r, {0});
  OpPtr j = MergeJoin(Scan(&ls, nullptr, 2), 0, Scan(&rs, nullptr, 2), 0);
  Table out = Drain(j.get());
  // 2.5 matches the right's run of two; +0.0 matches -0.0 (CompareDoubles
  // ties them); each left NaN matches the single right NaN.
  EXPECT_EQ(out.num_rows(), 2 + 1 + 2);
  int nan_rows = 0;
  for (int64_t i = 0; i < out.num_rows(); ++i) {
    if (std::isnan(out.col(0).Double(i))) ++nan_rows;
  }
  EXPECT_EQ(nan_rows, 2);
  // NaN joins stream out last — the total order puts NaN after everything.
  EXPECT_TRUE(std::isnan(out.col(0).Double(out.num_rows() - 1)));
}

TEST(SortTest, NanDoublesAgreeWithEngineSort) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Schema s;
  s.Add("x", DataType::kDouble);
  Table t(s);
  for (double v : {3.0, nan, -1.0, 0.0, nan, 2.0, -0.0}) {
    t.AppendRow({Value(v)});
  }
  opt::ExecStats stats;
  OpPtr sorted = ExternalSort(Scan(&t, nullptr, 2), {0}, {}, &stats);
  Table out = Drain(sorted.get());
  Table reference = engine::SortBy(t, {0});
  EXPECT_TRUE(TablesEqualExactly(reference, out));
  EXPECT_EQ(stats.sorts, 1);
  // All NaNs land at the end, per CompareDoubles.
  EXPECT_TRUE(std::isnan(out.col(0).Double(out.num_rows() - 1)));
  EXPECT_TRUE(std::isnan(out.col(0).Double(out.num_rows() - 2)));
  EXPECT_FALSE(std::isnan(out.col(0).Double(out.num_rows() - 3)));
}

TEST(SortTest, AlreadySortedInputCountsAsElided) {
  Table t = engine::SortBy(MakeKv(500, 7), {0});
  opt::ExecStats stats;
  OpPtr sorted = ExternalSort(Scan(&t), {0}, {}, &stats);
  Table out = Drain(sorted.get());
  EXPECT_EQ(stats.sorts, 0);
  EXPECT_EQ(stats.sorts_elided, 1);
  EXPECT_TRUE(engine::IsSortedBy(out, {0}));
}

TEST(LimitTest, EarlyExitStopsScanning) {
  Table t = MakeKv(100000, 11);
  opt::ExecStats stats;
  OpPtr lim = Limit(Scan(&t, &stats), 10);
  Table out = Drain(lim.get(), &stats);
  EXPECT_EQ(out.num_rows(), 10);
  // Only the first batch was ever pulled.
  EXPECT_EQ(stats.rows_scanned, kDefaultBatchRows);
}

TEST(TopKTest, MatchesSortPlusLimit) {
  Table t = MakeKv(5000, 997);
  OpPtr topk = TopK(Scan(&t), {0, 1}, 25);
  Table got = Drain(topk.get());
  Table full = engine::SortBy(t, {0, 1});
  ASSERT_EQ(got.num_rows(), 25);
  for (int64_t i = 0; i < 25; ++i) {
    EXPECT_EQ(got.col(0).Get(i), full.col(0).Get(i));
    EXPECT_EQ(got.col(1).Get(i), full.col(1).Get(i));
  }
}

// The exec kernels are checked against engine::ops, an independent
// implementation: at one stream and at four fragments, at batch sizes 1, 3
// and the default.
constexpr int64_t kKernelBatches[] = {1, 3, kDefaultBatchRows};
constexpr int kKernelFragments = 4;

// Drains `op`, asserting no batch exceeds `batch_rows`.
Table DrainBounded(Operator* op, int64_t batch_rows) {
  Table out(op->schema());
  Batch b;
  while (op->Next(&b)) {
    EXPECT_LE(b.num_rows(), batch_rows);
    for (int c = 0; c < out.num_columns(); ++c) {
      out.col(c).AppendRange(b.col(c), 0, b.num_rows());
    }
    out.SetRowCount(out.num_rows() + b.num_rows());
  }
  return out;
}

std::vector<std::pair<int64_t, int64_t>> Morsels(int64_t rows, int n) {
  std::vector<std::pair<int64_t, int64_t>> out;
  for (int f = 0; f < n; ++f) {
    out.emplace_back(rows * f / n, rows * (f + 1) / n);
  }
  return out;
}

void ExpectHashAggregateMatchesEngine(
    const Table& t, const std::vector<engine::ColumnId>& groups,
    const std::vector<AggSpec>& aggs) {
  const Table reference = engine::HashGroupBy(t, groups, aggs);
  common::ThreadPool pool(kKernelFragments);
  const auto morsels = Morsels(t.num_rows(), kKernelFragments);
  for (int64_t batch : kKernelBatches) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch));
    OpPtr single =
        HashAggregate(Scan(&t, nullptr, batch), groups, aggs, batch);
    const Table streamed = DrainBounded(single.get(), batch);
    EXPECT_TRUE(engine::SameRowMultiset(reference, streamed)) << "one stream";

    opt::ExecStats stats;
    OpPtr parallel = ParallelHashAggregate(
        kKernelFragments,
        [&](int f, opt::ExecStats* fs) {
          return ScanRange(&t, morsels[f].first, morsels[f].second, fs,
                           batch);
        },
        groups, aggs, &pool, &stats, batch);
    const Table merged = DrainBounded(parallel.get(), batch);
    EXPECT_TRUE(engine::SameRowMultiset(reference, merged))
        << kKernelFragments << " fragments";
    EXPECT_EQ(stats.fragments, kKernelFragments);
  }
}

TEST(HashAggregateTest, MatchesEngineHashGroupBy) {
  const Table t = MakeKv(3000, 17);
  ExpectHashAggregateMatchesEngine(t, {0}, {{AggSpec::Kind::kSum, 1, "s"}});
  // Count-only and avg (finished after the merge, never merged itself).
  ExpectHashAggregateMatchesEngine(t, {0}, {{AggSpec::Kind::kCount, 0, "n"}});
  ExpectHashAggregateMatchesEngine(t, {0}, {{AggSpec::Kind::kAvg, 1, "a"}});
  // NaN measures: sum/avg turn NaN, min/max follow od::CompareDoubles (NaN
  // after every value) — in every fragment and through the merge. Rows 0,
  // 97, 194, ... are NaN, so some groups meet their first NaN in a later
  // fragment than the one the merge starts from.
  ExpectHashAggregateMatchesEngine(MakeKv(500, 7, /*nan_every=*/97), {0},
                                   {{AggSpec::Kind::kSum, 1, "s"},
                                    {AggSpec::Kind::kMin, 1, "lo"},
                                    {AggSpec::Kind::kMax, 1, "hi"},
                                    {AggSpec::Kind::kAvg, 1, "a"},
                                    {AggSpec::Kind::kCount, 0, "n"}});
  // Empty input: no groups at all (empty fragments included).
  ExpectHashAggregateMatchesEngine(MakeKv(0, 1), {0},
                                   {{AggSpec::Kind::kSum, 1, "s"},
                                    {AggSpec::Kind::kCount, 0, "n"}});
}

void ExpectHashJoinMatchesEngine(const Table& fact, const Table& dim) {
  const Table reference = engine::HashJoin(fact, 0, dim, 0);
  const bool fact_sorted = engine::IsSortedBy(fact, {0});
  common::ThreadPool pool(kKernelFragments);
  const auto morsels = Morsels(fact.num_rows(), kKernelFragments);
  for (int64_t batch : kKernelBatches) {
    SCOPED_TRACE("batch_rows=" + std::to_string(batch));
    opt::ExecStats stats;
    OpPtr j = HashJoin(Scan(&fact, nullptr, 64), 0, Scan(&dim), 0, &stats,
                       batch);
    if (fact_sorted) {
      EXPECT_EQ(j->ordering(), engine::SortSpec({0}));  // probe order survives
    }
    const Table streamed = DrainBounded(j.get(), batch);
    EXPECT_TRUE(engine::SameRowMultiset(reference, streamed)) << "one stream";
    if (fact_sorted) {
      EXPECT_TRUE(engine::IsSortedBy(streamed, {0}));
    }
    EXPECT_EQ(stats.joins, 1);
    EXPECT_EQ(stats.rows_joined, reference.num_rows());

    opt::ExecStats pstats;
    auto table = BuildSharedHash(Scan(&dim), 0, &pstats);
    OpPtr x = Exchange(
        kKernelFragments,
        [&](int f, opt::ExecStats* fs) {
          return HashProbe(ScanRange(&fact, morsels[f].first,
                                     morsels[f].second, fs, 64),
                           0, table, fs, batch);
        },
        MergeMode::kUnion, {}, &pool, &pstats, batch);
    const Table unioned = DrainBounded(x.get(), batch);
    x.reset();
    EXPECT_TRUE(engine::SameRowMultiset(reference, unioned))
        << kKernelFragments << " fragments";
    if (fact_sorted) {
      EXPECT_TRUE(engine::IsSortedBy(unioned, {0}));
    }
    EXPECT_EQ(pstats.joins, 1);
    EXPECT_EQ(pstats.fragments, kKernelFragments);
  }
}

TEST(HashJoinTest, StreamingProbeMatchesEngineAndPreservesOrder) {
  const Table fact = engine::SortBy(MakeKv(2000, 50), {0});
  Schema ds;
  ds.Add("k", DataType::kInt64);
  ds.Add("name", DataType::kString);
  Table dim(ds);
  for (int64_t i = 0; i < 50; i += 2) {  // only even keys match
    dim.AppendRow({Value(i), Value("d" + std::to_string(i))});
  }
  ExpectHashJoinMatchesEngine(fact, dim);
  // Fan-out 10: every matching probe row overflows batches of 1 and 3 and
  // must resume mid-row.
  Table wide(ds);
  for (int64_t i = 0; i < 50; i += 2) {
    for (int copy = 0; copy < 10; ++copy) {
      wide.AppendRow({Value(i), Value("d" + std::to_string(copy))});
    }
  }
  ExpectHashJoinMatchesEngine(fact, wide);
  // NaN measures ride through the probe untouched.
  ExpectHashJoinMatchesEngine(
      engine::SortBy(MakeKv(2000, 50, /*nan_every=*/7), {0}), dim);
  // Empty probe side and empty build side.
  ExpectHashJoinMatchesEngine(engine::SortBy(MakeKv(0, 1), {0}), dim);
  ExpectHashJoinMatchesEngine(fact, Table(ds));
}

TEST(IndexRangeScanTest, MatchesIndexScanRange) {
  Table t = MakeKv(5000, 100);
  engine::OrderedIndex idx(&t, {0});
  opt::ExecStats stats;
  OpPtr scan = IndexRangeScan(&idx, {{10, 20}}, &stats, 128);
  EXPECT_EQ(scan->ordering(), engine::SortSpec({0}));
  Table streamed = Drain(scan.get(), &stats);
  Table reference = idx.ScanRange(10, 20);
  EXPECT_TRUE(TablesEqualExactly(reference, streamed));
  EXPECT_EQ(stats.rows_scanned, reference.num_rows());
}

TEST(PartitionedScanTest, PrunesAndMatchesMaterializingScan) {
  Table t = MakeKv(8000, 64);
  engine::PartitionedTable parts =
      engine::PartitionedTable::PartitionByRange(t, 0, 16);
  opt::ExecStats stats;
  OpPtr scan = PartitionedScan(&parts, {{8, 15}}, &stats, 256);
  Table streamed = Drain(scan.get(), &stats);
  int touched = 0;
  Table reference = parts.ScanRange(8, 15, &touched);
  EXPECT_TRUE(engine::SameRowMultiset(reference, streamed));
  EXPECT_EQ(stats.partitions_scanned, touched);
  EXPECT_LT(stats.partitions_scanned, 16);
}

TEST(OperatorContractTest, InvalidColumnIdsThrow) {
  Table t = MakeKv(10, 3);
  EXPECT_THROW(Filter(Scan(&t), {{-1, Predicate::Op::kEq, Value(0)}}),
               std::out_of_range);
  EXPECT_THROW(Project(Scan(&t), {5}), std::out_of_range);
  EXPECT_THROW(StreamAggregate(Scan(&t), {9}, {}), std::out_of_range);
  EXPECT_THROW(ExternalSort(Scan(&t), {3}, {}), std::out_of_range);
  EXPECT_THROW(MergeJoin(Scan(&t), 0, Scan(&t), -1), std::out_of_range);
  EXPECT_THROW(HashJoin(Scan(&t), 7, Scan(&t), 0), std::out_of_range);
  // HashJoin builds and probes through the unchecked int64 accessor; a
  // non-int64 key must be rejected up front (MergeJoin handles any type).
  EXPECT_THROW(HashJoin(Scan(&t), 1, Scan(&t), 1), std::invalid_argument);
}

TEST(OperatorContractTest, DrainingTheSameTreeTwiceThrows) {
  Table t = MakeKv(100, 3);
  OpPtr op = ExternalSort(Scan(&t), {0}, {});
  Drain(op.get());
  // Operators are single-use; a second drain would silently return empty
  // rows without the StartConsume guard.
  EXPECT_THROW(Drain(op.get()), std::logic_error);
}

TEST(OperatorContractTest, SinksRejectAlreadyConsumedChildren) {
  Table t = MakeKv(100, 3);
  OpPtr scan = Scan(&t);
  Drain(scan.get());
  OpPtr sort = ExternalSort(std::move(scan), {0}, {});
  Batch b;
  EXPECT_THROW(sort->Next(&b), std::logic_error);
}

TEST(CheckOrderTest, PassesAnHonestOrderingClaim) {
  Table t = MakeKv(5000, 7);
  OpPtr op = CheckOrder(
      ExternalSort(Scan(&t, nullptr, /*batch_rows=*/3), {0, 1}, {}));
  Table out = Drain(op.get());
  EXPECT_EQ(out.num_rows(), 5000);
  EXPECT_TRUE(engine::IsSortedBy(out, {0, 1}));
}

TEST(CheckOrderTest, NoClaimMeansNoChecking) {
  Table t = MakeKv(100, 7);  // unsorted by k, but Scan claims nothing
  OpPtr op = CheckOrder(Scan(&t));
  EXPECT_EQ(Drain(op.get()).num_rows(), 100);
}

// An operator that *lies* about its ordering property: forwards the
// child's (unsorted) stream while claiming it is sorted by `spec`.
class LyingOp : public Operator {
 public:
  LyingOp(OpPtr child, engine::SortSpec claim) : child_(std::move(child)) {
    schema_ = child_->schema();
    ordering_ = std::move(claim);
  }
  bool Next(Batch* out) override { return child_->Next(out); }
  std::string Describe(int indent) const override {
    return Pad(indent) + "Lying\n" + child_->Describe(indent + 1);
  }

 private:
  OpPtr child_;
};

TEST(CheckOrderTest, CatchesAFalseClaimAcrossBatchBoundaries) {
  Table t = MakeKv(100, 7);  // k cycles 0..6: descends at every wrap
  // Single-row batches: the only adjacent pairs are across batches.
  OpPtr op = CheckOrder(std::make_unique<LyingOp>(
      Scan(&t, nullptr, /*batch_rows=*/1), engine::SortSpec{0}));
  EXPECT_THROW(Drain(op.get()), std::logic_error);
}

TEST(CheckOrderTest, NanDoublesTieUnderTheClaim) {
  // NaNs order after every value and tie with each other — a stream
  // sorted that way must pass the checker (od::CompareDoubles semantics).
  Schema s;
  s.Add("x", DataType::kDouble);
  Table t(s);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double v : {1.0, 2.0, 2.0, nan, nan}) t.AppendRow({Value(v)});
  OpPtr op = CheckOrder(
      std::make_unique<LyingOp>(Scan(&t, nullptr, 2), engine::SortSpec{0}));
  EXPECT_EQ(Drain(op.get()).num_rows(), 5);
}

}  // namespace
}  // namespace exec
}  // namespace od
