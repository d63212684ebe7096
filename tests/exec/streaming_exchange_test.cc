// Exec-level tests of the streaming exchange: row-bounded queue residency
// on inputs far larger than the queues (also behind a high fan-out hash
// join), producers of small batches that
// never park, deterministic fragment-ordered union, the ordered merge's
// build-time proof obligation and runtime boundary check, failure
// propagation out of producer tasks (with spill temp-file cleanup),
// early-exit cancellation, exchanges nested inside exchange fragments on
// one shared pool, and the dop-4 daily-sales plan running park-free.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "engine/index.h"
#include "engine/ops.h"
#include "exec/operator.h"
#include "exec/parallel.h"
#include "optimizer/exec_stats.h"
#include "optimizer/planner.h"
#include "theory/theory.h"
#include "warehouse/date_dim.h"
#include "warehouse/queries.h"
#include "warehouse/star_schema.h"

namespace od {
namespace exec {
namespace {

namespace fs = std::filesystem;

using engine::DataType;
using engine::Schema;
using engine::SortSpec;
using engine::Table;

// A single int64 column holding scrambled values: v = (i * 7919) % n, so
// physical order is not sorted but is deterministic per row index.
Table MakeScrambled(int64_t rows) {
  Schema s;
  s.Add("v", DataType::kInt64);
  Table t(s);
  for (int64_t i = 0; i < rows; ++i) {
    t.AppendRow({Value((i * 7919) % rows)});
  }
  return t;
}

std::vector<std::pair<int64_t, int64_t>> SplitRows(int64_t n, int frags) {
  std::vector<std::pair<int64_t, int64_t>> out;
  const int64_t per = (n + frags - 1) / frags;
  for (int f = 0; f < frags; ++f) {
    const int64_t b = std::min<int64_t>(n, f * per);
    out.emplace_back(b, std::min<int64_t>(n, b + per));
  }
  return out;
}

bool SameRows(const Table& a, const Table& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    return false;
  }
  for (int64_t r = 0; r < a.num_rows(); ++r) {
    if (a.col(0).Int(r) != b.col(0).Int(r)) return false;
  }
  return true;
}

// Passes `batches_before_throw` child batches through, then throws — the
// injected mid-pipeline failure, planted inside a producer fragment.
class ThrowAfter : public Operator {
 public:
  ThrowAfter(OpPtr child, int batches_before_throw)
      : child_(std::move(child)), remaining_(batches_before_throw) {
    schema_ = child_->schema();
  }
  bool Next(Batch* out) override {
    if (remaining_-- <= 0) throw std::runtime_error("injected failure");
    return child_->Next(out);
  }
  std::string Describe(int indent) const override {
    return Pad(indent) + "ThrowAfter\n" + child_->Describe(indent + 1);
  }

 private:
  OpPtr child_;
  int remaining_;
};

class StreamingExchangeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pool_ = std::make_unique<common::ThreadPool>(4);
    dir_ = fs::path(::testing::TempDir()) /
           ("od_xchg_" + std::string(::testing::UnitTest::GetInstance()
                                         ->current_test_info()
                                         ->name()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  int64_t FilesInDir() const {
    int64_t n = 0;
    for (const auto& e : fs::directory_iterator(dir_)) {
      (void)e;
      ++n;
    }
    return n;
  }

  std::unique_ptr<common::ThreadPool> pool_;
  fs::path dir_;
};

TEST_F(StreamingExchangeTest, UnionEmitsFragmentsInOrder) {
  // Union emission is fragment-ordered, so with row-range morsels the
  // stream is row-identical to the serial scan — however production
  // interleaves.
  const Table t = MakeScrambled(10001);
  OpPtr serial = Scan(&t);
  const Table expect = Drain(serial.get());
  const auto ranges = SplitRows(t.num_rows(), 4);
  OpPtr op = Exchange(
      4,
      [&](int f, opt::ExecStats* fs) {
        return ScanRange(&t, ranges[f].first, ranges[f].second, fs,
                         /*batch_rows=*/7);
      },
      MergeMode::kUnion, SortSpec{}, pool_.get(), nullptr, /*batch_rows=*/7);
  const Table got = Drain(op.get());
  EXPECT_TRUE(SameRows(expect, got));
}

TEST_F(StreamingExchangeTest, PeakResidencyStaysBoundedOnLargeInput) {
  // The point of streaming: 300k rows flow through, but each fragment
  // queue holds at most kExchangeQueueBatches × batch_rows rows, and a
  // parked producer one more batch of at most batch_rows — so at most
  // fragments × (kExchangeQueueBatches + 1) × batch_rows rows are ever
  // resident. The queues, not the input, bound the footprint.
  constexpr int64_t kRows = 300000;
  constexpr int kFrags = 4;
  constexpr int64_t kBatch = 1024;
  const Table t = MakeScrambled(kRows);
  const auto ranges = SplitRows(kRows, kFrags);
  opt::ExecStats stats;
  OpPtr op = Exchange(
      kFrags,
      [&](int f, opt::ExecStats* fs) {
        return ScanRange(&t, ranges[f].first, ranges[f].second, fs, kBatch);
      },
      MergeMode::kUnion, SortSpec{}, pool_.get(), &stats, kBatch);
  const Table got = Drain(op.get(), &stats);
  op.reset();
  EXPECT_EQ(got.num_rows(), kRows);
  EXPECT_GT(stats.exchange_peak_rows, 0);
  EXPECT_LE(stats.exchange_peak_rows,
            kFrags * (kExchangeQueueBatches + 1) * kBatch);
}

TEST_F(StreamingExchangeTest, HighFanOutJoinStaysWithinTheRowBound) {
  // A planned hash join in which every probe row matches ten build rows,
  // at dop 4 with 64-row batches. The probe caps its output at batch_rows
  // and resumes mid probe row, so fragment batches stay within batch_rows
  // and the exchange keeps its bound of fragments ×
  // (kExchangeQueueBatches + 1) × batch_rows resident rows. A probe that
  // emitted a whole probe batch's matches at once would push 640-row
  // batches into 256-row queues.
  constexpr int kFrags = 4;
  constexpr int64_t kBatch = 64;
  constexpr int64_t kKeys = 100;
  constexpr int kFanOut = 10;
  Schema ps;
  ps.Add("k", DataType::kInt64);
  Table probe(ps);
  for (int64_t i = 0; i < 20000; ++i) probe.AppendRow({Value(i % kKeys)});
  Schema bs;
  bs.Add("k", DataType::kInt64);
  bs.Add("copy", DataType::kInt64);
  Table build(bs);
  for (int64_t k = 0; k < kKeys; ++k) {
    for (int64_t c = 0; c < kFanOut; ++c) build.AppendRow({Value(k), Value(c)});
  }
  opt::LogicalQuery q;
  q.name = "fan_out_join";
  q.tables.push_back(
      opt::TableRef{"probe", &probe, nullptr, nullptr, nullptr, nullptr, -1});
  q.tables.push_back(
      opt::TableRef{"build", &build, nullptr, nullptr, nullptr, nullptr, -1});
  q.joins.push_back(opt::JoinClause{1, 0, 0});
  q.filters.resize(2);
  opt::CostModel cm;
  cm.fragment_startup = 0.0;
  opt::PlanOptions opts;
  opts.dop = kFrags;
  opts.pool = pool_.get();
  opts.batch_rows = kBatch;
  const opt::PhysicalPlan plan = opt::PlanQuery(q, cm, opts);
  ASSERT_NE(plan.Explain().find("Exchange"), std::string::npos)
      << plan.Explain();
  ASSERT_NE(plan.Explain().find("HashJoin"), std::string::npos)
      << plan.Explain();
  opt::ExecStats stats;
  const Table got = plan.Execute(&stats);
  EXPECT_TRUE(engine::SameRowMultiset(engine::HashJoin(probe, 0, build, 0),
                                      got));
  EXPECT_GE(stats.fragments, kFrags) << plan.Explain();
  EXPECT_GT(stats.exchange_peak_rows, 0);
  EXPECT_LE(stats.exchange_peak_rows,
            kFrags * (kExchangeQueueBatches + 1) * kBatch);
}

TEST_F(StreamingExchangeTest, OrderedMergeBitIdenticalToSerialIndexScan) {
  const Table t = MakeScrambled(20000);
  const engine::OrderedIndex index(&t, SortSpec{0});
  OpPtr serial = IndexRangeScan(&index);
  const Table expect = Drain(serial.get());
  const auto ranges = SplitRows(t.num_rows(), 4);
  OpPtr op = Exchange(
      4,
      [&](int f, opt::ExecStats* fs) {
        return IndexPositionScan(&index, ranges[f].first, ranges[f].second,
                                 fs, /*batch_rows=*/64);
      },
      MergeMode::kOrderedMerge, SortSpec{0}, pool_.get(), nullptr,
      /*batch_rows=*/64);
  EXPECT_EQ(op->ordering(), SortSpec{0});
  const Table got = Drain(op.get());
  EXPECT_TRUE(SameRows(expect, got));
}

TEST_F(StreamingExchangeTest, SmallBatchProducersNeverParkWithinTheRowBound) {
  // Fragments emitting 1-row batches: a queue bounded in batches would
  // park them after four rows. Bounded in rows (4 × 1024 here), a
  // fragment whose whole output is 4096 rows fits its queue and never
  // waits on the consumer, whatever order the consumer drains in.
  constexpr int kFrags = 4;
  constexpr int64_t kRows = kFrags * kExchangeQueueBatches * 1024;
  const Table t = MakeScrambled(kRows);
  OpPtr serial = Scan(&t);
  const Table expect = Drain(serial.get());
  const auto ranges = SplitRows(kRows, kFrags);
  opt::ExecStats stats;
  OpPtr op = Exchange(
      kFrags,
      [&](int f, opt::ExecStats* fs) {
        return ScanRange(&t, ranges[f].first, ranges[f].second, fs,
                         /*batch_rows=*/1);
      },
      MergeMode::kUnion, SortSpec{}, pool_.get(), &stats,
      /*batch_rows=*/1024);
  const Table got = Drain(op.get(), &stats);
  op.reset();
  EXPECT_TRUE(SameRows(expect, got));
  EXPECT_EQ(stats.fragments, kFrags);
  EXPECT_EQ(stats.exchange_parks, 0);
  EXPECT_EQ(stats.batches, kRows);
}

TEST_F(StreamingExchangeTest, OrderedMergeWithoutProofThrows) {
  // The runtime proof obligation: a fragment that cannot claim the merge
  // order is rejected at build time, not silently mis-merged.
  const Table t = MakeScrambled(100);
  EXPECT_THROW(
      Exchange(
          2,
          [&](int f, opt::ExecStats* fs) {
            const auto ranges = SplitRows(t.num_rows(), 2);
            // ScanRange of an unsorted table claims no ordering.
            return ScanRange(&t, ranges[f].first, ranges[f].second, fs);
          },
          MergeMode::kOrderedMerge, SortSpec{0}, pool_.get()),
      std::logic_error);
}

TEST_F(StreamingExchangeTest, OrderedMergeRejectsSwappedMorsels) {
  // Both fragments carry the build-time proof (an index scan claims [0]),
  // but fragment 0 holds the high key range: the fragment-order
  // concatenation is not ordered, and the boundary check must throw
  // instead of returning rows out of order — parallel and serial alike.
  const Table t = MakeScrambled(20000);
  const engine::OrderedIndex index(&t, SortSpec{0});
  const auto ranges = SplitRows(t.num_rows(), 2);
  for (common::ThreadPool* pool : {pool_.get(), (common::ThreadPool*)nullptr}) {
    OpPtr op = Exchange(
        2,
        [&](int f, opt::ExecStats* fs) {
          const auto& r = ranges[1 - f];
          return IndexPositionScan(&index, r.first, r.second, fs,
                                   /*batch_rows=*/64);
        },
        MergeMode::kOrderedMerge, SortSpec{0}, pool, nullptr,
        /*batch_rows=*/64);
    EXPECT_EQ(op->ordering(), SortSpec{0});
    EXPECT_THROW(Drain(op.get()), std::logic_error);
  }
}

TEST_F(StreamingExchangeTest, ProducerFailureCancelsAndCleansSpills) {
  // Fragment 1 throws mid-drain, under an external sort that has already
  // spilled runs. The failure must surface on the consumer, wind down the
  // other producers, and leave zero temp files behind.
  const Table t = MakeScrambled(4000);
  const auto ranges = SplitRows(t.num_rows(), 4);
  opt::ExecStats stats;
  {
    OpPtr op = Exchange(
        4,
        [&](int f, opt::ExecStats* fs) {
          OpPtr scan = ScanRange(&t, ranges[f].first, ranges[f].second, fs,
                                 /*batch_rows=*/8);
          if (f == 1) scan = std::make_unique<ThrowAfter>(std::move(scan), 4);
          SortOptions so;
          so.memory_budget_rows = 16;
          so.temp_dir = dir_.string();
          return ExternalSort(std::move(scan), SortSpec{0}, so, fs,
                              /*batch_rows=*/8);
        },
        MergeMode::kUnion, SortSpec{}, pool_.get(), &stats, /*batch_rows=*/8);
    EXPECT_THROW(Drain(op.get(), &stats), std::runtime_error);
  }
  // Every producer destroyed its fragment inside its task; the sorts'
  // RAII cleanup ran there.
  EXPECT_EQ(FilesInDir(), 0);
}

TEST_F(StreamingExchangeTest, EarlyExitStopsProducersEarly) {
  // A consumer that stops pulling (Limit) cancels the queues; producers
  // wind down without draining their morsels. The bounded queues cap how
  // far ahead they can have scanned.
  constexpr int64_t kRows = 200000;
  const Table t = MakeScrambled(kRows);
  const auto ranges = SplitRows(kRows, 4);
  opt::ExecStats stats;
  {
    OpPtr op = Exchange(
        4,
        [&](int f, opt::ExecStats* fs) {
          return ScanRange(&t, ranges[f].first, ranges[f].second, fs,
                           /*batch_rows=*/512);
        },
        MergeMode::kUnion, SortSpec{}, pool_.get(), &stats,
        /*batch_rows=*/512);
    Batch b;
    ASSERT_TRUE(op->Next(&b));
    ASSERT_TRUE(op->Next(&b));
    // Abandon the stream: the destructor cancels, joins, merges stats.
  }
  EXPECT_GT(stats.rows_scanned, 0);
  EXPECT_LT(stats.rows_scanned, kRows / 2)
      << "producers ran ahead of the cancelled consumer";
}

TEST_F(StreamingExchangeTest, NestedExchangesMatchSerial) {
  // An exchange whose fragments are themselves exchanges, all on one
  // pool: inner producers are stealable tasks and outer producers help
  // while blocked, so the nest drains. Emission stays fragment-ordered at
  // both levels — the stream equals the serial scan row for row.
  const Table t = MakeScrambled(50000);
  OpPtr serial = Scan(&t);
  const Table expect = Drain(serial.get());
  const auto outer = SplitRows(t.num_rows(), 2);
  for (common::ThreadPool* pool : {pool_.get(), (common::ThreadPool*)nullptr}) {
    opt::ExecStats stats;
    OpPtr op = Exchange(
        2,
        [&, pool](int f, opt::ExecStats* fs) {
          const auto inner = SplitRows(outer[f].second - outer[f].first, 2);
          return Exchange(
              2,
              [&, f, base = outer[f].first, inner](int g,
                                                   opt::ExecStats* gs) {
                return ScanRange(&t, base + inner[g].first,
                                 base + inner[g].second, gs,
                                 /*batch_rows=*/128);
              },
              MergeMode::kUnion, SortSpec{}, pool, fs, /*batch_rows=*/128);
        },
        MergeMode::kUnion, SortSpec{}, pool, &stats, /*batch_rows=*/128);
    const Table got = Drain(op.get(), &stats);
    op.reset();
    EXPECT_TRUE(SameRows(expect, got));
    EXPECT_EQ(stats.rows_scanned, t.num_rows());
  }
}

TEST_F(StreamingExchangeTest, DailySalesAtDopFourNeverParks) {
  // The OD-aware daily-sales plan at dop 4: per-fragment StreamAggregate
  // partials behind the ordered exchange, combined above it. Coalesced
  // partials and row-bounded queues let every fragment run to completion
  // without waiting on the consumer, which drains fragment 0 first.
  const Table dim = warehouse::GenerateDateDim(1998, 4);
  const Table fact = warehouse::GenerateStoreSales(
      /*num_rows=*/40000, dim.col(0).Int(0), dim.num_rows(),
      /*num_items=*/50, /*num_stores=*/10, /*seed=*/42);
  const engine::OrderedIndex index(&fact, SortSpec{0});
  auto ods = std::make_shared<theory::Theory>(warehouse::DateDimOds());
  const opt::LogicalQuery q = warehouse::DailySalesQuery(
      &fact, &dim, &index, /*fact_parts=*/nullptr, ods, 1999);
  opt::CostModel cm;
  cm.fragment_startup = 0.0;
  opt::PlanOptions opts;
  opts.dop = 4;
  opts.pool = pool_.get();
  const opt::PhysicalPlan plan = opt::PlanQuery(q, cm, opts);
  ASSERT_NE(plan.Explain().find("merge="), std::string::npos)
      << plan.Explain();
  opt::ExecStats stats;
  const Table got = plan.Execute(&stats);
  EXPECT_EQ(stats.fragments, 4);
  EXPECT_EQ(stats.exchange_parks, 0);
  EXPECT_EQ(stats.sorts, 0);

  opt::ExecStats ref_stats;
  const Table ref = opt::PlanQuery(q).Execute(&ref_stats);
  ASSERT_EQ(ref_stats.fragments, 0);
  ASSERT_EQ(got.num_rows(), ref.num_rows());
  ASSERT_EQ(got.num_columns(), ref.num_columns());
  for (int64_t r = 0; r < ref.num_rows(); ++r) {
    for (int c = 0; c < ref.num_columns(); ++c) {
      if (ref.col(c).type() == DataType::kDouble) {
        // Partial sums of a group split across morsels reassociate.
        EXPECT_NEAR(got.col(c).Double(r), ref.col(c).Double(r),
                    1e-9 * std::max(1.0, std::fabs(ref.col(c).Double(r))));
      } else {
        EXPECT_EQ(got.col(c).Get(r), ref.col(c).Get(r)) << r << "," << c;
      }
    }
  }
}

}  // namespace
}  // namespace exec
}  // namespace od
