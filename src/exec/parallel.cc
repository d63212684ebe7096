#include "exec/parallel.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/value.h"
#include "exec/internal.h"

namespace od {
namespace exec {

namespace {

using engine::AggSpec;
using engine::ColumnId;
using engine::DataType;
using engine::Schema;
using engine::SortSpec;
using engine::SpecString;
using engine::Table;
using internal::Acc;
using internal::AggOutputSchema;
using internal::CheckAggColumns;
using internal::CheckColumns;
using internal::EmitTableSlice;
using internal::IsPrefixOf;
using internal::JoinSchema;

/// `text` with every line indented `indent` levels (a fragment template's
/// Describe under its parallel operator).
std::string IndentLines(const std::string& text, int indent) {
  const std::string pad(indent * 2, ' ');
  std::string out;
  for (size_t start = 0; start < text.size();) {
    size_t nl = text.find('\n', start);
    if (nl == std::string::npos) nl = text.size();
    out += pad + text.substr(start, nl - start) + "\n";
    start = nl + 1;
  }
  return out;
}

/// Adds the fragments' private stats into `stats` once they have joined. A
/// fragment's rows_output/batches describe the fragment's stream, not the
/// pipeline root's; the root sink re-counts its own output.
void MergeFragmentStats(const std::vector<opt::ExecStats>& frags,
                        opt::ExecStats* stats) {
  stats->fragments += static_cast<int>(frags.size());
  for (opt::ExecStats partial : frags) {
    partial.rows_output = 0;
    partial.batches = 0;
    stats->Merge(partial);
  }
}

/// Per-fragment drain wall-clock, for spotting skewed morsels in a scrape.
common::Histogram& FragmentDrainHistogram() {
  static common::Histogram* h =
      &common::MetricRegistry::Global().GetHistogram(
          "od_exec_fragment_drain_us",
          "Wall-clock microseconds each exchange fragment took to drain");
  return *h;
}

/// Process-wide mirror of ExecStats::exchange_parks.
common::Counter& ExchangeParksCounter() {
  static common::Counter* c = &common::MetricRegistry::Global().GetCounter(
      "od_exec_exchange_parks_total",
      "Times an exchange producer pump parked on a full fragment queue");
  return *c;
}

/// The bounded batch queue between one exchange producer pump and the
/// consumer (one queue per fragment, single-producer single-consumer).
/// Capacity is counted in queued *rows*, so it bounds the exchange's
/// resident footprint whatever the producer's batch sizes: a fragment
/// emitting small batches runs as far ahead as one emitting full ones.
///
/// The producer NEVER blocks: a pump that finds the queue full *parks* —
/// it returns its thread to the scheduler, and the next Pop that frees
/// space fires `on_space` (which resubmits the pump). This is what makes
/// the exchange safe at any fragment/worker ratio: a blocking producer
/// would pin its worker while unscheduled siblings starve the consumer
/// (classic work-stealing wedge); a parked one costs nothing.
class BatchQueue {
 public:
  enum class Reserve { kReady, kParked, kCancelled };

  /// `resident`/`peak` are the owning exchange's cross-queue row
  /// accounting (ExecStats::exchange_peak_rows); `parks` is the fragment's
  /// private ExecStats::exchange_parks, written only under the queue lock;
  /// `on_space` reschedules the parked producer (invoked on the consumer
  /// thread, outside the queue lock).
  BatchQueue(int64_t capacity_rows, common::ThreadPool* pool,
             std::atomic<int64_t>* resident, std::atomic<int64_t>* peak,
             int64_t* parks, std::function<void()> on_space)
      : capacity_rows_(capacity_rows),
        pool_(pool),
        resident_(resident),
        peak_(peak),
        parks_(parks),
        on_space_(std::move(on_space)) {}

  /// The producer's admission check for a batch of `rows` it holds, made
  /// atomically with parking so a concurrent Pop can't miss the parked
  /// flag: kReady guarantees the next Push fits (only the consumer shrinks
  /// the queue, so the headroom can't vanish), kParked means the pump must
  /// keep the batch and return (Pop resubmits it once the batch fits),
  /// kCancelled means stop draining the fragment. An empty queue admits
  /// any batch, so an oversized one cannot wedge its producer.
  Reserve ReserveOrPark(int64_t rows) {
    std::lock_guard<std::mutex> lock(mu_);
    if (cancelled_) return Reserve::kCancelled;
    if (!Fits(rows)) {
      parked_rows_ = rows;
      parked_ = true;
      ++*parks_;
      ExchangeParksCounter().Add(1);
      return Reserve::kParked;
    }
    return Reserve::kReady;
  }

  /// Never blocks (capacity was reserved); false once cancelled — the
  /// producer's signal to stop draining its fragment.
  bool Push(Batch&& b) {
    const int64_t rows = b.num_rows();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (cancelled_) return false;
      q_.push_back(std::move(b));
      queued_rows_ += rows;
    }
    const int64_t now =
        resident_->fetch_add(rows, std::memory_order_relaxed) + rows;
    int64_t prev = peak_->load(std::memory_order_relaxed);
    while (now > prev && !peak_->compare_exchange_weak(
                             prev, now, std::memory_order_relaxed)) {
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty and the producer is open; false once the queue is
  /// drained-and-closed or cancelled. Freeing room for the parked
  /// producer's batch resumes it. While waiting, *helps*: runs queued
  /// scheduler tasks — the producer this pop is waiting on may itself be a
  /// task nobody has picked up (every worker can sit inside an outer
  /// fragment's consumer when exchanges nest), so blocking without helping
  /// could deadlock.
  /// Helping is safe precisely because pumps park instead of blocking:
  /// a stolen task always returns.
  bool Pop(Batch* out) {
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (!q_.empty()) {
          *out = std::move(q_.front());
          q_.pop_front();
          queued_rows_ -= out->num_rows();
          const bool resume = parked_ && Fits(parked_rows_);
          if (resume) parked_ = false;
          lock.unlock();
          resident_->fetch_sub(out->num_rows(), std::memory_order_relaxed);
          if (resume) on_space_();
          return true;
        }
        if (cancelled_ || closed_) return false;
      }
      if (pool_ != nullptr && pool_->RunOneTask()) continue;
      std::unique_lock<std::mutex> lock(mu_);
      if (!q_.empty() || cancelled_ || closed_) continue;
      // Nothing runnable and nothing queued: the producer is mid-execution
      // on another thread. The bounded wait re-polls the scheduler in case
      // a task is submitted while we sleep (the queue cv cannot observe
      // pool submissions).
      not_empty_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }

  /// The producer calls exactly once when done (including on error);
  /// after that a drained queue pops false instead of blocking.
  void CloseProducer() {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
    not_empty_.notify_all();
  }

  void Cancel() {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled_ = true;
    not_empty_.notify_all();
  }

 private:
  bool Fits(int64_t rows) const {
    return q_.empty() || queued_rows_ + rows <= capacity_rows_;
  }

  const int64_t capacity_rows_;
  common::ThreadPool* const pool_;
  std::atomic<int64_t>* const resident_;
  std::atomic<int64_t>* const peak_;
  int64_t* const parks_;  // guarded by mu_
  const std::function<void()> on_space_;
  std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<Batch> q_;
  int64_t queued_rows_ = 0;  // guarded by mu_
  int64_t parked_rows_ = 0;  // guarded by mu_: the parked producer's batch
  bool closed_ = false;      // guarded by mu_
  bool cancelled_ = false;   // guarded by mu_
  bool parked_ = false;      // guarded by mu_: producer awaits on_space_
};

class ExchangeOp : public Operator {
 public:
  ExchangeOp(int num_fragments, FragmentFactory factory, MergeMode mode,
             SortSpec merge_spec, common::ThreadPool* pool,
             opt::ExecStats* stats, int64_t batch_rows)
      : mode_(mode),
        merge_spec_(std::move(merge_spec)),
        pool_(pool),
        stats_(stats),
        batch_rows_(batch_rows),
        num_fragments_(num_fragments),
        factory_(std::move(factory)) {
    if (num_fragments_ < 1) {
      throw std::invalid_argument("exec::Exchange: need >= 1 fragment");
    }
    frag_stats_.resize(num_fragments_);
    // Fragment 0 is built eagerly: the Operator contract wants schema(),
    // ordering(), and Describe() at construction. The rest are built
    // lazily, inside their producer tasks, where ValidateFragment re-runs
    // the same checks (surfaced through the task group at drain time).
    frag0_ = factory_(0, &frag_stats_[0]);
    ValidateFragment(0, frag0_.get());
    schema_ = frag0_->schema();
    if (mode_ == MergeMode::kOrderedMerge) {
      ordering_ = merge_spec_;
      last_row_.Reset(schema_);
    } else if (num_fragments_ == 1) {
      ordering_ = frag0_->ordering();
    }
    describe_child_ = frag0_->Describe(0);
  }

  ~ExchangeOp() override {
    if (group_ != nullptr) {
      // Early exit (e.g. a Limit upstream stopped pulling): skip unstarted
      // producers, unblock running ones mid-Push, and join. Each producer
      // destroys its fragment inside its task, so spill temp files and
      // other RAII state unwind there.
      group_->Cancel();
      for (auto& q : queues_) q->Cancel();
      group_.reset();  // joins producers; their errors are already recorded
    }
    if (started_) MergeStats();  // partial counts are still true counts
  }

  bool Next(Batch* out) override {
    PrepareBatch(out);
    if (finished_) return false;
    if (!started_) Start();
    const bool more = NextInFragmentOrder(out);
    if (!more) Finish();  // rethrows the first producer error, if any
    if (more && mode_ == MergeMode::kOrderedMerge) CheckMergeOrder(*out);
    return more;
  }

  std::string Describe(int indent) const override {
    std::string out = Pad(indent) + "Exchange fragments=" +
                      std::to_string(num_fragments_) + " streaming";
    if (mode_ == MergeMode::kOrderedMerge) {
      out += " ordered-merge " + SpecString(merge_spec_) + " (OD-proven)";
    } else {
      out += " union";
    }
    out += "\n" + Pad(indent + 1) + "fragment template:\n";
    return out + IndentLines(describe_child_, indent + 2);
  }

 private:
  /// Per-fragment pump state, persisted across parks. `op == nullptr`
  /// before the first pump invocation and again after the fragment closes;
  /// `held` marks a produced batch that parked before it fit the queue.
  struct Producer {
    OpPtr op;
    Batch batch;
    bool held = false;
    std::chrono::steady_clock::time_point start;
  };

  void ValidateFragment(int i, const Operator* frag) const {
    if (frag == nullptr) {
      throw std::invalid_argument("exec::Exchange: null fragment");
    }
    if (i > 0 && frag->schema().num_columns() != schema_.num_columns()) {
      throw std::logic_error("exec::Exchange: fragments disagree on schema");
    }
    if (mode_ == MergeMode::kOrderedMerge &&
        !IsPrefixOf(merge_spec_, frag->ordering())) {
      // The proof obligation of the order-preserving merge: a fragment
      // that cannot *claim* the merge order (planner-proven via
      // OrderReasoner) must not be merged order-preservingly.
      throw std::logic_error(
          "exec::Exchange: ordered merge on " + SpecString(merge_spec_) +
          " but fragment " + std::to_string(i) + " only claims " +
          SpecString(frag->ordering()) + " — no OD proof, use kUnion + Sort");
    }
  }

  /// The runtime half of the ordered-merge proof. Each fragment claims
  /// merge_spec_ (checked at build), so the fragment-order concatenation
  /// is ordered iff no fragment starts below where the previous one
  /// ended — i.e. the morsels are contiguous slices of one ordered
  /// stream. Checking each emitted batch's first row against the last
  /// emitted row covers every fragment boundary.
  void CheckMergeOrder(const Batch& b) {
    if (last_row_.num_rows() > 0 &&
        Batch::CompareRows(b, 0, last_row_, 0, merge_spec_) < 0) {
      throw std::logic_error(
          "exec::Exchange: ordered merge on " + SpecString(merge_spec_) +
          " saw fragment " + std::to_string(union_cur_) +
          " start below the rows before it — its morsel is not a "
          "contiguous slice of the ordered stream");
    }
    last_row_.Clear();
    last_row_.AppendRows(b, b.num_rows() - 1, b.num_rows());
  }

  OpPtr TakeFragment(int i) {
    OpPtr frag = i == 0 ? std::move(frag0_) : factory_(i, &frag_stats_[i]);
    ValidateFragment(i, frag.get());
    return frag;
  }

  void Start() {
    started_ = true;
    // Serial pools stream the fragments one at a time in NextInFragmentOrder.
    if (pool_ == nullptr || pool_->num_threads() <= 1) return;
    const int n = num_fragments_;
    producers_.resize(n);
    for (int i = 0; i < n; ++i) {
      queues_.push_back(std::make_unique<BatchQueue>(
          kExchangeQueueBatches * batch_rows_, pool_, &resident_rows_,
          &peak_rows_, &frag_stats_[i].exchange_parks,
          [this, i] { group_->Submit([this, i] { RunProducer(i); }); }));
    }
    group_ = std::make_unique<common::TaskGroup>(pool_);
    for (int i = 0; i < n; ++i) {
      group_->Submit([this, i] { RunProducer(i); });
    }
  }

  /// One fragment's producer pump: builds the fragment on first entry,
  /// then produces batch-by-batch until a batch does not fit the queue
  /// (park: keep the batch, return the thread to the scheduler; Pop
  /// resubmits this pump when room frees), the fragment is exhausted, or
  /// the exchange is cancelled. The fragment operator is destroyed inside
  /// the task on the happy and error paths alike, so its RAII state (spill
  /// temp files etc.) unwinds where it was built.
  void RunProducer(int i) {
    BatchQueue& q = *queues_[i];
    Producer& p = producers_[i];
    try {
      OD_TRACE_SPAN("exchange.fragment");
      if (p.op == nullptr) {
        p.start = std::chrono::steady_clock::now();
        p.op = TakeFragment(i);
        p.op->StartConsume("exec::Exchange");
      }
      for (;;) {
        if (!p.held) {
          if (!p.op->Next(&p.batch)) break;
          p.held = true;
        }
        const auto r = q.ReserveOrPark(p.batch.num_rows());
        if (r == BatchQueue::Reserve::kParked) return;
        if (r == BatchQueue::Reserve::kCancelled) break;
        p.held = false;
        if (!q.Push(std::move(p.batch))) break;  // cancelled mid-produce
      }
      p.op.reset();
      FragmentDrainHistogram().Record(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - p.start)
              .count());
    } catch (...) {
      // Wake the consumer and cancel sibling pumps, then let the task
      // group record the exception; Finish rethrows it on the consumer.
      p.op.reset();
      for (auto& queue : queues_) queue->Cancel();
      q.CloseProducer();
      throw;
    }
    q.CloseProducer();
  }

  /// Emits the fragments' streams one after another, in fragment order —
  /// the one recombination path of both modes. For row-range morsels the
  /// concatenation IS the serial stream, so even an order-oblivious
  /// consumer (a Sort above, a hash build) sees deterministic input; for
  /// contiguous morsels of a proven-ordered stream it is exactly what a
  /// k-way merge with fragment-index tiebreak would produce. Production
  /// still interleaves freely: later producers fill their row-bounded
  /// queues and park, which is what bounds memory.
  bool NextInFragmentOrder(Batch* out) {
    if (group_ != nullptr) {
      while (union_cur_ < num_fragments_) {
        if (queues_[union_cur_]->Pop(out)) return true;
        ++union_cur_;
      }
      return false;
    }
    for (;;) {
      if (serial_cur_ == nullptr) {
        if (union_cur_ >= num_fragments_) return false;
        serial_cur_ = TakeFragment(union_cur_);
        serial_cur_->StartConsume("exec::Exchange");
      }
      if (serial_cur_->Next(out)) return true;
      serial_cur_.reset();
      ++union_cur_;
    }
  }

  void Finish() {
    finished_ = true;
    if (group_ != nullptr) {
      auto group = std::move(group_);
      group->Wait();  // rethrows the first producer exception
    }
    MergeStats();
  }

  void MergeStats() {
    if (merged_ || stats_ == nullptr) return;
    merged_ = true;
    MergeFragmentStats(frag_stats_, stats_);
    const int64_t peak = peak_rows_.load(std::memory_order_relaxed);
    if (peak > stats_->exchange_peak_rows) stats_->exchange_peak_rows = peak;
  }

  MergeMode mode_;
  SortSpec merge_spec_;
  common::ThreadPool* pool_;
  opt::ExecStats* stats_;
  int64_t batch_rows_;
  int num_fragments_;
  FragmentFactory factory_;
  std::vector<opt::ExecStats> frag_stats_;
  OpPtr frag0_;
  std::string describe_child_;

  bool started_ = false;
  bool finished_ = false;
  bool merged_ = false;

  std::atomic<int64_t> resident_rows_{0};
  std::atomic<int64_t> peak_rows_{0};
  std::vector<std::unique_ptr<BatchQueue>> queues_;
  std::vector<Producer> producers_;  // pump state, parked fragments included
  OpPtr serial_cur_;                 // serial path: fragment being pulled
  int union_cur_ = 0;                // fragment being emitted
  Batch last_row_;  // ordered merge: the last row emitted, for the check
  // Declared last: producer tasks reference the members above, and the
  // destructor resets this (joining them) before anything else dies.
  std::unique_ptr<common::TaskGroup> group_;
};

// ---------------------------------------------------------------------------
// Partition-parallel aggregation.

/// One worker's aggregation state: group-key string -> slot, plus the
/// group's key values (for emitting) and one Acc per aggregate.
struct LocalAgg {
  std::unordered_map<std::string, int64_t> slots;
  std::vector<std::vector<Value>> group_vals;
  std::vector<std::vector<Acc>> accs;
};

std::string GroupKey(const Batch& b, int64_t row,
                     const std::vector<ColumnId>& group_cols) {
  std::string key;
  for (ColumnId c : group_cols) {
    key += b.col(c).Get(row).ToString();
    key += '\x01';
  }
  return key;
}

/// The one hash-aggregation kernel. Partition-parallel form: each fragment
/// is drained into its own LocalAgg inside a scheduler task, then the
/// partials are merged accumulator-wise. Single-stream form (`factory`
/// empty, `frag0` the input): the same build on the caller's thread, no
/// task, no fragment accounting — exec::HashAggregate.
class HashAggregateOp : public Operator {
 public:
  HashAggregateOp(int num_fragments, FragmentFactory factory, OpPtr frag0,
                  std::vector<ColumnId> group_cols, std::vector<AggSpec> aggs,
                  common::ThreadPool* pool, opt::ExecStats* stats,
                  int64_t batch_rows)
      : group_cols_(std::move(group_cols)),
        aggs_(std::move(aggs)),
        pool_(pool),
        stats_(stats),
        batch_rows_(batch_rows),
        num_fragments_(num_fragments),
        factory_(std::move(factory)),
        frag0_(std::move(frag0)) {
    if (num_fragments_ < 1) {
      throw std::invalid_argument(
          "exec::ParallelHashAggregate: need >= 1 fragment");
    }
    if (batch_rows_ < 1) {
      throw std::invalid_argument("exec::HashAggregate: batch_rows < 1");
    }
    frag_stats_.resize(num_fragments_);
    // Fragment 0 eagerly for the schema; the rest inside their tasks.
    if (frag0_ == nullptr && factory_) frag0_ = factory_(0, &frag_stats_[0]);
    if (frag0_ == nullptr) {
      throw std::invalid_argument("exec::HashAggregate: null fragment");
    }
    const Schema& in = frag0_->schema();
    CheckAggColumns(in, group_cols_, aggs_, "exec::HashAggregate");
    schema_ = AggOutputSchema(in, group_cols_, aggs_);
    // ordering_ stays empty: hash aggregation has no output order.
    describe_child_ = frag0_->Describe(0);
  }

  bool Next(Batch* out) override {
    PrepareBatch(out);
    if (!ready_) BuildAndMerge();
    return EmitTableSlice(result_, &pos_, batch_rows_, out);
  }

  std::string Describe(int indent) const override {
    std::string out =
        factory_ ? Pad(indent) + "ParallelHashAggregate fragments=" +
                       std::to_string(num_fragments_) + " groups=" +
                       SpecString(group_cols_) +
                       " (thread-local build + merge)\n"
                 : Pad(indent) + "HashAggregate groups=" +
                       SpecString(group_cols_) + " (pipeline breaker)\n";
    return out + IndentLines(describe_child_, indent + 1);
  }

 private:
  /// Drains fragment `i` into `local`.
  void BuildLocal(int i, LocalAgg* local) {
    OpPtr frag = i == 0 ? std::move(frag0_) : factory_(i, &frag_stats_[i]);
    if (frag == nullptr) {
      throw std::invalid_argument("exec::HashAggregate: null fragment");
    }
    frag->StartConsume("exec::HashAggregate");
    Batch batch;
    while (frag->Next(&batch)) {
      for (int64_t r = 0; r < batch.num_rows(); ++r) {
        std::string key = GroupKey(batch, r, group_cols_);
        auto [it, inserted] = local->slots.try_emplace(
            std::move(key), static_cast<int64_t>(local->accs.size()));
        if (inserted) {
          std::vector<Value> vals;
          vals.reserve(group_cols_.size());
          for (ColumnId c : group_cols_) {
            vals.push_back(batch.col(c).Get(r));
          }
          local->group_vals.push_back(std::move(vals));
          local->accs.emplace_back(aggs_.size());
        }
        std::vector<Acc>& accs = local->accs[it->second];
        for (size_t a = 0; a < aggs_.size(); ++a) {
          if (aggs_[a].kind == AggSpec::Kind::kCount) {
            accs[a].AddCountOnly();
          } else {
            accs[a].Add(batch.col(aggs_[a].col).Numeric(r));
          }
        }
      }
    }
  }

  void BuildAndMerge() {
    const int n = num_fragments_;
    std::vector<LocalAgg> locals(n);
    if (!factory_) {
      BuildLocal(0, &locals[0]);
    } else {
      // Fragments are built *inside* their tasks (fragment 0 was pre-built
      // for the schema); with a null or single-threaded pool
      // TaskGroup::Submit degenerates to running them inline.
      common::TaskGroup group(pool_);
      for (int i = 0; i < n; ++i) {
        group.Submit([this, &locals, i] {
          OD_TRACE_SPAN("exchange.fragment");
          BuildLocal(i, &locals[i]);
        });
      }
      group.Wait();  // rethrows the first fragment failure
    }
    // Single-threaded merge into fragment 0's table, in fragment order:
    // groups come out in first-seen order of fragment 0, then each later
    // fragment's new groups — deterministic, and for a single stream the
    // order engine::HashGroupBy emits.
    LocalAgg merged = std::move(locals[0]);
    for (int i = 1; i < n; ++i) {
      LocalAgg& local = locals[i];
      for (auto& [key, slot] : local.slots) {
        auto [it, inserted] = merged.slots.try_emplace(
            key, static_cast<int64_t>(merged.accs.size()));
        if (inserted) {
          merged.group_vals.push_back(std::move(local.group_vals[slot]));
          merged.accs.push_back(std::move(local.accs[slot]));
        } else {
          std::vector<Acc>& into = merged.accs[it->second];
          for (size_t a = 0; a < aggs_.size(); ++a) {
            into[a].Merge(local.accs[slot][a]);
          }
        }
      }
    }
    result_ = Table(schema_);
    for (size_t g = 0; g < merged.accs.size(); ++g) {
      int c = 0;
      for (const Value& v : merged.group_vals[g]) {
        result_.col(c++).Append(v);
      }
      for (size_t a = 0; a < aggs_.size(); ++a) {
        if (aggs_[a].kind == AggSpec::Kind::kCount) {
          result_.col(c++).AppendInt(merged.accs[g][a].count);
        } else {
          result_.col(c++).AppendDouble(
              merged.accs[g][a].Result(aggs_[a].kind));
        }
      }
      result_.FinishRow();
    }
    if (stats_ != nullptr) MergeFragmentStats(frag_stats_, stats_);
    ready_ = true;
  }

  std::vector<ColumnId> group_cols_;
  std::vector<AggSpec> aggs_;
  common::ThreadPool* pool_;
  opt::ExecStats* stats_;
  int64_t batch_rows_;
  int num_fragments_;
  FragmentFactory factory_;  // empty: single-stream form
  std::vector<opt::ExecStats> frag_stats_;
  OpPtr frag0_;
  std::string describe_child_;
  Table result_;
  bool ready_ = false;
  int64_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Partial-aggregate combine (the merge stage after an ordered exchange).

class CombinePartialAggregatesOp : public Operator {
 public:
  CombinePartialAggregatesOp(OpPtr child, int num_group_cols,
                             std::vector<AggSpec::Kind> kinds,
                             int64_t batch_rows)
      : child_(std::move(child)),
        num_groups_(num_group_cols),
        kinds_(std::move(kinds)),
        batch_rows_(batch_rows) {
    if (batch_rows_ < 1) {
      throw std::invalid_argument(
          "exec::CombinePartialAggregates: batch_rows < 1");
    }
    const Schema& in = child_->schema();
    if (num_groups_ < 0 ||
        in.num_columns() !=
            num_groups_ + static_cast<int>(kinds_.size())) {
      throw std::invalid_argument(
          "exec::CombinePartialAggregates: schema must be group columns "
          "then one column per aggregate");
    }
    for (AggSpec::Kind k : kinds_) {
      if (k == AggSpec::Kind::kAvg) {
        throw std::invalid_argument(
            "exec::CombinePartialAggregates: avg is not decomposable — a "
            "finished average cannot be re-combined (use "
            "ParallelHashAggregate)");
      }
    }
    // Contiguity precondition: the child's ordering must order *all* group
    // columns before anything else, otherwise a group could reappear and
    // the combine would emit it twice.
    group_ids_.resize(num_groups_);
    const SortSpec& ord = child_->ordering();
    std::vector<bool> seen(num_groups_, false);
    int covered = 0;
    for (size_t i = 0; i < ord.size() && covered < num_groups_; ++i) {
      if (ord[i] < 0 || ord[i] >= num_groups_ || seen[ord[i]]) break;
      seen[ord[i]] = true;
      ++covered;
    }
    if (covered < num_groups_) {
      throw std::logic_error(
          "exec::CombinePartialAggregates: child ordering " +
          SpecString(ord) + " does not make the " +
          std::to_string(num_groups_) +
          " group columns contiguous — partial groups could reappear");
    }
    for (int i = 0; i < num_groups_; ++i) group_ids_[i] = i;
    schema_ = in;
    ordering_ = child_->ordering();
  }

  /// Coalesces like StreamAggregate: up to batch_rows combined groups per
  /// output batch, resuming inside the child's batch on the next call.
  bool Next(Batch* out) override {
    PrepareBatch(out);
    while (out->num_rows() < batch_rows_) {
      if (pos_ >= scratch_.num_rows()) {
        if (done_) break;
        pos_ = 0;
        if (!child_->Next(&scratch_)) {
          scratch_.Clear();
          done_ = true;
          if (have_pending_) EmitPending(out);
          have_pending_ = false;
          break;
        }
      }
      const int64_t r = pos_++;
      if (have_pending_ &&
          Batch::CompareRows(pending_, 0, scratch_, r, group_ids_) == 0) {
        Fold(scratch_, r);
      } else {
        if (have_pending_) EmitPending(out);
        LoadPending(scratch_, r);
      }
    }
    return !out->empty();
  }

  std::string Describe(int indent) const override {
    return Pad(indent) + "CombinePartialAggregates groups=" +
           std::to_string(num_groups_) + "\n" +
           child_->Describe(indent + 1);
  }

 private:
  void LoadPending(const Batch& b, int64_t r) {
    if (pending_.num_columns() != schema_.num_columns()) {
      pending_.Reset(schema_);
    } else {
      pending_.Clear();
    }
    pending_.AppendRows(b, r, r + 1);
    accs_.assign(kinds_.size(), Acc());
    Fold(b, r);
    have_pending_ = true;
  }

  void Fold(const Batch& b, int64_t r) {
    for (size_t a = 0; a < kinds_.size(); ++a) {
      const int col = num_groups_ + static_cast<int>(a);
      Acc& acc = accs_[a];
      switch (kinds_[a]) {
        case AggSpec::Kind::kCount:
          acc.count += b.col(col).Int(r);
          break;
        case AggSpec::Kind::kSum:
          acc.sum += b.col(col).Double(r);
          break;
        case AggSpec::Kind::kMin:
          acc.Add(b.col(col).Double(r));
          break;
        case AggSpec::Kind::kMax:
          acc.Add(b.col(col).Double(r));
          break;
        case AggSpec::Kind::kAvg:
          break;  // rejected in the constructor
      }
    }
  }

  void EmitPending(Batch* out) {
    for (int c = 0; c < num_groups_; ++c) {
      out->col(c).AppendFrom(pending_.col(c), 0);
    }
    for (size_t a = 0; a < kinds_.size(); ++a) {
      const int c = num_groups_ + static_cast<int>(a);
      switch (kinds_[a]) {
        case AggSpec::Kind::kCount:
          out->col(c).AppendInt(accs_[a].count);
          break;
        case AggSpec::Kind::kSum:
          out->col(c).AppendDouble(accs_[a].sum);
          break;
        case AggSpec::Kind::kMin:
          out->col(c).AppendDouble(accs_[a].min);
          break;
        case AggSpec::Kind::kMax:
          out->col(c).AppendDouble(accs_[a].max);
          break;
        case AggSpec::Kind::kAvg:
          break;
      }
    }
    out->FinishRow();
  }

  OpPtr child_;
  int num_groups_;
  std::vector<AggSpec::Kind> kinds_;
  std::vector<ColumnId> group_ids_;
  Batch scratch_;
  Batch pending_;  // one row: the group being accumulated
  std::vector<Acc> accs_;
  int64_t batch_rows_;
  int64_t pos_ = 0;  // next unread row of scratch_
  bool have_pending_ = false;
  bool done_ = false;
};

// ---------------------------------------------------------------------------
// Hash join: one build (BuildSharedHash), one probe loop (HashProbeOp).

/// Validates a join key: in range and int64 (the build table and the probe
/// loop read keys through the unchecked int64 accessor).
void CheckInt64Key(const Schema& s, ColumnId key, const char* who) {
  CheckColumns(s, {key}, who);
  if (s.col(key).type != DataType::kInt64) {
    throw std::invalid_argument(std::string(who) +
                                ": join keys must be int64 columns (use "
                                "MergeJoin for other key types)");
  }
}

std::shared_ptr<const SharedHashTable> BuildHashTable(Operator* build,
                                                      ColumnId key,
                                                      opt::ExecStats* stats) {
  auto table = std::make_shared<SharedHashTable>();
  table->rows = Drain(build, nullptr);
  table->index.reserve(table->rows.num_rows());
  for (int64_t r = 0; r < table->rows.num_rows(); ++r) {
    table->index.emplace(table->rows.col(key).Int(r), r);
  }
  if (stats != nullptr) ++stats->joins;  // one logical join, many probes
  return table;
}

/// Streams the probe child against a hash table, emitting probe columns
/// then build columns per match, up to batch_rows rows per batch — a probe
/// row whose matches overflow the batch resumes on the next call, so a
/// high fan-out join never emits more than batch_rows rows at once. The
/// table is either shared (a parallel join's fragment: built once by
/// BuildSharedHash) or owned (exec::HashJoin: built from `build_` on the
/// first Next, so the build is charged to this operator).
class HashProbeOp : public Operator {
 public:
  HashProbeOp(OpPtr probe, ColumnId probe_key,
              std::shared_ptr<const SharedHashTable> table, OpPtr build,
              ColumnId build_key, opt::ExecStats* stats, int64_t batch_rows,
              const std::string& right_prefix)
      : probe_(std::move(probe)),
        probe_key_(probe_key),
        table_(std::move(table)),
        build_(std::move(build)),
        build_key_(build_key),
        stats_(stats),
        batch_rows_(batch_rows) {
    const char* who = build_ != nullptr ? "exec::HashJoin" : "exec::HashProbe";
    if (table_ == nullptr && build_ == nullptr) {
      throw std::invalid_argument("exec::HashProbe: null build table");
    }
    if (batch_rows_ < 1) {
      throw std::invalid_argument(std::string(who) + ": batch_rows < 1");
    }
    CheckInt64Key(probe_->schema(), probe_key_, who);
    if (build_ != nullptr) CheckInt64Key(build_->schema(), build_key_, who);
    const Schema& build_schema =
        build_ != nullptr ? build_->schema() : table_->rows.schema();
    schema_ = JoinSchema(probe_->schema(), build_schema, right_prefix);
    ordering_ = probe_->ordering();  // probing preserves probe row order
    probe_cols_ = probe_->schema().num_columns();
    scratch_.Reset(probe_->schema());  // typed before the first refill
    if (table_ != nullptr) match_ = match_end_ = table_->index.end();
  }

  bool Next(Batch* out) override {
    PrepareBatch(out);
    if (table_ == nullptr) {
      table_ = BuildHashTable(build_.get(), build_key_, stats_);
      match_ = match_end_ = table_->index.end();
    }
    const auto& index = table_->index;
    while (out->num_rows() < batch_rows_) {
      if (match_ != match_end_) {
        // Emit the current probe row's matches, as many as fit.
        Match it = match_;
        for (int64_t room = batch_rows_ - out->num_rows();
             it != match_end_ && room > 0; ++it, --room) {
          for (int c = 0; c < probe_cols_; ++c) {
            out->col(c).AppendFrom(scratch_.col(c), row_);
          }
          for (int c = 0; c < table_->rows.num_columns(); ++c) {
            out->col(probe_cols_ + c).AppendFrom(table_->rows.col(c),
                                                 it->second);
          }
          out->FinishRow();
        }
        match_ = it;
        continue;
      }
      // Advance to the next probe row that has a match, refilling the
      // probe batch as needed.
      const engine::Column& keys = scratch_.col(probe_key_);
      const int64_t n = scratch_.num_rows();
      int64_t r = row_ + 1;
      for (; r < n; ++r) {
        const auto range = index.equal_range(keys.Int(r));
        if (range.first != range.second) {
          std::tie(match_, match_end_) = range;
          break;
        }
      }
      row_ = r;
      if (r < n) continue;
      if (done_ || !probe_->Next(&scratch_)) {
        done_ = true;
        break;
      }
      row_ = -1;
    }
    if (stats_ != nullptr) stats_->rows_joined += out->num_rows();
    return !out->empty();
  }

  std::string Describe(int indent) const override {
    if (build_ != nullptr) {
      return Pad(indent) + "HashJoin keys=(" + std::to_string(probe_key_) +
             ", " + std::to_string(build_key_) + ") (build right)\n" +
             probe_->Describe(indent + 1) + build_->Describe(indent + 1);
    }
    return Pad(indent) + "HashProbe key=" + std::to_string(probe_key_) +
           " (shared build, " + std::to_string(table_->rows.num_rows()) +
           " rows)\n" + probe_->Describe(indent + 1);
  }

 private:
  using Match = std::unordered_multimap<int64_t, int64_t>::const_iterator;

  OpPtr probe_;
  ColumnId probe_key_;
  std::shared_ptr<const SharedHashTable> table_;
  OpPtr build_;  // exec::HashJoin's build child; null for a shared table
  ColumnId build_key_;
  opt::ExecStats* stats_;
  int64_t batch_rows_;
  int probe_cols_ = 0;
  Batch scratch_;
  int64_t row_ = -1;  // current probe row of scratch_
  bool done_ = false;
  // The current probe row's unemitted matches; both end() when none.
  Match match_;
  Match match_end_;
};

}  // namespace

OpPtr Exchange(int num_fragments, FragmentFactory factory, MergeMode mode,
               engine::SortSpec merge_spec, common::ThreadPool* pool,
               opt::ExecStats* stats, int64_t batch_rows) {
  return std::make_unique<ExchangeOp>(num_fragments, std::move(factory),
                                      mode, std::move(merge_spec), pool,
                                      stats, batch_rows);
}

OpPtr ParallelHashAggregate(int num_fragments, FragmentFactory factory,
                            std::vector<engine::ColumnId> group_cols,
                            std::vector<engine::AggSpec> aggs,
                            common::ThreadPool* pool, opt::ExecStats* stats,
                            int64_t batch_rows) {
  if (!factory) {
    throw std::invalid_argument(
        "exec::ParallelHashAggregate: null fragment factory");
  }
  return std::make_unique<HashAggregateOp>(
      num_fragments, std::move(factory), nullptr, std::move(group_cols),
      std::move(aggs), pool, stats, batch_rows);
}

OpPtr HashAggregate(OpPtr child, std::vector<engine::ColumnId> group_cols,
                    std::vector<engine::AggSpec> aggs, int64_t batch_rows) {
  return std::make_unique<HashAggregateOp>(
      1, FragmentFactory(), std::move(child), std::move(group_cols),
      std::move(aggs), /*pool=*/nullptr, /*stats=*/nullptr, batch_rows);
}

OpPtr CombinePartialAggregates(OpPtr child, int num_group_cols,
                               std::vector<engine::AggSpec::Kind> kinds,
                               int64_t batch_rows) {
  return std::make_unique<CombinePartialAggregatesOp>(
      std::move(child), num_group_cols, std::move(kinds), batch_rows);
}

std::shared_ptr<const SharedHashTable> BuildSharedHash(
    OpPtr build, engine::ColumnId key, opt::ExecStats* stats) {
  CheckInt64Key(build->schema(), key, "exec::BuildSharedHash");
  return BuildHashTable(build.get(), key, stats);
}

OpPtr HashProbe(OpPtr probe, engine::ColumnId probe_key,
                std::shared_ptr<const SharedHashTable> table,
                opt::ExecStats* stats, int64_t batch_rows,
                const std::string& right_prefix) {
  return std::make_unique<HashProbeOp>(std::move(probe), probe_key,
                                       std::move(table), nullptr, -1, stats,
                                       batch_rows, right_prefix);
}

OpPtr HashJoin(OpPtr left, engine::ColumnId left_key, OpPtr right,
               engine::ColumnId right_key, opt::ExecStats* stats,
               int64_t batch_rows, const std::string& right_prefix) {
  return std::make_unique<HashProbeOp>(std::move(left), left_key, nullptr,
                                       std::move(right), right_key, stats,
                                       batch_rows, right_prefix);
}

}  // namespace exec
}  // namespace od
