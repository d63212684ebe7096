#ifndef OD_EXEC_PARALLEL_H_
#define OD_EXEC_PARALLEL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "engine/ops.h"
#include "engine/table.h"
#include "exec/operator.h"

namespace od {
namespace exec {

/// Builds the pipeline fragment a worker runs over morsel `fragment` of
/// [0, num_fragments) — e.g. a ScanRange over that fragment's row range,
/// with the same Filter/Project/probe chain stacked on each. `stats` is a
/// *private* per-fragment ExecStats owned by the exchange: workers never
/// share a counter, the exchange merges them single-threaded after the
/// fragments join (what keeps the whole layer clean under TSan).
///
/// The exchange copies the factory and invokes it *from producer tasks*
/// (fragment 0 is built eagerly for the schema; the rest lazily, inside
/// their tasks): calls for distinct fragments run concurrently, so the
/// factory must be safe to invoke in parallel (building independent trees
/// over shared read-only inputs is), and anything it captures must stay
/// valid until the exchange is drained or destroyed.
using FragmentFactory =
    std::function<OpPtr(int fragment, opt::ExecStats* stats)>;

/// Per-fragment capacity of a streaming exchange's bounded queues, in
/// units of the exchange's batch_rows: each fragment queue holds at most
/// kExchangeQueueBatches × batch_rows rows, however small the fragment's
/// batches are (a queue bounded in batches would park a producer of
/// 1-row batches after four rows). A producer holds at most one more
/// batch while parked, so with fragment batches capped at batch_rows the
/// exchange's resident footprint stays within fragments ×
/// (kExchangeQueueBatches + 1) × batch_rows rows regardless of input
/// size. Exposed so tests can assert the bound against
/// ExecStats::exchange_peak_rows.
inline constexpr int kExchangeQueueBatches = 4;

/// How an exchange recombines its fragments' streams.
enum class MergeMode {
  /// Concatenates fragment outputs in fragment order. No ordering claim
  /// (except trivially at one fragment).
  kUnion,
  /// OD-proven order-preserving recombination: every fragment must *claim*
  /// `merge_spec` (as a prefix of its ordering property) — the planner
  /// proves the claim via OrderReasoner before choosing this mode, and the
  /// exchange throws std::logic_error at build time if a fragment shows up
  /// without the proof. The planner's morsels are contiguous slices of one
  /// ordered stream, for which a k-way merge with fragment-index tiebreak
  /// is exactly the fragments' concatenation — so the fragments are
  /// emitted in fragment order, like kUnion, with one runtime check: a
  /// batch whose first row sorts before the last emitted row on
  /// `merge_spec` throws std::logic_error. The stream is row-identical to
  /// the serial plan, and the exchange claims `merge_spec` as its own
  /// ordering.
  kOrderedMerge,
};

/// The streaming exchange operator: on the first Next it spawns one
/// producer task per fragment on `pool`; each task builds its fragment,
/// checks the merge proof, and pushes batches through a row-bounded
/// per-fragment queue — no fragment is ever materialized. Both modes
/// emit the queues in fragment order (production interleaves; emission is
/// deterministic, so for row-range morsels the stream is row-identical
/// to the serial plan even under a Sort or hash build); ordered-merge
/// mode additionally checks each fragment boundary against `merge_spec`.
/// An early-exiting consumer (Limit) or a
/// failing fragment cancels the queues, which unblocks and winds down
/// every producer (temp spill files clean up via their destructors); the
/// first producer exception is rethrown on the consumer.
///
/// `pool` may be null (or single-threaded): fragments then stream
/// serially, one at a time, with identical results. Producers never
/// block: a pump whose next batch does not fit its queue parks (returns
/// its thread to the scheduler, counted in ExecStats::exchange_parks) and
/// resumes when the consumer frees room, so any fragment/worker ratio is
/// safe.
/// Fragments may themselves contain exchanges: producers are stealable
/// tasks and the consumer helps run queued tasks while it waits, so
/// nested parallel regions cannot deadlock.
OpPtr Exchange(int num_fragments, FragmentFactory factory, MergeMode mode,
               engine::SortSpec merge_spec, common::ThreadPool* pool,
               opt::ExecStats* stats = nullptr,
               int64_t batch_rows = kDefaultBatchRows);

/// Partition-parallel GROUP BY: each worker drains its fragment into a
/// thread-local hash of *raw accumulators* (count/sum/min/max), which are
/// merged accumulator-wise after the join — so non-decomposable results
/// like kAvg still come out exact (avg is finished only after the merge).
/// Output schema: group columns then one column per aggregate; no output
/// ordering. exec::HashAggregate is this kernel over a single stream.
OpPtr ParallelHashAggregate(int num_fragments, FragmentFactory factory,
                            std::vector<engine::ColumnId> group_cols,
                            std::vector<engine::AggSpec> aggs,
                            common::ThreadPool* pool,
                            opt::ExecStats* stats = nullptr,
                            int64_t batch_rows = kDefaultBatchRows);

/// Combines adjacent partial-aggregate rows with equal group keys into one
/// final row — the "merge" stage after an ordered exchange of per-fragment
/// StreamAggregate outputs (a group straddling a morsel boundary arrives as
/// two adjacent rows). Child schema: `num_group_cols` group columns then
/// one column per entry of `kinds`, holding that aggregate's finished
/// value. Only decomposable kinds (count/sum/min/max) are accepted — a
/// finished avg cannot be re-combined; the planner routes avg queries
/// through ParallelHashAggregate instead. Precondition (checked): the
/// child's ordering covers all group columns in its first `num_group_cols`
/// entries, so equal groups are contiguous. Preserves the child's ordering.
/// Output is coalesced to up to `batch_rows` groups per batch.
OpPtr CombinePartialAggregates(OpPtr child, int num_group_cols,
                               std::vector<engine::AggSpec::Kind> kinds,
                               int64_t batch_rows = kDefaultBatchRows);

/// The immutable build side of a partition-parallel hash join: built once,
/// shared read-only by every probe fragment (no per-fragment rebuild).
struct SharedHashTable {
  engine::Table rows;
  std::unordered_multimap<int64_t, int64_t> index;  // key value -> build row
};

/// Drains `build` and hashes it on int64 column `key`. Counts stats->joins
/// once (the logical join, however many fragments probe it).
std::shared_ptr<const SharedHashTable> BuildSharedHash(
    OpPtr build, engine::ColumnId key, opt::ExecStats* stats = nullptr);

/// Streams `probe`, emitting probe columns then build columns (colliding
/// names prefixed) for every match in `table` — the per-fragment probe half
/// of a parallel hash join, and (with its own build) exec::HashJoin.
/// Batches hold up to `batch_rows` rows: a probe row whose matches do not
/// fit resumes on the next Next, so a high fan-out join stays within the
/// plan's batch size (and so within an exchange's row-bounded queues).
/// Preserves the probe child's ordering.
OpPtr HashProbe(OpPtr probe, engine::ColumnId probe_key,
                std::shared_ptr<const SharedHashTable> table,
                opt::ExecStats* stats = nullptr,
                int64_t batch_rows = kDefaultBatchRows,
                const std::string& right_prefix = "r_");

}  // namespace exec
}  // namespace od

#endif  // OD_EXEC_PARALLEL_H_
