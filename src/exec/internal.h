#ifndef OD_EXEC_INTERNAL_H_
#define OD_EXEC_INTERNAL_H_

// Helpers shared by the exec operator implementations (operators.cc,
// parallel.cc, external_sort.cc). Not part of the operator API: each is
// defined exactly once here or in operators.cc, so every operator checks
// columns, derives join/aggregate schemas and accumulates aggregates the
// same way.

#include <cstdint>
#include <string>
#include <vector>

#include "core/value.h"
#include "engine/ops.h"
#include "engine/table.h"
#include "exec/batch.h"

namespace od {
namespace exec {
namespace internal {

/// Validates operator ColumnId arguments once, at construction (catching
/// Schema::Find's -1) — per-row accessors stay unchecked. Throws
/// std::out_of_range naming `op`.
void CheckColumns(const engine::Schema& s,
                  const std::vector<engine::ColumnId>& cols, const char* op);

/// CheckColumns for an aggregation: the group columns and every
/// non-count aggregate's input column.
void CheckAggColumns(const engine::Schema& s,
                     const std::vector<engine::ColumnId>& groups,
                     const std::vector<engine::AggSpec>& aggs, const char* op);

/// Appends rows [*pos, *pos + batch_rows) of a materialized table to the
/// (prepared, empty) batch `out` and advances *pos; false once *pos is
/// past the end. The emit phase of every operator that materializes.
bool EmitTableSlice(const engine::Table& t, int64_t* pos, int64_t batch_rows,
                    Batch* out);

/// Whether `spec` is a literal prefix of `ordering`: rows sorted by
/// `ordering` are then sorted by `spec` too.
bool IsPrefixOf(const engine::SortSpec& spec,
                const engine::SortSpec& ordering);

/// Output schema of a join: left columns, then right columns with
/// colliding names prefixed (mirrors engine::HashJoin/SortMergeJoin).
engine::Schema JoinSchema(const engine::Schema& left,
                          const engine::Schema& right,
                          const std::string& right_prefix);

/// Output schema of an aggregation: group columns, then one column per
/// aggregate (int64 for count, double otherwise).
engine::Schema AggOutputSchema(const engine::Schema& in,
                               const std::vector<engine::ColumnId>& groups,
                               const std::vector<engine::AggSpec>& aggs);

/// The exec layer's aggregate accumulator: raw moments only, so partials
/// built on different workers merge exactly (avg = sum / count is finished
/// after the merge, never merged itself). engine::ops keeps its own copy
/// on purpose: it is the independent oracle the exec kernels are tested
/// against.
struct Acc {
  int64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  bool has = false;

  void Add(double v) {
    ++count;
    sum += v;
    // CompareDoubles, not raw `<`: NaN must order totally (ties with NaN,
    // after every value) or min/max stop being associative — and Merge
    // relies on associativity to reproduce the single-stream answer.
    if (!has || CompareDoubles(v, min) < 0) min = v;
    if (!has || CompareDoubles(v, max) > 0) max = v;
    has = true;
  }
  void AddCountOnly() { ++count; }
  void Merge(const Acc& o) {
    count += o.count;
    sum += o.sum;
    if (o.has && (!has || CompareDoubles(o.min, min) < 0)) min = o.min;
    if (o.has && (!has || CompareDoubles(o.max, max) > 0)) max = o.max;
    has |= o.has;
  }
  double Result(engine::AggSpec::Kind kind) const {
    switch (kind) {
      case engine::AggSpec::Kind::kCount: return static_cast<double>(count);
      case engine::AggSpec::Kind::kSum: return sum;
      case engine::AggSpec::Kind::kMin: return min;
      case engine::AggSpec::Kind::kMax: return max;
      case engine::AggSpec::Kind::kAvg: return count == 0 ? 0 : sum / count;
    }
    return 0;
  }
};

}  // namespace internal
}  // namespace exec
}  // namespace od

#endif  // OD_EXEC_INTERNAL_H_
