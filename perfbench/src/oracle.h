// Answer checks shared by the workloads. Reference answers come from an
// independent path (the materializing engine::ops operators, a fresh
// prover, a serial discovery run), never from the code path under test.
#ifndef OD_PERFBENCH_ORACLE_H_
#define OD_PERFBENCH_ORACLE_H_

#include <cstdint>

#include "engine/ops.h"
#include "engine/table.h"

namespace perfbench {

/// Whether two doubles agree within the relative tolerance that parallel
/// aggregation needs (partials are summed in another association order).
bool DoublesMatch(double a, double b);

/// Cell-by-cell comparison in row order; doubles within DoublesMatch.
bool RowsMatch(const od::engine::Table& ref, const od::engine::Table& got);

/// `t` stably sorted by its first `key_cols` columns — the canonical row
/// order of a GROUP BY result, whose group keys are unique.
od::engine::Table ByLeadingColumns(const od::engine::Table& t, int key_cols);

/// Order-insensitive digest of a table's rows (exact bits of every cell),
/// for comparing large pass-through results without sorting them.
uint64_t RowMultisetDigest(const od::engine::Table& t);

/// A copy of `t` with one cell changed (the self-test's falsified answer).
/// An empty table gains one row.
od::engine::Table Corrupted(const od::engine::Table& t);

}  // namespace perfbench

#endif  // OD_PERFBENCH_ORACLE_H_
