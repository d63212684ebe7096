#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <vector>

namespace perfbench {

using od::Value;
using od::engine::DataType;
using od::engine::Table;

bool DoublesMatch(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  if (a == b) return true;
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= 1e-9 * scale;
}

bool RowsMatch(const Table& ref, const Table& got) {
  if (ref.num_columns() != got.num_columns() ||
      ref.num_rows() != got.num_rows()) {
    return false;
  }
  for (int c = 0; c < ref.num_columns(); ++c) {
    const auto& rc = ref.col(c);
    const auto& gc = got.col(c);
    if (rc.type() != gc.type()) return false;
    for (int64_t r = 0; r < ref.num_rows(); ++r) {
      switch (rc.type()) {
        case DataType::kInt64:
          if (rc.Int(r) != gc.Int(r)) return false;
          break;
        case DataType::kDouble:
          if (!DoublesMatch(rc.Double(r), gc.Double(r))) return false;
          break;
        case DataType::kString:
          if (rc.Str(r) != gc.Str(r)) return false;
          break;
      }
    }
  }
  return true;
}

Table ByLeadingColumns(const Table& t, int key_cols) {
  od::engine::SortSpec key;
  for (int c = 0; c < key_cols && c < t.num_columns(); ++c) key.push_back(c);
  return od::engine::SortBy(t, key);
}

uint64_t RowMultisetDigest(const Table& t) {
  auto mix = [](uint64_t h, uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
  };
  uint64_t digest = 0;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    uint64_t h = 0;
    for (int c = 0; c < t.num_columns(); ++c) {
      const auto& col = t.col(c);
      uint64_t v = 0;
      switch (col.type()) {
        case DataType::kInt64:
          v = static_cast<uint64_t>(col.Int(r));
          break;
        case DataType::kDouble: {
          const double d = col.Double(r);
          std::memcpy(&v, &d, sizeof(v));
          break;
        }
        case DataType::kString:
          v = std::hash<std::string>()(col.Str(r));
          break;
      }
      h = mix(h, v);
    }
    digest += h * 0xff51afd7ed558ccdULL;  // commutative across rows
  }
  return digest;
}

Table Corrupted(const Table& t) {
  Table out(t.schema());
  const int64_t n = t.num_rows();
  for (int c = 0; c < t.num_columns(); ++c) {
    const auto& src = t.col(c);
    if (n == 0) {
      out.col(c).Append(src.type() == DataType::kString ? Value("x")
                        : src.type() == DataType::kDouble ? Value(1.0)
                                                          : Value(int64_t{1}));
      continue;
    }
    if (c + 1 == t.num_columns()) {
      switch (src.type()) {
        case DataType::kInt64: out.col(c).Append(Value(src.Int(0) + 1)); break;
        case DataType::kDouble:
          out.col(c).Append(Value(src.Double(0) * 1.5 + 1));
          break;
        case DataType::kString: out.col(c).Append(Value(src.Str(0) + "x")); break;
      }
      out.col(c).AppendRange(src, 1, n);
    } else {
      out.col(c).AppendRange(src, 0, n);
    }
  }
  out.SetRowCount(n == 0 ? 1 : n);
  out.SetOrdering(t.ordering());
  return out;
}

}  // namespace perfbench
