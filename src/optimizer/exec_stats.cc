#include "optimizer/exec_stats.h"

namespace od {
namespace opt {

void ExecStats::Merge(const ExecStats& other) {
  rows_scanned += other.rows_scanned;
  rows_joined += other.rows_joined;
  rows_output += other.rows_output;
  batches += other.batches;
  sorts += other.sorts;
  sorts_elided += other.sorts_elided;
  joins += other.joins;
  joins_elided += other.joins_elided;
  partitions_scanned += other.partitions_scanned;
  fragments += other.fragments;
  spills += other.spills;
  spilled_rows += other.spilled_rows;
  spilled_bytes += other.spilled_bytes;
  if (other.exchange_peak_rows > exchange_peak_rows) {
    exchange_peak_rows = other.exchange_peak_rows;
  }
  exchange_parks += other.exchange_parks;
}

std::string ExecStats::ToString() const {
  std::string out;
  out += "rows_scanned=" + std::to_string(rows_scanned);
  out += " rows_joined=" + std::to_string(rows_joined);
  out += " rows_output=" + std::to_string(rows_output);
  out += " batches=" + std::to_string(batches);
  out += " sorts=" + std::to_string(sorts);
  out += " sorts_elided=" + std::to_string(sorts_elided);
  out += " joins=" + std::to_string(joins);
  out += " joins_elided=" + std::to_string(joins_elided);
  out += " partitions_scanned=" + std::to_string(partitions_scanned);
  out += " fragments=" + std::to_string(fragments);
  out += " spills=" + std::to_string(spills);
  out += " spilled_rows=" + std::to_string(spilled_rows);
  out += " spilled_bytes=" + std::to_string(spilled_bytes);
  out += " exchange_peak_rows=" + std::to_string(exchange_peak_rows);
  out += " exchange_parks=" + std::to_string(exchange_parks);
  return out;
}

}  // namespace opt
}  // namespace od
