// The benchmark binary. run.py builds and calls it; by hand:
//   od_perfbench --workload reports --seed 1 --seconds 10 --trace 0
// Prints one JSON object (the last line of stdout) with the workload's
// metrics, counts and run context; run.py turns it into the result line.
#include <iostream>
#include <string>

#include "common/thread_pool.h"
#include "harness.h"

namespace {

int Usage() {
  std::cerr << "usage: od_perfbench --workload reports|prove_churn|"
               "discover_onboard --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR] [--corrupt 0|1]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = static_cast<uint32_t>(std::stoul(value));
    } else if (key == "--seconds") {
      opts.seconds = std::stod(value);
    } else if (key == "--trace") {
      opts.trace = value == "1";
    } else if (key == "--trace-dir") {
      opts.trace_dir = value;
    } else if (key == "--corrupt") {
      opts.corrupt = value == "1";
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || opts.seconds <= 0 ||
      (opts.trace && opts.trace_dir.empty())) {
    return Usage();
  }

  // Lanes: this client thread plus nproc − 1 pool workers; the client
  // helps run pool tasks while it waits.
  const int lanes = od::common::ThreadPool::HardwareConcurrency();
  od::common::ThreadPool pool(lanes);
  std::unique_ptr<perfbench::Workload> w;
  if (opts.workload == "reports") {
    w = perfbench::MakeReports(opts, &pool);
  } else if (opts.workload == "prove_churn") {
    w = perfbench::MakeProveChurn(opts, &pool);
  } else if (opts.workload == "discover_onboard") {
    w = perfbench::MakeDiscoverOnboard(opts, &pool);
  } else {
    return Usage();
  }
  return perfbench::RunWorkload(opts, lanes, w.get());
}
