// Shared machinery of the benchmark binary: options, sample statistics,
// registry deltas, the closed-loop runner and the result writer. Every
// workload (reports.cc, prove_churn.cc, discover_onboard.cc) is a
// `Workload`; main.cc picks one and hands it to `RunWorkload`.
#ifndef OD_PERFBENCH_HARNESS_H_
#define OD_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 10;
  /// The traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Self-test: falsify every checked answer before comparing it, so a
  /// live oracle must fail every checked request.
  bool corrupt = false;
  /// Where the traced run writes its Chrome trace blocks and span labels.
  std::string trace_dir;
};

/// Seeds derived from the workload seed, one per purpose, so that adding a
/// use of randomness does not shift the others.
uint32_t DeriveSeed(uint32_t seed, uint32_t purpose);

/// Samples of one measured quantity.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Linear-interpolated quantile (0 when empty).
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Sum() const;
  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// Counters and histograms of the process-wide MetricRegistry, summed over
/// every label set, as the difference of two snapshots.
class RegistryDelta {
 public:
  /// Accumulates after − before into this delta.
  void Add(const od::common::MetricsSnapshot& before,
           const od::common::MetricsSnapshot& after);
  int64_t Counter(const std::string& name) const;
  /// Bucket-wise histogram difference (for quantiles of the window).
  od::common::HistogramSnapshot Histogram(const std::string& name) const;

 private:
  std::map<std::string, int64_t> counters_;
  std::map<std::string, od::common::HistogramSnapshot> histograms_;
};

/// Opens the benchmark's own span around one call into a layer, under a
/// fresh request context, and optionally labels it for the summarizer
/// (e.g. which query and tenant an execute span served).
class LayerSpan {
 public:
  explicit LayerSpan(const char* name, std::string label = "");
  ~LayerSpan();
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

 private:
  od::common::TraceContextScope ctx_;
  od::common::TraceSpan span_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// One throughput window of the loop (see Workload::StepsPerWindow).
struct Window {
  double seconds = 0;
  int64_t requests = 0;
  /// Share of the machine's CPU time the hypervisor gave to other guests.
  double steal_share = 0;
  /// The window's requests in Recorder::request_ms: [first, end).
  size_t first = 0;
  size_t end = 0;
};

/// What one timed stretch of a workload produced.
struct Recorder {
  int64_t attempted = 0;
  int64_t failed = 0;
  double elapsed_ms = 0;
  Samples request_ms;  // every attempted request, in order
  std::vector<Window> windows;
  /// Layer-call timings, keyed by metric name.
  std::map<std::string, Samples> layer;
  /// Counts, keyed by metric name: ExecStats fields and calls the
  /// workload adds, plus the registry counters FoldRegistry folds in.
  std::map<std::string, double> sums;
  /// Histogram deltas of the stretch (counters are folded into `sums`).
  RegistryDelta registry;

  Samples& L(const std::string& name) { return layer[name]; }
  void Sum(const std::string& name, double v) { sums[name] += v; }
  double S(const std::string& name) const;
  /// Median of a layer timing (0 when never recorded).
  double P50(const std::string& name) const;
};

/// Adds after − before of the registry to `rec`: every counter the
/// per-layer metrics read, under its metric name (e.g. prover.searches).
void FoldRegistry(const od::common::MetricsSnapshot& before,
                  const od::common::MetricsSnapshot& after, Recorder* rec);

/// A count the traced run reports per request, declared exact (repeats
/// for a given seed) or not. The harness measures the declaration by
/// replaying the workload's first requests on fresh state three times.
struct CountSpec {
  std::string name;
  bool declared_exact;
};

/// One benchmark workload: a seeded, checked, closed loop through the
/// service/discovery APIs.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds all state from the seed: data, indexes, tenants, warm-up pass.
  /// Called several times; each call replaces the previous state. Records
  /// its phase timings into `setup`.
  virtual void Setup(Recorder* setup) = 0;
  /// Computes reference answers for the state Setup built (not timed as
  /// set-up: the oracle is the benchmark's cost, not the program's).
  virtual void PrepareOracle() = 0;
  /// One unit of the closed loop: a shuffled round of requests, a churn
  /// cycle or one table onboarded. Records every request into `rec`.
  virtual void Step(Recorder* rec) = 0;
  /// Steps per window of the loop: a whole rotation of the workload's
  /// request kinds, so every window has the same mix, and at least about
  /// 0.1 s of work, so its steal share spans several clock ticks. Shorter
  /// windows separate calm stretches from stolen ones more finely. The
  /// end-to-end metrics keep the calm windows.
  virtual int StepsPerWindow() const = 0;
  /// Checks answers that are verified after the loop (a sampled oracle)
  /// and returns how many requests they failed.
  virtual int64_t FinishChecks() { return 0; }
  /// The workload's own per-layer metrics (the harness adds the registry
  /// ones every workload shares).
  virtual void Layers(const Recorder& rec, const Recorder& setup,
                      std::vector<Metric>* out) const = 0;
  virtual std::vector<CountSpec> Counts() const = 0;
  /// Runs the first requests of the seeded sequence on fresh state, for
  /// the exactness check of Counts().
  virtual void Replay(Recorder* rec) = 0;
  /// Notes for the reader, e.g. which request kinds answered wrongly.
  virtual void Describe(std::vector<std::string>* notes) const {
    (void)notes;
  }
  /// Figures printed beside the result but never gated, e.g. a probe of a
  /// known defect.
  virtual void Extras(std::vector<Metric>* out) const { (void)out; }
};

std::unique_ptr<Workload> MakeReports(const Options& opts,
                                      od::common::ThreadPool* pool);
std::unique_ptr<Workload> MakeProveChurn(const Options& opts,
                                         od::common::ThreadPool* pool);
std::unique_ptr<Workload> MakeDiscoverOnboard(const Options& opts,
                                              od::common::ThreadPool* pool);

/// Sets up, warms, measures and checks `w`, and prints the result object
/// (one JSON line) on stdout. Returns the process exit code.
int RunWorkload(const Options& opts, int lanes, Workload* w);

/// Peak resident set of this process, in MB (VmHWM).
double PeakRssMb();

}  // namespace perfbench

#endif  // OD_PERFBENCH_HARNESS_H_
