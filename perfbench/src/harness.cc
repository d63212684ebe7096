#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <utility>

#include <unistd.h>

namespace perfbench {

namespace {

// Root span id → label, collected while tracing (read by the summarizer).
std::mutex labels_mu;
std::vector<std::pair<uint64_t, std::string>> labels;  // guarded by labels_mu

void RecordSpanLabel(uint64_t span_id, const std::string& label) {
  std::lock_guard<std::mutex> lock(labels_mu);
  labels.emplace_back(span_id, label);
}

// Registry keys are "name" or "name{labels}".
std::string BareName(const std::string& key) {
  return key.substr(0, key.find('{'));
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  double one = 0, five = 0, fifteen = 0;
  in >> one >> five >> fifteen;
  std::ostringstream out;
  out << one << " " << five << " " << fifteen;
  return out.str();
}

/// CPU time the hypervisor gave to other guests (the "steal" column of
/// /proc/stat), in clock ticks summed over all CPUs.
int64_t StealTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  int64_t v[8] = {};
  in >> cpu;
  for (int64_t& x : v) in >> x;
  return v[7];
}

/// Clock ticks per second of wall time over all CPUs.
double CpuTicksPerSecond() {
  return static_cast<double>(sysconf(_SC_CLK_TCK)) *
         od::common::ThreadPool::HardwareConcurrency();
}

void WriteMetrics(std::ostream& out, const char* key,
                  const std::vector<Metric>& metrics) {
  out << JsonString(key) << ":[";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? "," : "") << "{\"name\":" << JsonString(metrics[i].name)
        << ",\"value\":" << JsonNumber(metrics[i].value)
        << ",\"unit\":" << JsonString(metrics[i].unit) << "}";
  }
  out << "]";
}

/// Share of the machine's CPU time the hypervisor gave to other guests
/// since `ticks_before` was read, over `seconds` of wall time.
double StealShare(int64_t ticks_before, double seconds) {
  return static_cast<double>(StealTicks() - ticks_before) /
         (seconds * CpuTicksPerSecond());
}

/// Steal share up to which a stretch of work counts as calm.
constexpr double kCalmSteal = 0.01;

/// Which stretches of work (loop windows, set-ups) the figures use, by their
/// steal shares: those at most kCalmSteal, or, when fewer than a quarter
/// are, the quarter (at least one) with the least steal. On a shared host
/// other guests take the CPU in phases that last seconds to minutes and
/// slow every stretch they cover by about the share they take.
std::vector<bool> Calm(const std::vector<double>& shares) {
  std::vector<bool> calm(shares.size());
  size_t n = 0;
  for (size_t i = 0; i < shares.size(); ++i) {
    calm[i] = shares[i] <= kCalmSteal;
    n += calm[i];
  }
  const size_t quarter = (shares.size() + 3) / 4;
  if (n >= quarter) return calm;
  std::vector<size_t> order(shares.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return shares[a] < shares[b];
  });
  for (size_t i = 0; i < order.size(); ++i) calm[order[i]] = i < quarter;
  return calm;
}

/// Runs windows of steps until `seconds` have passed; the last window may
/// overrun.
void Loop(Workload* w, double seconds, Recorder* rec) {
  const auto before = od::common::MetricRegistry::Global().Snapshot();
  const auto t0 = Clock::now();
  while (MsSince(t0) < seconds * 1000) {
    Window win;
    win.first = rec->request_ms.size();
    const int64_t attempted = rec->attempted;
    const int64_t steal = StealTicks();
    const auto start = Clock::now();
    for (int i = 0; i < w->StepsPerWindow(); ++i) w->Step(rec);
    win.seconds = MsSince(start) / 1000;
    win.steal_share = StealShare(steal, win.seconds);
    win.requests = rec->attempted - attempted;
    win.end = rec->request_ms.size();
    rec->windows.push_back(win);
  }
  rec->elapsed_ms += MsSince(t0);
  FoldRegistry(before, od::common::MetricRegistry::Global().Snapshot(), rec);
}

/// The end-to-end metrics of an untraced loop, from its calm windows (see
/// Calm). With no steal every window counts.
void EndToEnd(const Recorder& rec, std::vector<Metric>* gated,
              std::vector<Metric>* extra) {
  std::vector<double> shares;
  for (const Window& win : rec.windows) shares.push_back(win.steal_share);
  const std::vector<bool> calm = Calm(shares);
  Samples latency;
  double seconds = 0, requests = 0, steal = 0;
  int used = 0;
  for (size_t w = 0; w < rec.windows.size(); ++w) {
    const Window& win = rec.windows[w];
    if (!calm[w]) continue;
    ++used;
    seconds += win.seconds;
    requests += static_cast<double>(win.requests);
    steal += win.steal_share;
    for (size_t i = win.first; i < win.end; ++i) {
      latency.Add(rec.request_ms.values()[i]);
    }
  }
  const double attempted =
      static_cast<double>(std::max<int64_t>(1, rec.attempted));
  const double correct = static_cast<double>(rec.attempted - rec.failed);
  // Correct requests per second: the calmer windows' request rate times
  // the share of requests that checked correct.
  gated->push_back({"requests_per_s",
                    seconds > 0 ? requests / seconds * correct / attempted : 0,
                    "1/s"});
  gated->push_back({"request_p50_ms", latency.Median(), "ms"});
  gated->push_back({"request_p90_ms", latency.Quantile(0.9), "ms"});
  gated->push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  extra->push_back({"failed_share", rec.failed / attempted, "1"});
  extra->push_back({"request_samples", static_cast<double>(latency.size()),
                    "count"});
  extra->push_back({"windows_used", static_cast<double>(used), "count"});
  extra->push_back({"windows", static_cast<double>(rec.windows.size()),
                    "count"});
  extra->push_back({"steal_share_used", used ? steal / used : 0, "1"});
  // Questions answered per second: the ProveAll questions where the
  // workload asks them, else the questions the planner asked the prover.
  const double questions =
      rec.S("service.questions") > 0
          ? rec.S("service.questions")
          : rec.S("prover.searches") + rec.S("prover.memo_hits");
  extra->push_back(
      {"implications_per_s", questions / (rec.elapsed_ms / 1000), "1/s"});
  auto apply = rec.layer.find("service.apply_ms");
  if (apply != rec.layer.end()) {
    extra->push_back({"apply_p50_ms", apply->second.Median(), "ms"});
    extra->push_back({"apply_p90_ms", apply->second.Quantile(0.9), "ms"});
  }
}

/// Registry counters the per-layer metrics read, by metric name.
const std::pair<const char*, const char*> kRegistryCounters[] = {
    {"prover.searches", "od_prover_searches_total"},
    {"prover.memo_hits", "od_prover_memo_hits_total"},
    {"prover.memo_retained", "od_prover_memo_retained_total"},
    {"prover.memo_invalidated", "od_prover_memo_invalidated_total"},
    {"service.batches", "od_service_batches_total"},
    {"service.batched_queries", "od_service_batched_queries_total"},
    {"theory.epoch_bumps", "od_theory_epoch_bumps_total"},
    {"optimizer.plans_enumerated", "od_planner_plans_enumerated_total"},
    {"threadpool.submits", "od_threadpool_submits_total"},
    {"threadpool.steals", "od_threadpool_steals_total"},
    {"discovery.validations", "od_discovery_validations_total"},
    {"discovery.candidates", "od_discovery_candidates_total"},
    {"discovery.ods_found", "od_discovery_ods_found_total"},
    {"discovery.partitions_computed", "od_discovery_partitions_computed_total"},
    {"discovery.partition_cache_hits", "od_discovery_partition_cache_hits_total"},
};

/// The per-layer metrics every workload shares, from the registry and the
/// calls the workloads count ("service.applies", "discovery.calls").
void SharedLayers(const Recorder& rec, int lanes, std::vector<Metric>* out) {
  const double reqs = std::max<double>(1, static_cast<double>(rec.attempted));
  auto per_req = [&](const char* name, const char* unit = "count") {
    out->push_back({name, rec.S(name) / reqs, unit});
  };
  per_req("prover.searches");
  per_req("prover.memo_hits");
  const double asked = rec.S("prover.searches") + rec.S("prover.memo_hits");
  out->push_back({"prover.hit_ratio",
                  asked == 0 ? 0 : rec.S("prover.memo_hits") / asked, "1"});
  per_req("service.batches");
  per_req("service.batched_queries");
  per_req("threadpool.submits");
  per_req("threadpool.steals");
  const double task_ms =
      static_cast<double>(rec.registry.Histogram("od_threadpool_task_us").sum) /
      1000;
  out->push_back({"threadpool.busy_share", task_ms / (rec.elapsed_ms * lanes),
                  "1"});
  const double applies = rec.S("service.applies");
  if (applies > 0) {
    out->push_back({"service.apply_ms", rec.P50("service.apply_ms"), "ms"});
    for (const char* name : {"service.memo_seeded", "prover.memo_retained",
                             "prover.memo_invalidated", "theory.epoch_bumps"}) {
      out->push_back({name, rec.S(name) / applies, "count"});
    }
  }
  const double plans = rec.S("service.plans");
  if (plans > 0) {
    out->push_back({"optimizer.plans_enumerated",
                    rec.S("optimizer.plans_enumerated") / plans, "count"});
  }
  if (rec.S("discovery.calls") > 0) {
    per_req("discovery.validations");
    per_req("discovery.candidates");
    per_req("discovery.ods_found");
    per_req("discovery.partitions_computed");
    const double hits = rec.S("discovery.partition_cache_hits");
    const double parts = hits + rec.S("discovery.partitions_computed");
    out->push_back(
        {"discovery.cache_hit_ratio", parts == 0 ? 0 : hits / parts, "1"});
  }
  const auto drain = rec.registry.Histogram("od_exec_fragment_drain_us");
  if (drain.count > 0) {
    out->push_back(
        {"exec.fragment_drain_p50_us", drain.ValueAtQuantile(0.5), "us"});
    out->push_back({"exec.fragment_drain_sum_ms",
                    static_cast<double>(drain.sum) / 1000, "ms"});
  }
}

bool WriteTraceBlock(const std::string& path) {
  std::ofstream out(path);
  out << od::common::Tracer::Global().ExportChromeTrace();
  if (!out) std::cerr << "cannot write " << path << "\n";
  return static_cast<bool>(out);
}

}  // namespace

uint32_t DeriveSeed(uint32_t seed, uint32_t purpose) {
  // splitmix64 finalizer over (seed, purpose).
  uint64_t z = (uint64_t{seed} << 32) ^ (purpose * 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return static_cast<uint32_t>(z ^ (z >> 31));
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Samples::Sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}


void RegistryDelta::Add(const od::common::MetricsSnapshot& before,
                        const od::common::MetricsSnapshot& after) {
  for (const auto& [key, v] : after.counters) {
    auto it = before.counters.find(key);
    counters_[BareName(key)] += v - (it == before.counters.end() ? 0 : it->second);
  }
  for (const auto& [key, h] : after.histograms) {
    od::common::HistogramSnapshot d = h;
    auto it = before.histograms.find(key);
    if (it != before.histograms.end()) {
      d.count -= it->second.count;
      d.sum -= it->second.sum;
      for (size_t i = 0; i < d.buckets.size() && i < it->second.buckets.size();
           ++i) {
        d.buckets[i].second -= it->second.buckets[i].second;
      }
    }
    od::common::HistogramSnapshot& acc = histograms_[BareName(key)];
    if (acc.buckets.empty()) {
      acc = d;
      continue;
    }
    acc.count += d.count;
    acc.sum += d.sum;
    for (size_t i = 0; i < acc.buckets.size() && i < d.buckets.size(); ++i) {
      acc.buckets[i].second += d.buckets[i].second;
    }
  }
}

int64_t RegistryDelta::Counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

od::common::HistogramSnapshot RegistryDelta::Histogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? od::common::HistogramSnapshot()
                                 : it->second;
}

LayerSpan::LayerSpan(const char* name, std::string label)
    : ctx_(od::common::TraceContext::NewRequest()), span_(name) {
  const uint64_t id = span_.context().span_id;
  if (!label.empty() && id != 0 && od::common::Tracer::Global().enabled()) {
    RecordSpanLabel(id, label);
  }
}

LayerSpan::~LayerSpan() = default;

double Recorder::S(const std::string& name) const {
  auto it = sums.find(name);
  return it == sums.end() ? 0 : it->second;
}

double Recorder::P50(const std::string& name) const {
  auto it = layer.find(name);
  return it == layer.end() ? 0 : it->second.Median();
}

void FoldRegistry(const od::common::MetricsSnapshot& before,
                  const od::common::MetricsSnapshot& after, Recorder* rec) {
  RegistryDelta delta;
  delta.Add(before, after);
  for (const auto& [metric, counter] : kRegistryCounters) {
    rec->Sum(metric, static_cast<double>(delta.Counter(counter)));
  }
  rec->registry.Add(before, after);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MB
    }
  }
  return 0;
}

int RunWorkload(const Options& opts, int lanes, Workload* w) {
  auto& tracer = od::common::Tracer::Global();
  const std::string load_start = LoadAverage();

  // Set up several times and report the median of the calm set-ups (see
  // Calm), so that set-up time is steady enough to gate: at least
  // kMinSetups times, and more while the set-ups so far took under
  // kMinSetupSeconds (a short set-up is noisier). The traced run traces one
  // more set-up, not counted in setup_s. The last set-up's state is the one
  // measured.
  constexpr size_t kMinSetups = 5;
  constexpr size_t kMaxSetups = 25;
  constexpr double kMinSetupSeconds = 2;
  std::vector<double> setup_times, setup_steal;
  Recorder setup;
  const auto setups_start = Clock::now();
  while (setup_times.size() < kMinSetups ||
         (setup_times.size() < kMaxSetups &&
          MsSince(setups_start) < kMinSetupSeconds * 1000)) {
    const int64_t steal = StealTicks();
    const auto t0 = Clock::now();
    w->Setup(&setup);
    setup_times.push_back(MsSince(t0) / 1000);
    setup_steal.push_back(StealShare(steal, setup_times.back()));
  }
  Samples setup_s;
  const std::vector<bool> calm_setups = Calm(setup_steal);
  for (size_t i = 0; i < setup_times.size(); ++i) {
    if (calm_setups[i]) setup_s.Add(setup_times[i]);
  }
  if (opts.trace) {
    tracer.Enable();
    w->Setup(&setup);
    tracer.Disable();
    if (!WriteTraceBlock(opts.trace_dir + "/block-setup.json")) return 1;
  }
  w->PrepareOracle();

  const int64_t steal_start = StealTicks();
  const auto loop_start = Clock::now();
  Recorder untraced;  // the whole loop, or the untraced blocks when tracing
  Recorder traced;
  std::vector<std::string> notes;
  int64_t dropped = 0;
  if (!opts.trace) {
    Loop(w, opts.seconds, &untraced);
  } else {
    // Alternate untraced and traced blocks so drift hits both sides alike;
    // the difference between them is the tracing overhead.
    constexpr int kBlocks = 4;
    for (int b = 0; b < kBlocks; ++b) {
      if (b % 2 == 0) {
        Loop(w, opts.seconds / kBlocks, &untraced);
        continue;
      }
      tracer.Clear();
      tracer.Enable();
      Loop(w, opts.seconds / kBlocks, &traced);
      tracer.Disable();
      dropped += tracer.dropped_events();
      if (!WriteTraceBlock(opts.trace_dir + "/block-" + std::to_string(b) +
                           ".json")) {
        return 1;
      }
    }
  }
  const double steal_share = StealShare(steal_start, MsSince(loop_start) / 1000);
  // Sampled checks finish after the loop. In the untraced run the loop is
  // one stretch, so their failures are its failures.
  const int64_t late_failures = w->FinishChecks();
  if (!opts.trace) untraced.failed += late_failures;
  const int64_t attempted = untraced.attempted + traced.attempted;
  const int64_t failed =
      untraced.failed + traced.failed + (opts.trace ? late_failures : 0);
  w->Describe(&notes);

  std::vector<Metric> gated, extra, layer;
  gated.push_back({"setup_s", setup_s.Median(), "s"});
  struct Count {
    CountSpec spec;
    double value;
    bool exact;
    double replay_spread;
  };
  std::vector<Count> counts;
  w->Extras(&extra);
  if (!opts.trace) {
    EndToEnd(untraced, &gated, &extra);
  } else {
    w->Layers(traced, setup, &layer);
    SharedLayers(traced, lanes, &layer);
    const double per_req_u =
        untraced.elapsed_ms / std::max<int64_t>(1, untraced.attempted);
    const double per_req_t =
        traced.elapsed_ms / std::max<int64_t>(1, traced.attempted);
    layer.push_back({"trace_overhead_pct", (per_req_t / per_req_u - 1) * 100,
                     "%"});
    layer.push_back({"trace.dropped_spans", static_cast<double>(dropped),
                     "count"});
    // Exactness: the same first requests on fresh state, three times.
    std::map<std::string, Samples> replays;
    for (int r = 0; r < 3; ++r) {
      Recorder rec;
      const auto before = od::common::MetricRegistry::Global().Snapshot();
      w->Replay(&rec);
      FoldRegistry(before, od::common::MetricRegistry::Global().Snapshot(),
                   &rec);
      for (const auto& [k, v] : rec.sums) replays[k].Add(v);
    }
    const double reqs =
        std::max<double>(1, static_cast<double>(traced.attempted));
    for (const CountSpec& spec : w->Counts()) {
      const Samples& runs = replays[spec.name];
      const double med = runs.Median();
      const double spread = runs.Quantile(1.0) - runs.Quantile(0.0);
      counts.push_back({spec, traced.S(spec.name) / reqs,
                        spec.declared_exact && spread == 0,
                        med == 0 ? spread : spread / med});
      if (spec.declared_exact && spread != 0) {
        notes.push_back(spec.name +
                        " is declared exact but differed across replays of "
                        "the same seed; reported as inexact");
      }
    }
    std::lock_guard<std::mutex> lock(labels_mu);
    std::ofstream out(opts.trace_dir + "/labels.json");
    out << "{";
    for (size_t i = 0; i < labels.size(); ++i) {
      out << (i ? "," : "") << "\"" << labels[i].first
          << "\":" << JsonString(labels[i].second);
    }
    out << "}\n";
  }

  std::ostringstream out;
  out << "{\"workload\":" << JsonString(opts.workload)
      << ",\"attempted\":" << attempted << ",\"failed\":" << failed
      << ",";
  WriteMetrics(out, "end_to_end", gated);
  out << ",";
  WriteMetrics(out, "extra", extra);
  out << ",";
  WriteMetrics(out, "per_layer", layer);
  out << ",\"counts\":[";
  for (size_t i = 0; i < counts.size(); ++i) {
    out << (i ? "," : "") << "{\"name\":" << JsonString(counts[i].spec.name)
        << ",\"value\":" << JsonNumber(counts[i].value)
        << ",\"exact\":" << (counts[i].exact ? "true" : "false")
        << ",\"replay_spread\":" << JsonNumber(counts[i].replay_spread)
        << "}";
  }
  out << "],\"notes\":[";
  for (size_t i = 0; i < notes.size(); ++i) {
    out << (i ? "," : "") << JsonString(notes[i]);
  }
  out << "],\"context\":{\"nproc\":"
      << od::common::ThreadPool::HardwareConcurrency()
      << ",\"lanes\":" << lanes
      << ",\"loadavg_start\":" << JsonString(load_start)
      << ",\"loadavg_end\":" << JsonString(LoadAverage())
      << ",\"cpu_steal_share\":" << JsonNumber(steal_share)
      << ",\"compiler\":" << JsonString(__VERSION__)
      << ",\"build_type\":" << JsonString(OD_PERFBENCH_BUILD_TYPE)
      << ",\"od_trace\":" << JsonString(OD_PERFBENCH_TRACE)
      << ",\"seed\":" << opts.seed << "}}";
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace perfbench
