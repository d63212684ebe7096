// Workload `prove_churn`: one client repeats a writer/reader cycle over a
// random 20-attribute catalog. Each cycle applies one sweep (add a random
// OD, drop the oldest added one once more than four are live), pins the new
// epoch with OpenSession and asks 256 questions in one ProveAll: three in
// four from the hot set of every [i]↦[j] and [i]↦[j,j+1], one in four novel.
// The prover, theory and the service writer path do all the work; exec does
// none. Duplicates within a batch are kept, as coalesced traffic has them.
// A seeded sample of answers (four on every fourth cycle) is checked
// against a fresh prover over the catalog the session pinned, rebuilt after
// the loop from a log of sweeps.
//
// The base catalog, and the pool the writer draws its ODs from, are the
// same for every seed: random 20-OD catalogs differ in hardness by more
// than 2x (21 to 57 cycles/s over five seeds), which would swamp any change
// under test. The seed drives which pool ODs the writer adds and in what
// order, the questions and the oracle's sample.
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/dependency.h"
#include "harness.h"
#include "prover/prover.h"
#include "service/service.h"
#include "theory/theory.h"

namespace perfbench {
namespace {

using namespace od;  // NOLINT: the benchmark speaks the library's types

constexpr int kAttrs = 20;
constexpr int kBaseOds = 20;
constexpr size_t kMaxExtra = 4;
constexpr int kQuestions = 256;
constexpr int kWarmCycles = 128;
constexpr int kReplayCycles = 32;
constexpr int kChecksPerCycle = 4;
// Every fourth cycle is checked, which keeps the log (and so peak RSS)
// small next to the program's own memory.
constexpr int kCheckEvery = 4;
constexpr int kPoolOds = 64;
constexpr uint32_t kCatalogSeed = 20;
const char* const kTenant = "churn";

AttributeList RandomList(std::mt19937& rng, int min_len, int max_len) {
  std::uniform_int_distribution<int> len(min_len, max_len);
  std::uniform_int_distribution<int> attr(0, kAttrs - 1);
  AttributeList list;
  for (int k = len(rng); k > 0; --k) list = list.Append(attr(rng));
  return list.RemoveDuplicates();
}

OrderDependency RandomOd(std::mt19937& rng) {
  AttributeList lhs = RandomList(rng, 1, 2);
  return OrderDependency(lhs, RandomList(rng, 1, 2));
}

std::vector<OrderDependency> HotSet() {
  std::vector<OrderDependency> hot;
  for (int i = 0; i < kAttrs; ++i) {
    for (int j = 0; j < kAttrs; ++j) {
      if (i == j) continue;
      hot.emplace_back(AttributeList({i}), AttributeList({j}));
      hot.emplace_back(AttributeList({i}),
                       AttributeList({j, (j + 1) % kAttrs}));
    }
  }
  return hot;
}

/// One cycle as the oracle replays it: the sweep, then (for measured
/// cycles) the sampled questions and the answers the session gave.
struct CycleLog {
  OrderDependency added;
  bool removed_oldest = false;
  std::vector<OrderDependency> questions;
  std::vector<bool> answers;
};

/// The base catalog (the first kBaseOds) and the writer's pool (the rest).
std::vector<OrderDependency> FixedOds() {
  std::mt19937 rng(kCatalogSeed);
  std::vector<OrderDependency> ods;
  for (int i = 0; i < kBaseOds + kPoolOds; ++i) ods.push_back(RandomOd(rng));
  return ods;
}

class ProveChurn : public Workload {
 public:
  ProveChurn(const Options& opts, common::ThreadPool* pool)
      : opts_(opts), pool_(pool), hot_(HotSet()), fixed_(FixedOds()),
        base_(std::vector<OrderDependency>(fixed_.begin(),
                                           fixed_.begin() + kBaseOds)) {}

  void Setup(Recorder* setup) override {
    (void)setup;
    Reset();
    Recorder warm;
    for (int i = 0; i < kWarmCycles; ++i) Cycle(&warm, /*check=*/false);
  }

  void PrepareOracle() override {}

  int StepsPerWindow() const override { return 32; }

  void Step(Recorder* rec) override { Cycle(rec, /*check=*/true); }

  int64_t FinishChecks() override {
    // Replays the logged sweeps into a plain catalog and asks a fresh
    // prover the sampled questions at each checked cycle.
    theory::Theory catalog(base_);
    std::deque<theory::ConstraintId> extra;
    int64_t failed = 0;
    for (const CycleLog& log : log_) {
      if (log.removed_oldest) {
        catalog.Remove(extra.front());
        extra.pop_front();
      }
      extra.push_back(catalog.Add(log.added));
      if (log.questions.empty()) continue;
      ++checked_cycles_;
      prover::Prover fresh(catalog.deps());
      for (size_t i = 0; i < log.questions.size(); ++i) {
        const bool got = opts_.corrupt ? !log.answers[i] : log.answers[i];
        if (fresh.Implies(log.questions[i]) != got) {
          ++failed;
          break;
        }
      }
    }
    return failed;
  }

  void Layers(const Recorder& rec, const Recorder& setup,
              std::vector<Metric>* out) const override {
    (void)setup;
    out->push_back({"service.proveall_ms", rec.P50("service.proveall_ms"), "ms"});
    out->push_back({"service.open_session_us", rec.P50("service.open_session_us"), "us"});
    out->push_back({"theory.catalog_size",
                    static_cast<double>(server_->Stats(kTenant).catalog_size),
                    "count"});
  }

  std::vector<CountSpec> Counts() const override {
    // Above one lane, duplicate questions in one batch can both miss the
    // memo and both search, so searches and hits vary run to run.
    const bool serial = pool_->num_threads() == 1;
    return {{"prover.searches", serial},       {"prover.memo_hits", serial},
            {"service.memo_seeded", true},     {"prover.memo_retained", true},
            {"prover.memo_invalidated", true}, {"theory.epoch_bumps", true},
            {"threadpool.submits", false},     {"threadpool.steals", false}};
  }

  void Replay(Recorder* rec) override {
    Reset();
    for (int i = 0; i < kReplayCycles; ++i) Cycle(rec, /*check=*/false);
  }

  void Describe(std::vector<std::string>* notes) const override {
    notes->push_back("oracle: " + std::to_string(kChecksPerCycle) +
                     " sampled answers checked on each of " +
                     std::to_string(checked_cycles_) + " cycles");
  }

 private:
  /// A fresh server and catalog from the seed, and the cycle RNG rewound.
  void Reset() {
    server_.reset();
    service::ServerOptions sopts;
    sopts.pool = pool_;
    server_ = std::make_unique<service::Server>(sopts);
    server_->CreateTenant(kTenant, base_);
    log_.clear();
    rng_.seed(DeriveSeed(opts_.seed, 1));
    check_rng_.seed(DeriveSeed(opts_.seed, 2));
    extra_.clear();
  }

  void Cycle(Recorder* rec, bool check) {
    // Writer: one sweep adds a random OD and retires the oldest extra.
    std::uniform_int_distribution<int> from_pool(kBaseOds,
                                                 kBaseOds + kPoolOds - 1);
    CycleLog log{fixed_[from_pool(rng_)], extra_.size() >= kMaxExtra, {}, {}};
    std::vector<service::Mutation> sweep = {service::Mutation::Add(log.added)};
    if (log.removed_oldest) {
      sweep.push_back(service::Mutation::Remove(extra_.front()));
    }
    const auto t0 = Clock::now();
    service::ApplyResult applied;
    {
      LayerSpan span("service.apply");
      applied = server_->Apply(kTenant, sweep);
    }
    rec->L("service.apply_ms").Add(MsSince(t0));
    rec->Sum("service.applies", 1);
    rec->Sum("service.memo_seeded", static_cast<double>(applied.memo_seeded));
    if (log.removed_oldest) extra_.pop_front();
    extra_.push_back(applied.added.front());

    // Reader: pin the new epoch and ask one batch.
    std::vector<OrderDependency> questions;
    questions.reserve(kQuestions);
    std::uniform_int_distribution<size_t> pick(0, hot_.size() - 1);
    for (int i = 0; i < kQuestions; ++i) {
      if (rng_() % 4 != 0) {
        questions.push_back(hot_[pick(rng_)]);
      } else {
        AttributeList lhs = RandomList(rng_, 1, 3);
        questions.emplace_back(lhs, RandomList(rng_, 1, 3));
      }
    }
    const auto t1 = Clock::now();
    service::Session session = server_->OpenSession(kTenant);
    const double open_ms = MsSince(t1);
    const auto t2 = Clock::now();
    std::vector<bool> answers;
    {
      LayerSpan span("service.proveall");
      answers = session.ProveAll(questions);
    }
    const double prove_ms = MsSince(t2);
    rec->L("service.open_session_us").Add(open_ms * 1000);
    rec->L("service.proveall_ms").Add(prove_ms);
    rec->request_ms.Add(open_ms + prove_ms);
    rec->Sum("service.questions", kQuestions);
    ++rec->attempted;
    if (check && rec->attempted % kCheckEvery == 0) {
      std::uniform_int_distribution<int> sample(0, kQuestions - 1);
      for (int i = 0; i < kChecksPerCycle; ++i) {
        const int q = sample(check_rng_);
        log.questions.push_back(questions[q]);
        log.answers.push_back(answers[q]);
      }
    }
    log_.push_back(std::move(log));
  }

  const Options opts_;
  common::ThreadPool* const pool_;
  const std::vector<OrderDependency> hot_;
  const std::vector<OrderDependency> fixed_;
  const DependencySet base_;
  std::unique_ptr<service::Server> server_;
  std::mt19937 rng_;
  std::mt19937 check_rng_;  // which answers the oracle samples
  std::deque<theory::ConstraintId> extra_;
  std::vector<CycleLog> log_;  // every cycle since the last Reset
  int64_t checked_cycles_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeProveChurn(const Options& opts,
                                         od::common::ThreadPool* pool) {
  return std::make_unique<ProveChurn>(opts, pool);
}

}  // namespace perfbench
