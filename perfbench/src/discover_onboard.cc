// Workload `discover_onboard`: one client onboards three tables in turn —
// a 10-year date_dim, a 20k-row store_sales sample and a 20k-row taxes
// sample. Onboarding a table runs DiscoverODs on all lanes, publishes the
// mined cover into the table's tenant with one Apply sweep that replaces
// the previous cover, and asks ProveAll every [i]↦[j] pair question of the
// table at the new epoch. Partition products and split/swap validation
// dominate; replacing a whole catalog in one sweep uses the writer path
// differently from prove_churn's one-OD sweeps. The parallel cover must
// equal the serial one computed at set-up, and the pair answers must equal
// a fresh prover's over that serial cover.
#include <memory>
#include <string>
#include <vector>

#include "core/dependency.h"
#include "discovery/discovery.h"
#include "engine/table.h"
#include "harness.h"
#include "prover/prover.h"
#include "service/service.h"
#include "warehouse/date_dim.h"
#include "warehouse/star_schema.h"
#include "warehouse/tax_schedule.h"

namespace perfbench {
namespace {

using namespace od;  // NOLINT: the benchmark speaks the library's types

constexpr int kDateStartYear = 1995;
constexpr int kDateYears = 10;
constexpr int64_t kSampleRows = 20000;
constexpr int kItems = 200;
constexpr int kStores = 20;
constexpr int64_t kMaxIncome = 250000;

struct Onboarded {
  std::string name;  // also the tenant name
  engine::Table table;
  std::vector<OrderDependency> pairs;  // every [i]↦[j], i ≠ j
  // Oracle: the serial cover and a fresh prover's pair answers over it.
  std::vector<OrderDependency> serial_cover;
  std::vector<bool> pair_answers;
  // The cover currently published into the tenant.
  std::vector<theory::ConstraintId> published;
};

std::vector<OrderDependency> PairQuestions(int columns) {
  std::vector<OrderDependency> pairs;
  for (int i = 0; i < columns; ++i) {
    for (int j = 0; j < columns; ++j) {
      if (i != j) pairs.emplace_back(AttributeList({i}), AttributeList({j}));
    }
  }
  return pairs;
}

class DiscoverOnboard : public Workload {
 public:
  DiscoverOnboard(const Options& opts, common::ThreadPool* pool)
      : opts_(opts), pool_(pool) {}

  void Setup(Recorder* setup) override {
    tables_.clear();
    server_.reset();
    {
      LayerSpan span("setup.generate");
      const auto t0 = Clock::now();
      engine::Table dim = warehouse::GenerateDateDim(kDateStartYear, kDateYears);
      engine::Table sales = warehouse::GenerateStoreSales(
          kSampleRows, dim.col(0).Int(0), dim.num_rows(), kItems, kStores,
          DeriveSeed(opts_.seed, 1));
      engine::Table taxes = warehouse::GenerateTaxTable(
          kSampleRows, kMaxIncome, DeriveSeed(opts_.seed, 2));
      setup->L("warehouse.generate_ms").Add(MsSince(t0));
      tables_.push_back(Onboarded{"date_dim", std::move(dim), {}, {}, {}, {}});
      tables_.push_back(Onboarded{"store_sales", std::move(sales), {}, {}, {}, {}});
      tables_.push_back(Onboarded{"taxes", std::move(taxes), {}, {}, {}, {}});
    }
    OpenTenants();
    // Warm-up pass: every table onboarded once, unchecked.
    Recorder warm;
    for (size_t i = 0; i < tables_.size(); ++i) Onboard(i, &warm, false);
    next_ = 0;
  }

  void PrepareOracle() override {
    for (Onboarded& t : tables_) {
      discovery::DiscoveryOptions serial;
      serial.num_threads = 1;
      t.serial_cover = discovery::DiscoverODs(t.table, serial).ods.ods();
      prover::Prover fresh(DependencySet(t.serial_cover));
      t.pair_answers.clear();
      for (const OrderDependency& q : t.pairs) {
        t.pair_answers.push_back(fresh.Implies(q));
      }
    }
  }

  int StepsPerWindow() const override { return 3; }

  void Step(Recorder* rec) override {
    Onboard(next_, rec, /*check=*/true);
    next_ = (next_ + 1) % tables_.size();
  }

  void Layers(const Recorder& rec, const Recorder& setup,
              std::vector<Metric>* out) const override {
    out->push_back({"warehouse.generate_ms", setup.P50("warehouse.generate_ms"), "ms"});
    out->push_back({"service.proveall_ms", rec.P50("service.proveall_ms"), "ms"});
    out->push_back({"service.open_session_us", rec.P50("service.open_session_us"), "us"});
    out->push_back({"discovery.discover_ms", rec.P50("discovery.discover_ms"), "ms"});
    for (const Onboarded& t : tables_) {
      out->push_back({"discovery.discover_ms." + t.name,
                      rec.P50("discovery.discover_ms." + t.name), "ms"});
    }
    double catalog = 0;
    for (const Onboarded& t : tables_) {
      catalog += server_->Stats(t.name).catalog_size;
    }
    out->push_back({"theory.catalog_size", catalog / tables_.size(), "count"});
  }

  std::vector<CountSpec> Counts() const override {
    return {{"discovery.validations", true},  {"discovery.candidates", true},
            {"discovery.ods_found", true},    {"discovery.partitions_computed", true},
            {"service.memo_seeded", true},    {"prover.searches", false},
            {"prover.memo_hits", false},      {"theory.epoch_bumps", true},
            {"threadpool.submits", false},    {"threadpool.steals", false}};
  }

  void Replay(Recorder* rec) override {
    server_.reset();
    for (Onboarded& t : tables_) t.published.clear();
    OpenTenants();
    for (size_t i = 0; i < tables_.size(); ++i) Onboard(i, rec, false);
  }

  void Describe(std::vector<std::string>* notes) const override {
    std::string covers;
    for (const Onboarded& t : tables_) {
      covers += (covers.empty() ? "" : ", ") + t.name + " " +
                std::to_string(t.serial_cover.size()) + " ODs";
    }
    notes->push_back("serial covers: " + covers);
  }

 private:
  void OpenTenants() {
    service::ServerOptions sopts;
    sopts.pool = pool_;
    server_ = std::make_unique<service::Server>(sopts);
    for (Onboarded& t : tables_) {
      server_->CreateTenant(t.name);
      t.pairs = PairQuestions(t.table.num_columns());
    }
  }

  void Onboard(size_t index, Recorder* rec, bool check) {
    Onboarded& t = tables_[index];
    const auto t0 = Clock::now();
    discovery::DiscoveryResult found;
    {
      LayerSpan span("discovery.discover", t.name);
      discovery::DiscoveryOptions dopts;
      dopts.num_threads = pool_->num_threads();
      found = discovery::DiscoverODs(t.table, dopts);
    }
    const double discover_ms = MsSince(t0);

    // One sweep replaces the previous cover with the new one.
    std::vector<service::Mutation> sweep;
    for (theory::ConstraintId id : t.published) {
      sweep.push_back(service::Mutation::Remove(id));
    }
    for (const OrderDependency& od : found.ods.ods()) {
      sweep.push_back(service::Mutation::Add(od));
    }
    const auto t1 = Clock::now();
    service::ApplyResult applied;
    {
      LayerSpan span("service.apply", t.name);
      applied = server_->Apply(t.name, sweep);
    }
    const double apply_ms = MsSince(t1);
    t.published = applied.added;

    const auto t2 = Clock::now();
    std::vector<bool> answers;
    double open_ms = 0;
    {
      LayerSpan span("service.proveall", t.name);
      service::Session session = server_->OpenSession(t.name);
      open_ms = MsSince(t2);
      answers = session.ProveAll(t.pairs);
    }
    const double prove_ms = MsSince(t2);

    rec->request_ms.Add(discover_ms + apply_ms + prove_ms);
    rec->L("discovery.discover_ms").Add(discover_ms);
    rec->L("discovery.discover_ms." + t.name).Add(discover_ms);
    rec->L("service.apply_ms").Add(apply_ms);
    rec->L("service.proveall_ms").Add(prove_ms);
    rec->L("service.open_session_us").Add(open_ms * 1000);
    rec->Sum("discovery.calls", 1);
    rec->Sum("service.applies", 1);
    rec->Sum("service.memo_seeded", static_cast<double>(applied.memo_seeded));
    rec->Sum("service.questions", static_cast<double>(t.pairs.size()));
    ++rec->attempted;
    if (!check) return;
    std::vector<OrderDependency> cover = found.ods.ods();
    if (opts_.corrupt) {
      if (cover.empty()) {
        cover.emplace_back(AttributeList({0}), AttributeList({1}));
      } else {
        cover.pop_back();
      }
      answers.flip();
    }
    if (cover != t.serial_cover || answers != t.pair_answers) ++rec->failed;
  }

  const Options opts_;
  common::ThreadPool* const pool_;
  std::vector<Onboarded> tables_;
  std::unique_ptr<service::Server> server_;
  size_t next_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeDiscoverOnboard(const Options& opts,
                                              od::common::ThreadPool* pool) {
  return std::make_unique<DiscoverOnboard>(opts, pool);
}

}  // namespace perfbench
