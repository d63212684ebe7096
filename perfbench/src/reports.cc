// Workload `reports`: one client sends Plan + Execute requests, in a seeded
// shuffled order, for the thirteen TPC-DS date templates, the daily-sales
// report and the tax ORDER BY. Daily sales and the tax ORDER BY go both to
// an OD tenant (the date_dim ODs, or the tax ODs) and to an OD-blind tenant
// with an empty catalog, so a change to OD reasoning or to the exchange
// moves one half and leaves the other unchanged; the date templates go to
// the blind tenant. Every answer is checked against a reference computed by
// the materializing engine::ops operators.
//
// The date templates are not sent to the OD tenant in the measured loop
// because the service answers them wrongly there (Session::Plan binds the
// tenant's date_dim catalog to store_sales as well). A probe after set-up
// sends each of them to the OD tenant once, checks the answers and reports
// how many are wrong, so the defect stays visible in every run.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "engine/index.h"
#include "engine/ops.h"
#include "engine/partition.h"
#include "harness.h"
#include "optimizer/planner.h"
#include "oracle.h"
#include "service/service.h"
#include "warehouse/date_dim.h"
#include "warehouse/queries.h"
#include "warehouse/star_schema.h"
#include "warehouse/tax_schedule.h"

namespace perfbench {
namespace {

using namespace od;  // NOLINT: the benchmark speaks the library's types

constexpr int kStartYear = 1998;
constexpr int kYears = 5;
constexpr int64_t kFactRows = 2000000;
constexpr int kItems = 200;
constexpr int kStores = 20;
constexpr int kPartitions = 16;
constexpr int64_t kTaxRows = 500000;
constexpr int64_t kMaxIncome = 250000;
constexpr int kDailySalesYear = kStartYear + 1;

const char* const kDateTenant = "od_dates";
const char* const kTaxTenant = "od_tax";
const char* const kBlindTenant = "blind";

struct Data {
  engine::Table dim, fact, taxes;
  std::unique_ptr<engine::OrderedIndex> fact_index, tax_index;
  std::unique_ptr<engine::PartitionedTable> parts;
};

/// What a correct answer looks like for one query.
struct Reference {
  /// Aggregates: the result in ByLeadingColumns order (the group keys);
  /// order-by queries must additionally arrive in `order` already.
  engine::Table rows;
  int key_cols = 0;
  engine::SortSpec order;
  /// The tax ORDER BY passes 0.5M rows through: checked by order, row
  /// count and an order-insensitive digest instead of a sort.
  bool passthrough = false;
  uint64_t digest = 0;
  int64_t num_rows = 0;
};

/// A request kind: a query sent to one tenant.
struct Kind {
  std::string label;  // "<query>@od" or "<query>@blind"
  int query = 0;      // index into Reports::queries_
  bool od = false;
  std::string tenant;
};

class Reports : public Workload {
 public:
  Reports(const Options& opts, common::ThreadPool* pool)
      : opts_(opts), pool_(pool) {}

  void Setup(Recorder* setup) override {
    sessions_.clear();
    server_.reset();
    data_.reset();
    data_ = std::make_unique<Data>();
    const uint32_t seed = DeriveSeed(opts_.seed, 1);
    {
      LayerSpan span("setup.generate");
      const auto t0 = Clock::now();
      data_->dim = warehouse::GenerateDateDim(kStartYear, kYears);
      data_->fact = warehouse::GenerateStoreSales(
          kFactRows, data_->dim.col(0).Int(0), data_->dim.num_rows(), kItems,
          kStores, seed);
      data_->taxes = warehouse::GenerateTaxTable(kTaxRows, kMaxIncome,
                                                 DeriveSeed(opts_.seed, 2));
      setup->L("warehouse.generate_ms").Add(MsSince(t0));
    }
    {
      LayerSpan span("setup.index");
      const auto t0 = Clock::now();
      data_->fact_index = std::make_unique<engine::OrderedIndex>(
          &data_->fact, engine::SortSpec{0});
      data_->tax_index = std::make_unique<engine::OrderedIndex>(
          &data_->taxes, engine::SortSpec{warehouse::TaxColumns().income});
      data_->parts = std::make_unique<engine::PartitionedTable>(
          engine::PartitionedTable::PartitionByRange(data_->fact, 0,
                                                     kPartitions));
      setup->L("engine.index_build_ms").Add(MsSince(t0));
    }
    BuildQueries();
    OpenTenants();
    // Warm-up pass: every kind once, unchecked (the oracle comes later).
    Recorder warm;
    for (const Kind& k : kinds_) Request(k, &warm, /*check=*/false);
  }

  void PrepareOracle() override {
    const auto dated = warehouse::TpcdsDateQueries(kStartYear, kYears);
    refs_.clear();
    for (const opt::DateRangeQuery& dq : dated) {
      refs_.push_back(DateReference(dq, {}));
    }
    const warehouse::StoreSalesColumns f;
    opt::DateRangeQuery daily;
    daily.dim_predicates = {engine::Predicate{
        warehouse::DateDimColumns().d_year, engine::Predicate::Op::kEq,
        Value(int64_t{kDailySalesYear})}};
    daily.fact_date_sk = f.ss_sold_date_sk;
    daily.dim_date_sk = warehouse::DateDimColumns().d_date_sk;
    daily.fact_group_cols = {f.ss_sold_date_sk};
    daily.fact_aggs = {
        {engine::AggSpec::Kind::kSum, f.ss_net_paid, "sum_net_paid"},
        {engine::AggSpec::Kind::kCount, 0, "cnt"}};
    refs_.push_back(DateReference(daily, {f.ss_sold_date_sk}));

    const warehouse::TaxColumns t;
    Reference tax;
    tax.passthrough = true;
    tax.order = {t.bracket, t.tax};
    tax.digest = RowMultisetDigest(data_->taxes);
    tax.rows = engine::Table(data_->taxes.schema());  // only the shape
    tax.num_rows = data_->taxes.num_rows();
    refs_.push_back(std::move(tax));
    Probe();
  }

  int StepsPerWindow() const override { return 1; }

  void Step(Recorder* rec) override {
    std::vector<const Kind*> order;
    for (const Kind& k : kinds_) order.push_back(&k);
    std::shuffle(order.begin(), order.end(), order_rng_);
    for (const Kind* k : order) Request(*k, rec, /*check=*/true);
  }

  void Layers(const Recorder& rec, const Recorder& setup,
              std::vector<Metric>* out) const override {
    const double reqs = std::max<double>(1, static_cast<double>(rec.attempted));
    const double half = std::max(1.0, reqs / 2);  // OD and blind halves
    out->push_back({"warehouse.generate_ms", setup.P50("warehouse.generate_ms"), "ms"});
    out->push_back({"engine.index_build_ms", setup.P50("engine.index_build_ms"), "ms"});
    out->push_back({"service.plan_ms", rec.P50("service.plan_ms"), "ms"});
    out->push_back({"service.execute_ms", rec.P50("service.execute_ms"), "ms"});
    out->push_back({"theory.catalog_size",
                    static_cast<double>(server_->Stats(kDateTenant).catalog_size),
                    "count"});
    for (const char* name : {"optimizer.sorts_elided.od", "optimizer.sorts_elided.blind",
                             "optimizer.joins_elided.od", "optimizer.joins_elided.blind"}) {
      out->push_back({name, rec.S(name) / half, "count"});
    }
    // OD gain per query: blind ÷ OD execute p50 (above 1: OD reasoning
    // made the query faster), and its geometric mean over the queries.
    double log_sum = 0;
    int gains = 0;
    for (const std::string& q : query_names_) {
      const double od = rec.P50("exec." + q + "@od");
      if (od <= 0) continue;  // not sent to an OD tenant in the loop
      const double gain = rec.P50("exec." + q + "@blind") / od;
      out->push_back({"optimizer.od_gain." + q, gain, "ratio"});
      log_sum += std::log(gain);
      ++gains;
    }
    out->push_back({"optimizer.od_gain", gains ? std::exp(log_sum / gains) : 0, "ratio"});
    for (const char* name : {"exec.rows_scanned", "exec.rows_output", "exec.batches",
                             "exec.sorts", "exec.joins", "exec.fragments"}) {
      out->push_back({name, rec.S(name) / reqs, "count"});
    }
    auto exec = rec.layer.find("service.execute_ms");
    const double exec_s = exec == rec.layer.end() ? 0 : exec->second.Sum() / 1000;
    out->push_back({"exec.rows_per_s", exec_s > 0 ? rec.S("exec.rows_scanned") / exec_s : 0,
                    "1/s"});
    auto peak = rec.layer.find("exec.exchange_peak_rows");
    out->push_back({"exec.exchange_peak_rows",
                    peak == rec.layer.end() ? 0 : peak->second.Quantile(1.0), "rows"});
    out->push_back({"exec.spilled_bytes", rec.S("exec.spilled_bytes"), "bytes"});
  }

  std::vector<CountSpec> Counts() const override {
    return {{"exec.rows_scanned", true},          {"exec.rows_output", true},
            {"exec.fragments", true},             {"exec.sorts", true},
            {"exec.joins", true},                 {"exec.batches", true},
            {"optimizer.sorts_elided.od", true},  {"optimizer.sorts_elided.blind", true},
            {"optimizer.joins_elided.od", true},  {"optimizer.joins_elided.blind", true},
            {"optimizer.plans_enumerated", true}, {"prover.searches", true},
            {"prover.memo_hits", true},           {"threadpool.submits", false},
            {"threadpool.steals", false}};
  }

  void Replay(Recorder* rec) override {
    // A fresh server (cold memos), then one round in a fixed order.
    sessions_.clear();
    server_.reset();
    OpenTenants();
    for (const Kind& k : kinds_) Request(k, rec, /*check=*/false);
  }

  void Describe(std::vector<std::string>* notes) const override {
    std::string failing;
    for (const auto& [label, n] : failures_) {
      failing += (failing.empty() ? "" : ", ") + label + " x" + std::to_string(n);
    }
    if (!failing.empty()) notes->push_back("wrong answers by kind: " + failing);
    notes->push_back(
        "known defect probe: " + std::to_string(probe_wrong_.size()) + " of " +
        std::to_string(probe_kinds_.size()) +
        " date templates answered wrongly by the OD tenant" +
        (probe_wrong_.empty() ? "" : " (" + Join(probe_wrong_) + ")") +
        "; Session::Plan binds the tenant's date_dim catalog to store_sales "
        "too, so these requests are kept out of the measured loop");
  }

  void Extras(std::vector<Metric>* out) const override {
    out->push_back({"probe.od_date_templates_wrong",
                    static_cast<double>(probe_wrong_.size()), "count"});
  }

 private:
  void BuildQueries() {
    queries_.clear();
    query_names_.clear();
    Data& d = *data_;
    // Every table leaves its catalog unset, so the session binds the
    // tenant's pinned catalog: the OD tenant's ODs or the blind tenant's
    // empty catalog.
    for (const auto& dq : warehouse::TpcdsDateQueries(kStartYear, kYears)) {
      queries_.push_back(warehouse::ToLogicalQuery(
          dq, &d.fact, &d.dim, d.fact_index.get(), d.parts.get(), nullptr));
    }
    queries_.push_back(warehouse::DailySalesQuery(
        &d.fact, &d.dim, d.fact_index.get(), d.parts.get(), nullptr,
        kDailySalesYear));
    queries_.push_back(
        warehouse::TaxOrderByQuery(&d.taxes, d.tax_index.get(), nullptr));
    for (const auto& q : queries_) query_names_.push_back(q.name);

    // Every query goes to the blind tenant; daily sales and the tax
    // ORDER BY (the last two) to their OD tenant too. The date templates'
    // OD kinds are the known-defect probe's (see the top of this file).
    kinds_.clear();
    probe_kinds_.clear();
    const size_t templates = queries_.size() - 2;
    for (size_t i = 0; i < queries_.size(); ++i) {
      const bool tax = i + 1 == queries_.size();
      Kind od{query_names_[i] + "@od", static_cast<int>(i), true,
              tax ? kTaxTenant : kDateTenant};
      (i < templates ? probe_kinds_ : kinds_).push_back(std::move(od));
      kinds_.push_back({query_names_[i] + "@blind", static_cast<int>(i), false,
                        kBlindTenant});
    }
    order_rng_.seed(DeriveSeed(opts_.seed, 3));
  }

  /// Sends each probe kind once and records which answered wrongly.
  void Probe() {
    probe_wrong_.clear();
    for (const Kind& k : probe_kinds_) {
      Recorder rec;
      Request(k, &rec, /*check=*/true);
      if (rec.failed > 0) probe_wrong_.push_back(k.label);
    }
    failures_.clear();  // the probe's failures are not the loop's
  }

  static std::string Join(const std::vector<std::string>& v) {
    std::string out;
    for (const std::string& s : v) out += (out.empty() ? "" : ", ") + s;
    return out;
  }

  void OpenTenants() {
    service::ServerOptions sopts;
    sopts.pool = pool_;
    server_ = std::make_unique<service::Server>(sopts);
    server_->CreateTenant(kDateTenant, warehouse::DateDimOds());
    server_->CreateTenant(kTaxTenant, warehouse::TaxOds());
    server_->CreateTenant(kBlindTenant);
    for (const char* t : {kDateTenant, kTaxTenant, kBlindTenant}) {
      sessions_.emplace(t, server_->OpenSession(t));
    }
  }

  Reference DateReference(const opt::DateRangeQuery& dq,
                          engine::SortSpec order) const {
    const engine::Table dim = engine::Filter(data_->dim, dq.dim_predicates);
    const engine::Table joined = engine::HashJoin(
        data_->fact, dq.fact_date_sk, dim, dq.dim_date_sk);
    Reference ref;
    ref.key_cols = static_cast<int>(dq.fact_group_cols.size());
    ref.rows = ByLeadingColumns(
        engine::HashGroupBy(joined, dq.fact_group_cols, dq.fact_aggs),
        ref.key_cols);
    ref.order = std::move(order);
    return ref;
  }

  bool Check(const Reference& ref, const engine::Table& got) const {
    if (!ref.order.empty() && !engine::IsSortedBy(got, ref.order)) return false;
    if (ref.passthrough) {
      return got.num_rows() == ref.num_rows &&
             got.num_columns() == ref.rows.num_columns() &&
             RowMultisetDigest(got) == ref.digest;
    }
    return RowsMatch(ref.rows, ref.order.empty()
                                   ? ByLeadingColumns(got, ref.key_cols)
                                   : got);
  }

  void Request(const Kind& k, Recorder* rec, bool check) {
    const service::Session& session = sessions_.at(k.tenant);
    opt::PlanOptions popts;
    popts.dop = pool_->num_threads();
    popts.pool = pool_;
    const auto t0 = Clock::now();
    opt::PhysicalPlan plan = [&] {
      LayerSpan span("service.plan", k.label);
      return session.Plan(queries_[k.query], opt::CostModel(), popts);
    }();
    const double plan_ms = MsSince(t0);
    const auto t1 = Clock::now();
    opt::ExecStats st;
    engine::Table out = [&] {
      LayerSpan span("service.execute", k.label);
      return session.Execute(plan, &st);
    }();
    const double exec_ms = MsSince(t1);
    rec->request_ms.Add(plan_ms + exec_ms);
    rec->L("service.plan_ms").Add(plan_ms);
    rec->L("service.execute_ms").Add(exec_ms);
    rec->L("exec." + k.label).Add(exec_ms);
    rec->L("exec.exchange_peak_rows").Add(static_cast<double>(st.exchange_peak_rows));
    rec->Sum("exec.rows_scanned", static_cast<double>(st.rows_scanned));
    rec->Sum("exec.rows_output", static_cast<double>(st.rows_output));
    rec->Sum("exec.batches", static_cast<double>(st.batches));
    rec->Sum("exec.sorts", st.sorts);
    rec->Sum("exec.joins", st.joins);
    rec->Sum("exec.fragments", st.fragments);
    rec->Sum("exec.spilled_bytes", static_cast<double>(st.spilled_bytes));
    const std::string side = k.od ? ".od" : ".blind";
    rec->Sum("optimizer.sorts_elided" + side, st.sorts_elided);
    rec->Sum("optimizer.joins_elided" + side, st.joins_elided);
    rec->Sum("service.plans", 1);
    ++rec->attempted;
    if (!check) return;
    if (opts_.corrupt) out = Corrupted(out);
    if (!Check(refs_[k.query], out)) {
      ++rec->failed;
      ++failures_[k.label];
    }
  }

  const Options opts_;
  common::ThreadPool* const pool_;
  std::unique_ptr<Data> data_;
  std::unique_ptr<service::Server> server_;
  std::map<std::string, service::Session> sessions_;
  std::vector<opt::LogicalQuery> queries_;
  std::vector<std::string> query_names_;
  std::vector<Kind> kinds_;        // the measured loop's request kinds
  std::vector<Kind> probe_kinds_;  // the known-defect probe's
  std::vector<std::string> probe_wrong_;
  std::vector<Reference> refs_;  // aligned with queries_
  std::mt19937 order_rng_;
  std::map<std::string, int64_t> failures_;
};

}  // namespace

std::unique_ptr<Workload> MakeReports(const Options& opts,
                                      od::common::ThreadPool* pool) {
  return std::make_unique<Reports>(opts, pool);
}

}  // namespace perfbench
