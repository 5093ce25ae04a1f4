// Shared fixtures for unit and integration tests: a compact two-table
// database with data materialized (for executor tests) and helpers to build
// templates/instances quickly.
#pragma once

#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/query_instance.h"
#include "query/query_template.h"
#include "storage/database.h"

namespace scrpqo::testing {

/// A small orders/customers-style database with indexes on keys and one
/// predicate column, materialized rows, deterministic content.
inline Database MakeSmallDatabase(int64_t fact_rows = 2000,
                                  int64_t dim_rows = 200,
                                  uint64_t seed = 7) {
  std::vector<TableDef> defs;
  {
    TableDef t;
    t.name = "dim";
    t.row_count = dim_rows;
    ColumnDef pk;
    pk.name = "d_key";
    pk.type = DataType::kInt64;
    pk.distribution = ColumnDistribution::kSequential;
    ColumnDef attr;
    attr.name = "d_attr";
    attr.type = DataType::kInt64;
    attr.distribution = ColumnDistribution::kUniform;
    attr.min_value = 0;
    attr.max_value = 100;
    t.columns = {pk, attr};
    t.indexes = {IndexDef{"ix_d_key", "d_key", false}};
    defs.push_back(t);
  }
  {
    TableDef t;
    t.name = "fact";
    t.row_count = fact_rows;
    ColumnDef fk;
    fk.name = "f_dim";
    fk.type = DataType::kInt64;
    fk.distribution = ColumnDistribution::kForeignKey;
    fk.ref_table = "dim";
    ColumnDef v1;
    v1.name = "f_value";
    v1.type = DataType::kInt64;
    v1.distribution = ColumnDistribution::kUniform;
    v1.min_value = 0;
    v1.max_value = 10000;
    ColumnDef v2;
    v2.name = "f_weight";
    v2.type = DataType::kDouble;
    v2.distribution = ColumnDistribution::kZipf;
    v2.min_value = 0;
    v2.max_value = 1000;
    v2.zipf_theta = 1.0;
    t.columns = {fk, v1, v2};
    t.indexes = {IndexDef{"ix_f_dim", "f_dim", false},
                 IndexDef{"ix_f_value", "f_value", false}};
    defs.push_back(t);
  }
  GeneratorOptions opts;
  opts.seed = seed;
  opts.materialize_rows = true;
  return GenerateDatabase(std::move(defs), opts);
}

/// fact JOIN dim with two parameterized predicates
/// (fact.f_value <= $0, dim.d_attr <= $1).
inline std::shared_ptr<QueryTemplate> MakeJoinTemplate() {
  auto tmpl = std::make_shared<QueryTemplate>(
      "test_join", std::vector<std::string>{"fact", "dim"});
  JoinEdge e;
  e.left_table = 0;
  e.left_column = "f_dim";
  e.right_table = 1;
  e.right_column = "d_key";
  tmpl->AddJoin(e);
  PredicateTemplate p0;
  p0.table_index = 0;
  p0.column = "f_value";
  p0.op = CompareOp::kLe;
  p0.param_slot = 0;
  SCRPQO_CHECK(tmpl->AddPredicate(std::move(p0)).ok(), "pred0");
  PredicateTemplate p1;
  p1.table_index = 1;
  p1.column = "d_attr";
  p1.op = CompareOp::kLe;
  p1.param_slot = 1;
  SCRPQO_CHECK(tmpl->AddPredicate(std::move(p1)).ok(), "pred1");
  return tmpl;
}

/// Single-table template on fact with one parameterized predicate.
inline std::shared_ptr<QueryTemplate> MakeScanTemplate() {
  auto tmpl = std::make_shared<QueryTemplate>(
      "test_scan", std::vector<std::string>{"fact"});
  PredicateTemplate p0;
  p0.table_index = 0;
  p0.column = "f_value";
  p0.op = CompareOp::kLe;
  p0.param_slot = 0;
  SCRPQO_CHECK(tmpl->AddPredicate(std::move(p0)).ok(), "pred0");
  return tmpl;
}

/// A one-shot gate between test threads: Wait blocks until Open. Open is
/// idempotent and the destructor opens, so a failed expectation never
/// leaves a waiter hung.
class Gate {
 public:
  ~Gate() { Open(); }
  void Open() {
    std::call_once(once_, [this] { promise_.set_value(); });
  }
  void Wait() const { future_.wait(); }
  bool WaitFor(std::chrono::milliseconds timeout) const {
    return future_.wait_for(timeout) == std::future_status::ready;
  }

 private:
  std::promise<void> promise_;
  std::shared_future<void> future_ = promise_.get_future().share();
  std::once_flag once_;
};

}  // namespace scrpqo::testing
