// Multi-template serving harness for the tests: drives a PqoManager from
// several worker threads over a fleet of query templates, the deployment
// shape the paper's Section 2 abstracts away (it fixes ONE template Q; a
// real service serves many concurrently).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pqo/pqo_manager.h"
#include "workload/templates.h"

namespace scrpqo {

/// One template as the runner sees it. Non-owning: the engine and instance
/// list must outlive the run (TemplateFleet bundles the ownership).
struct ServedTemplate {
  std::string key;
  EngineContext* engine = nullptr;
  const std::vector<WorkloadInstance>* instances = nullptr;
};

struct MultiTemplateRunOptions {
  /// Worker threads submitting instances concurrently.
  int threads = 1;
  /// Every thread serves each of its templates' instance lists `rounds`
  /// times, then exits.
  int rounds = 1;
};

struct MultiTemplateRunResult {
  int64_t instances_served = 0;
  /// Choices that came back without a plan — always 0 unless an instance
  /// was lost (the concurrent stress test asserts on this).
  int64_t lost = 0;
  /// Post-run state, read after FlushAll() quiesces deferred work.
  int64_t plans_cached = 0;
  int64_t global_evictions = 0;
};

/// Runs the fleet through `manager`. Thread t serves templates
/// t, t+threads, t+2*threads, ..., so each template has one submitting
/// thread and its instance order is deterministic. Calls
/// manager.FlushAll() before reading the final cache totals.
MultiTemplateRunResult RunMultiTemplate(
    PqoManager* manager, const std::vector<ServedTemplate>& templates,
    const MultiTemplateRunOptions& options);

/// A self-owning fleet of RD2 templates: one shared database/optimizer/
/// engine (EngineContext::Optimize is thread-safe), a few distinct join
/// shapes cycled across `num_templates` keys, and one instance stream per
/// key (distinct seeds, so caches fill independently).
class TemplateFleet {
 public:
  /// `dims` cycles over the fleet, e.g. {2, 3} gives alternating 2-d and
  /// 3-d join templates named "rd2_t<NUM>_d<D>".
  TemplateFleet(int num_templates, int instances_per_template,
                uint64_t seed = 99, std::vector<int> dims = {2, 3});

  TemplateFleet(const TemplateFleet&) = delete;
  TemplateFleet& operator=(const TemplateFleet&) = delete;

  const std::vector<ServedTemplate>& served() const { return served_; }
  EngineContext* engine() { return engine_.get(); }

 private:
  std::unique_ptr<BenchmarkDb> db_;
  std::unique_ptr<Optimizer> optimizer_;
  std::unique_ptr<EngineContext> engine_;
  std::vector<BoundTemplate> shapes_;
  std::vector<std::unique_ptr<std::vector<WorkloadInstance>>> instances_;
  std::vector<std::string> keys_;
  std::vector<ServedTemplate> served_;
};

}  // namespace scrpqo
