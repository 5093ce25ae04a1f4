#include "tests/multi_template.h"

#include <thread>

#include "workload/instance_gen.h"
#include "workload/schemas.h"

namespace scrpqo {

MultiTemplateRunResult RunMultiTemplate(
    PqoManager* manager, const std::vector<ServedTemplate>& templates,
    const MultiTemplateRunOptions& options) {
  MultiTemplateRunResult result;
  if (templates.empty()) return result;
  const int threads = options.threads < 1 ? 1 : options.threads;

  std::vector<MultiTemplateRunResult> totals(static_cast<size_t>(threads));
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      MultiTemplateRunResult& mine = totals[static_cast<size_t>(t)];
      for (int round = 0; round < options.rounds; ++round) {
        for (size_t i = static_cast<size_t>(t); i < templates.size();
             i += static_cast<size_t>(threads)) {
          const ServedTemplate& st = templates[i];
          for (const WorkloadInstance& wi : *st.instances) {
            PlanChoice choice = manager->OnInstance(st.key, wi, st.engine);
            ++mine.instances_served;
            if (choice.plan == nullptr) ++mine.lost;
          }
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (const MultiTemplateRunResult& mine : totals) {
    result.instances_served += mine.instances_served;
    result.lost += mine.lost;
  }

  manager->FlushAll();
  result.plans_cached = manager->TotalPlansCached();
  result.global_evictions = manager->global_evictions();
  return result;
}

TemplateFleet::TemplateFleet(int num_templates, int instances_per_template,
                             uint64_t seed, std::vector<int> dims) {
  SchemaScale scale;
  db_ = std::make_unique<BenchmarkDb>(BuildRd2(scale));
  optimizer_ = std::make_unique<Optimizer>(&db_->db);
  engine_ = std::make_unique<EngineContext>(&db_->db, optimizer_.get());
  if (dims.empty()) dims.push_back(2);
  for (int d : dims) {
    shapes_.push_back(BuildRd2TemplateWithDimensions(*db_, d));
  }
  keys_.reserve(static_cast<size_t>(num_templates));
  for (int i = 0; i < num_templates; ++i) {
    const size_t shape = static_cast<size_t>(i) % shapes_.size();
    const int d = dims[shape];
    keys_.push_back("rd2_t" + std::to_string(i) + "_d" + std::to_string(d));
    InstanceGenOptions gen;
    gen.m = instances_per_template;
    gen.seed = seed + static_cast<uint64_t>(i) * 131;
    instances_.push_back(std::make_unique<std::vector<WorkloadInstance>>(
        GenerateInstances(shapes_[shape], gen)));
  }
  // Build the views last: `keys_`/`instances_` no longer reallocate.
  for (int i = 0; i < num_templates; ++i) {
    ServedTemplate st;
    st.key = keys_[static_cast<size_t>(i)];
    st.engine = engine_.get();
    st.instances = instances_[static_cast<size_t>(i)].get();
    served_.push_back(st);
  }
}

}  // namespace scrpqo
