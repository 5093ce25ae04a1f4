#include "obs/span.h"

#include <string>

namespace scrpqo {

namespace {
constexpr const char* kStageNames[kNumStages] = {
    "shard_wait", "svector",  "index_probe",  "sel_check",
    "recost",     "optimize", "manage_cache", "batch_recost"};
}  // namespace

const char* StageName(Stage stage) {
  int i = static_cast<int>(stage);
  if (i < 0 || i >= kNumStages) return "unknown";
  return kStageNames[i];
}

StageHistograms StageHistograms::FromRegistry(MetricsRegistry* metrics) {
  StageHistograms out;
  if (metrics == nullptr) return out;
  for (int i = 0; i < kNumStages; ++i) {
    out.h[i] = metrics->histogram(
        std::string("stage.") + kStageNames[i] + "_micros");
  }
  return out;
}

}  // namespace scrpqo
