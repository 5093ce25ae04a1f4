#include "obs/span.h"

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

}  // namespace scrpqo
