// Ranges (Oracle 11g adaptive cursor sharing, Lee & Zait, PVLDB 2008, as
// modelled in the paper): each stored plan keeps the minimum bounding
// rectangle of the selectivity vectors it was optimal for, expanded by a
// small margin; a new instance falling inside a rectangle reuses that plan
// (paper Table 1). No sub-optimality guarantee.
#pragma once

#include <memory>
#include <sstream>
#include <vector>

#include "pqo/plan_store.h"
#include "pqo/technique.h"

namespace scrpqo {

struct RangesOptions {
  /// Expansion of each MBR side ("near selectivity range" 0.01).
  double margin = 0.01;
  /// Appendix H.6 variant: Recost redundancy check on store when >= 1.
  double recost_redundancy_lambda_r = -1.0;
};

class Ranges : public PqoTechnique {
 public:
  explicit Ranges(RangesOptions options) : options_(options) {}

  std::string name() const override {
    std::ostringstream os;
    os << "Ranges(" << options_.margin << ")";
    if (options_.recost_redundancy_lambda_r >= 1.0) os << "+R";
    return os.str();
  }

  PlanChoice OnInstance(const WorkloadInstance& wi,
                        EngineContext* engine) override;

  int64_t NumPlansCached() const override { return store_.NumLive(); }
  int64_t PeakPlansCached() const override { return store_.Peak(); }

 private:
  struct Box {
    PlanStore::Entry* plan = nullptr;
    SVector lo, hi;

    bool Contains(const SVector& sv, double margin) const;
    double Volume(double margin) const;
    void Extend(const SVector& sv);
  };

  RangesOptions options_;
  PlanStore store_;
  std::vector<Box> boxes_;
};

}  // namespace scrpqo
