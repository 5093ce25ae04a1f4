// RAII section timer: on destruction, records the elapsed microseconds
// into a LogHistogram. Constructed with a null histogram it does nothing —
// hot paths pay a branch, not a clock read, when metrics are disabled.
#pragma once

#include <cstdint>

#include "obs/metrics_registry.h"
#include "obs/span.h"

namespace scrpqo {

class ScopedTimer {
 public:
  explicit ScopedTimer(LogHistogram* histogram) : histogram_(histogram) {
    if (histogram_ != nullptr) start_ns_ = ObsClock::NowNs();
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  ~ScopedTimer() { Stop(); }

  /// Records now instead of at scope exit; idempotent.
  void Stop() {
    if (histogram_ == nullptr) return;
    histogram_->Record(
        static_cast<double>((ObsClock::NowNs() - start_ns_) / 1000));
    histogram_ = nullptr;
  }

 private:
  LogHistogram* histogram_;
  int64_t start_ns_ = 0;
};

}  // namespace scrpqo
