// Fixture for the raw-mutex rule: raw std synchronization primitives are
// invisible to the thread-safety analysis and banned outside
// common/thread_annotations.h.
#include <mutex>
#include <shared_mutex>

namespace scrpqo_fixture {

struct Registry {
  std::mutex mu_;  // effects-expect(raw-mutex)
  std::shared_mutex rw_mu_;  // effects-expect(raw-mutex)

  void Touch() {
    std::lock_guard<std::mutex> lock(mu_);  // effects-expect(raw-mutex)
  }

  SCRPQO_EFFECT_ALLOW(raw-mutex, "fixture: a third-party API hands us a std::unique_lock at the boundary")
  void Adopt(std::unique_lock<std::mutex> external);
};

// Mentioning the banned names in comments is fine: std::mutex,
// std::condition_variable. The checker reads comment-stripped code.

}  // namespace scrpqo_fixture
