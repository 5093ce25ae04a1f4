// Fixture for the atomic-order rule: default-seq_cst atomic operations in
// the serving layers must name their memory order.
#include <atomic>

namespace scrpqo_fixture {

struct Stats {
  std::atomic<long> hits{0};
  std::atomic<bool> enabled{false};
};

long ReadBare(Stats& s) {
  return s.hits.load();  // effects-expect(atomic-order)
}

void WriteBare(Stats& s) {
  s.enabled.store(true);  // effects-expect(atomic-order)
}

long ReadExplicit(Stats& s) {
  // Explicit order: clean.
  return s.hits.load(std::memory_order_relaxed);
}

void MultiLineExplicit(Stats& s) {
  // The order is on the continuation line; the checker must scan the full
  // argument list before deciding.
  s.hits.store(7,
               std::memory_order_relaxed);
}

long SeqCstOnPurpose(Stats& s) {
  SCRPQO_EFFECT_ALLOW(atomic-order, "fixture: deliberate seq_cst publication fence");
  return s.hits.fetch_add(1);
}

}  // namespace scrpqo_fixture
