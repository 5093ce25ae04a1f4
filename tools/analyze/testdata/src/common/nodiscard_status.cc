// Fixture for the nodiscard-status rule: error-carrying types in
// src/common/ must be [[nodiscard]].

namespace scrpqo_fixture {

class Status {  // effects-expect(nodiscard-status)
 public:
  bool ok() const { return true; }
};

template <typename T>
// effects-expect(nodiscard-status)
struct Result {
  T value;
};

class [[nodiscard]] StatusGood {
 public:
  bool ok() const { return true; }
};

// Forward declarations are not definitions: clean.
class StatusFwd;

SCRPQO_EFFECT_ALLOW(nodiscard-status, "fixture: a deliberate fire-and-forget status type")
struct Status final {
  int code = 0;
};

}  // namespace scrpqo_fixture
