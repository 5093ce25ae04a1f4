// Fixture: SCRPQO_NOALLOC — one seeded transitive violation (the root
// never allocates directly; its callee does), direct allocations in a
// root beside names that only contain "new", owning containers
// constructed with contents next to forms that allocate nothing, and one
// sanctioned function-scope SCRPQO_EFFECT_ALLOW(alloc) that must stay
// silent.
// Fixtures are parsed, never compiled, so the effect macros are spelled
// bare (the analyzer greps for the tokens).

namespace fx {

struct Helper {
  void Grow() {
    data_ = new double[8];  // effects-expect(alloc)
  }

  void Bump()
      SCRPQO_EFFECT_ALLOW(alloc, "fixture: amortized chunk growth, pinned by a watermark test") {
    slots_ = new int[4];
  }

  double* data_;
  int* slots_;
};

SCRPQO_NOALLOC
void HotAlloc(Helper& h) {
  h.Grow();
}

SCRPQO_NOALLOC
void HotAllowed(Helper& h) {
  h.Bump();
}

struct Plan {
  int id;
};

SCRPQO_NOALLOC
int HotDirect(int n) {
  int* raw = new int[8];  // effects-expect(alloc)
  auto owned = std::make_unique<Plan>();  // effects-expect(alloc)
  auto shared = std::make_shared<Plan>();  // effects-expect(alloc)
  double new_cost = 1.0;
  int renewed = n;
  // A comment mentioning std::vector<int> v(4); or new Plan is not code.
  return raw[0] + owned->id + shared->id + renewed + static_cast<int>(new_cost);
}

std::vector<int> MakeList();

SCRPQO_NOALLOC
int HotConstructed(int n, const std::vector<int>& in) {
  std::vector<int> planted(4);  // effects-expect(alloc)
  std::vector<double> filled(n, 0.5);  // effects-expect(alloc)
  std::vector<int> listed{1, 2, 3};  // effects-expect(alloc)
  std::vector<int> copied = in;  // effects-expect(alloc)
  std::string label = "template";  // effects-expect(alloc)
  int total = std::vector<int>(8).size();  // effects-expect(alloc)
  std::vector<int> empty;
  std::vector<int> braced{};
  std::vector<int> assigned = {};
  std::vector<int> made = MakeList();
  std::vector<int> moved(std::move(copied));
  const std::vector<int>& view = in;
  std::vector<int>::const_iterator it = in.begin();
  auto none = []() -> std::vector<int> { return {}; };
  return total + static_cast<int>(view.size() + empty.size());
}

}  // namespace fx
