// Fixture: a class named after an attribute group. `class [[nodiscard]]
// Verdict` must get a member table and method entries like any class, so
// the allocation behind `v.ok()` is reported from the NOALLOC root.

namespace fx {

class [[nodiscard]] Verdict {
 public:
  bool ok() const {
    std::vector<int> planted(2);  // effects-expect(alloc)
    return planted.empty();
  }
};

SCRPQO_NOALLOC
bool Accept(const Verdict& v) {
  return v.ok();
}

}  // namespace fx
