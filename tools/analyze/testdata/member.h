// Fixture: the class tables the roots in member.cc need; see there.

namespace fx {

class Inner {
 public:
  bool Reuse(int q) {
    std::vector<int> planted(4);  // effects-expect(alloc)
    return q > static_cast<int>(planted.size());
  }

  void Drain() {
    pending_ = new int[2];  // effects-expect(alloc)
  }

 private:
  int* pending_;
};

class Front {
 public:
  bool ReuseFast(int q);

  SharedMutex cache_mu_;
  Inner inner_ GUARDED_BY(cache_mu_);
};

}  // namespace fx
