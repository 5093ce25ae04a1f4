// Fixture: `std::atomic<Pointee*>` is a std type. Its load/store are std
// calls, so they must not resolve to the pointee's own `load`, which
// allocates: the NOALLOC root stays clean.

namespace fx {

class Pointee {
 public:
  int load(int order) {
    std::vector<int> planted(order);
    return static_cast<int>(planted.size());
  }
};

class Holder {
 public:
  SCRPQO_NOALLOC
  Pointee* Current() { return current_.load(std::memory_order_acquire); }

 private:
  std::atomic<Pointee*> current_{nullptr};
};

}  // namespace fx
