// Fixture: a worker loop's early return. Pairing a hand-managed Lock() with
// the next Unlock() in line order lets the early-return Unlock() end the
// scope, so a blocking call after it looks unlocked although the lock is
// still held there. Manual lock calls are therefore raw-mutex findings,
// and the same loop written with scoped guards is checked in full.

namespace scrpqo_fixture {

struct Mutex {
  void Lock();
  void Unlock();
};
struct MutexLock {
  explicit MutexLock(Mutex&);
};
struct CondVar {
  void Wait(Mutex&);
};
struct Sink {
  void Consume(int);
};

struct Worker {
  Mutex queue_mu_;
  CondVar work_available_;
  Sink* sink_;
  bool shutting_down_;
  int pending_;

  void HandOverHandLoop() {
    queue_mu_.Lock();  // effects-expect(raw-mutex)
    for (;;) {
      while (!shutting_down_ && pending_ == 0) {
        work_available_.Wait(queue_mu_);
      }
      if (pending_ == 0) {
        queue_mu_.Unlock();  // effects-expect(raw-mutex)
        return;
      }
      sink_->Consume(pending_);  // queue_mu_ is still held here
      --pending_;
      queue_mu_.Unlock();  // effects-expect(raw-mutex)
      queue_mu_.Lock();  // effects-expect(raw-mutex)
    }
  }

  void ScopedLoop() {
    for (;;) {
      MutexLock lock(queue_mu_);
      while (!shutting_down_ && pending_ == 0) {
        work_available_.Wait(queue_mu_);
      }
      if (pending_ == 0) return;
      sink_->Consume(pending_);  // effects-expect(blocking-under-lock)
      --pending_;
    }
  }
};

}  // namespace scrpqo_fixture
