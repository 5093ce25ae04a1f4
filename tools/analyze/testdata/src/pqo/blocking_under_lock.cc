// Fixture for the blocking-under-lock rule: no optimizer / sink / I-O call
// while a Mutex or SharedMutex scope is active.

namespace scrpqo_fixture {

struct Mutex {
  void Lock();
  void Unlock();
};
struct MutexLock {
  explicit MutexLock(Mutex&);
};
struct Engine {
  int* Optimize(int);
};
struct Sink {
  void Consume(int);
};

struct Cache {
  Mutex mu_;
  Engine* engine_;
  Sink* sink_;

  void OptimizeUnderScopedLock(int wi) {
    MutexLock lock(mu_);
    engine_->Optimize(wi);  // effects-expect(blocking-under-lock)
  }

  void FanOutUnderManualLock(int batch) {
    mu_.Lock();
    sink_->Consume(batch);  // effects-expect(blocking-under-lock)
    mu_.Unlock();
  }

  void SurvivesNestedScope(int wi) {
    MutexLock lock(mu_);
    if (wi > 0) {
      // A nested block closing must NOT release the guard...
    }
    engine_->Optimize(wi);  // effects-expect(blocking-under-lock)
  }

  void OptimizeOutsideLock(int wi) {
    {
      MutexLock lock(mu_);
      // bookkeeping only
    }
    engine_->Optimize(wi);  // clean: the scope closed above
  }

  void ColdPathByDesign(int wi) {
    MutexLock lock(mu_);
    SCRPQO_EFFECT_ALLOW(blocking-under-lock, "fixture: shutdown path, never concurrent with serving");
    engine_->Optimize(wi);
  }
};

}  // namespace scrpqo_fixture
