// Fixture for blocking-under-lock through the call graph: a call made
// while a lock scope is active is a finding when its callee reaches a
// `block` effect or EngineContext::Optimize, however deep. A condition-
// variable wait on the held mutex is how a waiter releases it, so it stays
// silent; reached through a call made under another lock, it blocks that
// lock's holders.

namespace scrpqo_fixture {

class Backoff {
 public:
  void Pause() { Nap(); }
  void Nap() { std::this_thread::sleep_for(delay_); }

 private:
  int delay_;
};

class EngineContext {
 public:
  int Optimize(int wi) { return wi; }
};

class Server {
 public:
  void Serve() {
    MutexLock lock(mu_);
    backoff_.Pause();  // effects-expect(blocking-under-lock)
  }

  void ServeUnlocked() {
    {
      MutexLock lock(mu_);
      ++served_;
    }
    backoff_.Pause();  // clean: the scope closed above
  }

  int Miss(int wi) { return engine_->Optimize(wi) + 1; }

  int MissUnderLock(int wi) {
    ReaderMutexLock lock(cache_mu_);
    return Miss(wi);  // effects-expect(blocking-under-lock)
  }

  void WaitIdle() {
    MutexLock lock(mu_);
    while (busy_) idle_.Wait(mu_);  // clean: waits on the held mutex
  }

  void DrainUnderLock() {
    MutexLock lock(other_mu_);
    WaitIdle();  // effects-expect(blocking-under-lock)
  }

  void WaitOnTheWrongMutex() {
    MutexLock lock(other_mu_);
    while (busy_) idle_.Wait(mu_);  // effects-expect(blocking-under-lock)
  }

 private:
  Mutex mu_;
  Mutex other_mu_;
  SharedMutex cache_mu_;
  CondVar idle_;
  Backoff backoff_;
  EngineContext* engine_;
  bool busy_;
  int served_;
};

}  // namespace scrpqo_fixture
