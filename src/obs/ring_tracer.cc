#include "obs/ring_tracer.h"

#include <chrono>
#include <utility>

#include "common/effects.h"

namespace scrpqo {

namespace {

/// Process-unique tracer ids. Ids, not addresses, key the thread-local
/// handles: a destroyed tracer's storage can be reused by a new one, and
/// an address-keyed handle would then push onto the wrong rings.
std::atomic<uint64_t> g_next_tracer_id{1};

/// A thread's registered rings, one handle per live tracer it has
/// recorded against (almost always exactly one, so Record's lookup is a
/// one-element scan). Shared ownership keeps the ring storage valid even
/// if the tracer is destroyed while this thread still holds a handle.
struct RingHandle {
  uint64_t tracer_id;
  std::shared_ptr<void> ring_owner;
  SpscEventRing* ring;
  std::shared_ptr<std::atomic<bool>> retired;
};

thread_local std::vector<RingHandle> t_ring_handles;

RingTracer::Options LosslessOptions(size_t capacity) {
  RingTracer::Options options;
  options.ring_capacity = capacity;
  options.window_capacity = capacity;
  return options;
}

}  // namespace

RingTracer::RingTracer() : RingTracer(Options()) {}

RingTracer::RingTracer(size_t capacity)
    : RingTracer(LosslessOptions(capacity)) {}

RingTracer::RingTracer(Options options)
    : options_(options),
      tracer_id_(g_next_tracer_id.fetch_add(1, std::memory_order_relaxed)),
      loss_name_(NameId::Intern("ring-tracer")),
      retired_(std::make_shared<std::atomic<bool>>(false)),
      window_(std::make_shared<InMemorySink>(options.window_capacity)) {
  {
    // Not yet shared, but locking keeps the guarded sinks_ write provable
    // without an analysis escape.
    MutexLock lock(export_mu_);
    sinks_.push_back(window_);
  }
  exporter_ = std::thread([this] { ExporterLoop(); });
}

RingTracer::~RingTracer() {
  {
    MutexLock lock(stop_mu_);
    stopping_ = true;
  }
  stop_cv_.NotifyAll();
  if (exporter_.joinable()) exporter_.join();
  // Final drain: producers must be quiesced by now (standard tracer
  // lifetime contract — techniques are detached before the tracer dies).
  {
    MutexLock lock(export_mu_);
    DrainLocked();
  }
  retired_->store(true, std::memory_order_release);
  for (RingNode* n = rings_.load(std::memory_order_acquire); n != nullptr;) {
    RingNode* next = n->next;
    delete n;
    n = next;
  }
}

SpscEventRing* RingTracer::RegisterThisThread()
    SCRPQO_EFFECT_ALLOW(alloc, "once per thread per tracer: the first Record on a thread allocates its ring and TLS handle; every later Record is a TLS scan plus a wait-free push") {
  auto ring = std::make_shared<ThreadRing>(options_.ring_capacity);
  auto* node = new RingNode{ring, rings_.load(std::memory_order_relaxed)};
  while (!rings_.compare_exchange_weak(node->next, node,
                                       std::memory_order_release,
                                       std::memory_order_relaxed)) {
  }
  // Prune handles of retired tracers while we're here so long-lived
  // worker threads don't accumulate dead entries.
  for (size_t i = 0; i < t_ring_handles.size();) {
    if (t_ring_handles[i].retired->load(std::memory_order_acquire)) {
      t_ring_handles[i] = std::move(t_ring_handles.back());
      t_ring_handles.pop_back();
    } else {
      ++i;
    }
  }
  t_ring_handles.push_back(
      RingHandle{tracer_id_, ring, &ring->ring, retired_});
  return &ring->ring;
}

SCRPQO_HOT SCRPQO_NOALLOC SCRPQO_NONBLOCKING SCRPQO_LOCK_BOUNDED()
void RingTracer::Record(const DecisionEvent& event) {
  for (const RingHandle& h : t_ring_handles) {
    if (h.tracer_id == tracer_id_) {
      h.ring->TryPush(event);
      return;
    }
  }
  RegisterThisThread()->TryPush(event);
}

void RingTracer::DrainLocked() {
  std::vector<DecisionEvent>& batch = batch_scratch_;
  batch.clear();
  int64_t new_drops = 0;
  for (RingNode* n = rings_.load(std::memory_order_acquire); n != nullptr;
       n = n->next) {
    ThreadRing& tr = *n->ring;
    tr.ring.DrainInto(&batch);
    // Read drops only after the drain: a drop observed here happened
    // before events we just pulled at the latest, so the synthesized
    // loss event never claims events that are still buffered.
    int64_t drops = tr.ring.dropped();
    if (drops > tr.drops_seen) {
      new_drops += drops - tr.drops_seen;
      tr.drops_seen = drops;
    }
  }
  if (new_drops > 0) {
    DecisionEvent loss;
    loss.outcome = DecisionOutcome::kRingDropped;
    loss.technique = loss_name_;
    loss.dropped = new_drops;
    batch.push_back(loss);
    dropped_total_.fetch_add(new_drops, std::memory_order_relaxed);
  }
  if (batch.empty()) return;
  for (DecisionEvent& e : batch) {
    e.seq = next_seq_++;
  }
  exported_total_.fetch_add(static_cast<int64_t>(batch.size()),
                            std::memory_order_relaxed);
  for (const std::shared_ptr<TraceSink>& sink : sinks_) {
    sink->Consume(batch);
    if (new_drops > 0) sink->ObserveDrop(new_drops);
  }
}

void RingTracer::ExporterLoop() {
  // stop_mu_ is held only across the stop check and the timed wait, and
  // released for the drain so ~RingTracer's stop request never waits
  // behind an in-flight drain round.
  for (;;) {
    {
      MutexLock lock(stop_mu_);
      if (stopping_) return;
      stop_cv_.WaitFor(
          stop_mu_, std::chrono::microseconds(options_.drain_interval_micros));
    }
    MutexLock lock(export_mu_);
    DrainLocked();
  }
}

int64_t RingTracer::total_recorded() const {
  return exported_total_.load(std::memory_order_relaxed);
}

int64_t RingTracer::dropped() const {
  return dropped_total_.load(std::memory_order_relaxed);
}

std::vector<DecisionEvent> RingTracer::Snapshot() {
  {
    MutexLock lock(export_mu_);
    DrainLocked();
  }
  return window_->Snapshot();
}

void RingTracer::AddSink(std::shared_ptr<TraceSink> sink) {
  MutexLock lock(export_mu_);
  sinks_.push_back(std::move(sink));
}

Status RingTracer::Flush() {
  MutexLock lock(export_mu_);
  DrainLocked();
  for (const std::shared_ptr<TraceSink>& sink : sinks_) {
    Status s = sink->Flush();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace scrpqo
