// Pluggable consumers of the exported decision-event stream.
//
// The RingTracer exporter calls Consume with ordered batches (seq already
// assigned) from a single thread, so sinks only need internal locking when
// they are *read* concurrently (InMemorySink::Snapshot). ObserveDrop is
// invoked alongside the synthesized kRingDropped event whenever the
// exporter detects producer-side loss.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "obs/trace.h"

namespace scrpqo {

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Ordered batch of exported events. Called from the exporter thread
  /// only; never concurrently with itself.
  virtual void Consume(const std::vector<DecisionEvent>& batch) = 0;

  /// Producer-side loss notification (`n` newly dropped events). The
  /// corresponding kRingDropped event is also part of a Consume batch;
  /// this hook exists for sinks that track loss without scanning.
  virtual void ObserveDrop(int64_t n) { (void)n; }

  /// Barrier: all events consumed so far must be durable/visible when
  /// this returns (file sinks flush here).
  virtual Status Flush() { return Status::OK(); }
};

/// Keeps the most recent `capacity` events in memory (oldest overwritten
/// first); the RingTracer's default sink, backing Snapshot().
class InMemorySink : public TraceSink {
 public:
  /// A zero capacity is clamped to one.
  explicit InMemorySink(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  size_t capacity() const { return capacity_; }

  void Consume(const std::vector<DecisionEvent>& batch) override
      EXCLUDES(mu_) {
    MutexLock lock(mu_);
    for (const DecisionEvent& e : batch) {
      if (window_.size() < capacity_) {
        window_.push_back(e);
      } else {
        window_[next_slot_] = e;
      }
      next_slot_ = (next_slot_ + 1) % capacity_;
    }
  }

  /// Retained window, oldest first. Any thread.
  std::vector<DecisionEvent> Snapshot() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    std::vector<DecisionEvent> out;
    out.reserve(window_.size());
    if (window_.size() < capacity_) {
      out = window_;
    } else {
      for (size_t i = 0; i < capacity_; ++i) {
        out.push_back(window_[(next_slot_ + i) % capacity_]);
      }
    }
    return out;
  }

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  std::vector<DecisionEvent> window_ GUARDED_BY(mu_);
  size_t next_slot_ GUARDED_BY(mu_) = 0;
};

/// Streams every exported event to a JSONL file as it arrives (the
/// DecisionEventToJsonl wire format), so the whole trace is written
/// without needing to fit in the retained window.
class JsonlFileSink : public TraceSink {
 public:
  /// Check ok() before attaching; a sink that failed to open consumes
  /// events into the void and reports the error on Flush.
  explicit JsonlFileSink(const std::string& path)
      : path_(path), out_(path, std::ios::trunc) {}

  bool ok() const { return out_.is_open() && out_.good(); }

  void Consume(const std::vector<DecisionEvent>& batch) override {
    if (!out_.is_open()) return;
    for (const DecisionEvent& e : batch) {
      out_ << DecisionEventToJsonl(e) << '\n';
    }
  }

  Status Flush() override {
    if (!out_.is_open()) {
      return Status::InvalidArgument("cannot open trace file: " + path_);
    }
    out_.flush();
    if (!out_.good()) {
      return Status::Internal("short write to trace file: " + path_);
    }
    return Status::OK();
  }

 private:
  const std::string path_;
  std::ofstream out_;
};

}  // namespace scrpqo
