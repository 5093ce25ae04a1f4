// Per-thread bump arena backing the allocation-free getPlan hot path.
//
// Scr::TryReuse (and the batch-recost sweep it drives) needs a handful of
// short-lived growable buffers per call — the query's log-selectivities,
// candidate lists, plan-pointer spans, cost outputs. std::vector pays a
// heap round-trip per buffer per call on the hottest path in the system.
// ScratchArena replaces that with chunked bump allocation:
//
//   - ScratchArena::Tls() hands each thread its own arena; no locking.
//   - A Scope marks the arena on entry and rewinds it on exit. Chunks are
//     RETAINED across rewinds, so after the first few calls have grown the
//     arena to the workload's high-water mark, the steady state performs
//     zero heap allocations — allocation is a pointer bump, release is a
//     pointer store.
//   - watermark() returns the total heap bytes the arena has ever
//     reserved. It is monotone; a test that records it after warm-up and
//     asserts it unchanged after N more getPlans has proven the warmed
//     reuse path allocation-free (ScrZeroAllocTest in recost_test.cc
//     does exactly that, alongside a global operator-new counter).
//   - ArenaVec<T> is the growable-span veneer: push_back grows by
//     doubling into a fresh arena span (the old span is abandoned until
//     the enclosing Scope rewinds — bounded by the doubling sum). T must
//     be trivially copyable; contents die with the Scope, so no
//     destructors run.
//
// Scopes nest (inner Scope rewinds first); an ArenaVec must not outlive
// the Scope that was active when it grew. Not thread-safe across threads —
// an arena reference must never escape its owning thread.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/effects.h"

namespace scrpqo {

class ScratchArena {
 public:
  /// Default chunk size; single allocations larger than this get a
  /// dedicated chunk of exactly their size.
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  ScratchArena() = default;
  ScratchArena(const ScratchArena&) = delete;
  ScratchArena& operator=(const ScratchArena&) = delete;

  /// The calling thread's arena (created on first use).
  static ScratchArena& Tls() {
    thread_local ScratchArena arena;
    return arena;
  }

  /// Marks the arena position on construction and rewinds to it on
  /// destruction, retaining chunks for reuse.
  class Scope {
   public:
    explicit Scope(ScratchArena& arena)
        : arena_(arena),
          chunk_(arena.current_),
          used_(arena.chunks_.empty() ? 0
                                      : arena.chunks_[arena.current_].used) {}

    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    ~Scope() {
      for (std::size_t i = chunk_ + 1; i < arena_.chunks_.size(); ++i) {
        arena_.chunks_[i].used = 0;
      }
      if (!arena_.chunks_.empty()) arena_.chunks_[chunk_].used = used_;
      arena_.current_ = chunk_;
    }

   private:
    ScratchArena& arena_;
    std::size_t chunk_;
    std::size_t used_;
  };

  /// Bump-allocates `bytes` aligned to `align` (a power of two). The
  /// memory is uninitialized and valid until the innermost enclosing
  /// Scope rewinds past it.
  void* Allocate(std::size_t bytes, std::size_t align = alignof(double))
      SCRPQO_EFFECT_ALLOW(alloc, "chunk growth is the arena's whole purpose: a warmed arena bump-allocates from retained chunks and only grows on a new high-water mark, so steady-state callers see zero heap traffic") {
    assert((align & (align - 1)) == 0);
    // Offsets are aligned relative to the chunk base, which new char[]
    // guarantees to alignof(std::max_align_t) only.
    assert(align <= alignof(std::max_align_t));
    if (bytes == 0) bytes = 1;
    while (current_ < chunks_.size()) {
      Chunk& c = chunks_[current_];
      std::size_t off = (c.used + align - 1) & ~(align - 1);
      if (off + bytes <= c.size) {
        c.used = off + bytes;
        return c.data.get() + off;
      }
      // Current chunk exhausted; move to the next retained chunk (its
      // used offset was reset by the Scope that released it) or fall
      // through to grow.
      if (current_ + 1 == chunks_.size()) break;
      ++current_;
    }
    std::size_t chunk_size = bytes + align > kChunkBytes
                                 ? bytes + align
                                 : kChunkBytes;
    chunks_.push_back(Chunk{std::make_unique<char[]>(chunk_size),
                            chunk_size, 0});
    watermark_ += static_cast<int64_t>(chunk_size);
    current_ = chunks_.size() - 1;
    // A fresh chunk base is max_align_t-aligned, which covers every align
    // this arena accepts, so the first allocation starts at offset 0.
    Chunk& c = chunks_.back();
    c.used = bytes;
    return c.data.get();
  }

  template <typename T>
  T* AllocateArray(std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "arena arrays never run constructors or destructors");
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

  /// Total heap bytes ever reserved by this arena. Monotone: stable across
  /// a window of calls <=> those calls allocated nothing new.
  int64_t watermark() const { return watermark_; }

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  std::vector<Chunk> chunks_;
  std::size_t current_ = 0;
  int64_t watermark_ = 0;
};

/// Growable span of trivially-copyable T backed by a ScratchArena. The
/// std::vector operations the hot path uses, minus the heap: push_back
/// amortized O(1) via doubling into fresh arena spans, raw-pointer
/// iterators (std::sort-compatible), no element destruction.
template <typename T>
class ArenaVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "ArenaVec elements must be trivially copyable");

 public:
  explicit ArenaVec(ScratchArena& arena, std::size_t initial_capacity = 0)
      : arena_(&arena) {
    if (initial_capacity > 0) {
      data_ = arena_->AllocateArray<T>(initial_capacity);
      capacity_ = initial_capacity;
    }
  }

  ArenaVec(const ArenaVec&) = delete;
  ArenaVec& operator=(const ArenaVec&) = delete;

  void push_back(const T& value) {
    if (size_ == capacity_) Grow(size_ + 1);
    data_[size_++] = value;
  }

  /// Grows (new elements uninitialized) or shrinks the logical size.
  void resize(std::size_t n) {
    if (n > capacity_) Grow(n);
    size_ = n;
  }

  void reserve(std::size_t n) {
    if (n > capacity_) Grow(n);
  }

  void clear() { size_ = 0; }

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T& front() { return data_[0]; }
  const T& front() const { return data_[0]; }
  T& back() { return data_[size_ - 1]; }

  void pop_back() { --size_; }

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  void Grow(std::size_t need) {
    std::size_t cap = capacity_ == 0 ? 8 : capacity_ * 2;
    if (cap < need) cap = need;
    T* fresh = arena_->AllocateArray<T>(cap);
    if (size_ > 0) std::memcpy(fresh, data_, size_ * sizeof(T));
    data_ = fresh;  // old span is reclaimed when the Scope rewinds
    capacity_ = cap;
  }

  ScratchArena* arena_;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace scrpqo
