#include "obs/name_table.h"

#include <atomic>
#include <deque>
#include <ostream>
#include <unordered_map>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace scrpqo {

namespace {

/// Names live in fixed-size chunks published through a fixed directory,
/// so a reader indexes two arrays and never sees storage move.
constexpr uint32_t kChunkBits = 10;
constexpr uint32_t kChunkSize = uint32_t{1} << kChunkBits;
constexpr uint32_t kMaxChunks = 4096;

struct Chunk {
  std::atomic<const std::string*> names[kChunkSize] = {};
};

class NameTable {
 public:
  NameTable() {
    // Id 0 is the empty name; slot 0 is published up front so the
    // default NameId resolves without any interning. (Not yet shared;
    // the lock keeps the guarded writes provable.)
    MutexLock lock(mu_);
    names_.emplace_back();
    ids_.emplace(std::string_view(names_.front()), 0);
    auto* first = new Chunk();
    first->names[0].store(&names_.front(), std::memory_order_relaxed);
    chunks_[0].store(first, std::memory_order_release);
  }

  /// Leaked on purpose: ids must resolve until the very end of the
  /// process, including from static destructors that flush trace sinks.
  static NameTable& Get() {
    static NameTable* table = new NameTable();
    return *table;
  }

  bool Intern(std::string_view name, uint32_t* id) EXCLUDES(mu_) {
    MutexLock lock(mu_);
    auto it = ids_.find(name);
    if (it != ids_.end()) {
      *id = it->second;
      return true;
    }
    const uint32_t next = static_cast<uint32_t>(names_.size());
    const uint32_t chunk = next >> kChunkBits;
    if (chunk >= kMaxChunks) return false;
    Chunk* c = chunks_[chunk].load(std::memory_order_relaxed);
    if (c == nullptr) {
      c = new Chunk();
      chunks_[chunk].store(c, std::memory_order_release);
    }
    // std::deque never relocates existing elements on push_back, so the
    // published pointer (and the map's view into it) stays valid.
    const std::string& stored = names_.emplace_back(name);
    ids_.emplace(std::string_view(stored), next);
    c->names[next & (kChunkSize - 1)].store(&stored,
                                            std::memory_order_release);
    *id = next;
    return true;
  }

  const std::string& Resolve(uint32_t id) const {
    const uint32_t chunk = id >> kChunkBits;
    if (chunk < kMaxChunks) {
      if (const Chunk* c = chunks_[chunk].load(std::memory_order_acquire)) {
        if (const std::string* s = c->names[id & (kChunkSize - 1)].load(
                std::memory_order_acquire)) {
          return *s;
        }
      }
    }
    // Unreachable for ids produced by Intern; the empty name is the
    // harmless answer for anything else.
    return *chunks_[0].load(std::memory_order_acquire)->names[0].load(
        std::memory_order_acquire);
  }

 private:
  Mutex mu_;
  std::deque<std::string> names_ GUARDED_BY(mu_);
  std::unordered_map<std::string_view, uint32_t> ids_ GUARDED_BY(mu_);
  std::atomic<Chunk*> chunks_[kMaxChunks] = {};
};

}  // namespace

NameId NameId::Intern(std::string_view name) {
  NameId out;
  SCRPQO_CHECK(TryIntern(name, &out), "name table full");
  return out;
}

bool NameId::TryIntern(std::string_view name, NameId* out) {
  if (name.empty()) {
    *out = NameId();
    return true;
  }
  uint32_t id = 0;
  if (!NameTable::Get().Intern(name, &id)) return false;
  *out = NameId(id);
  return true;
}

const std::string& NameId::str() const {
  return NameTable::Get().Resolve(id_);
}

std::ostream& operator<<(std::ostream& os, NameId name) {
  return os << name.str();
}

}  // namespace scrpqo
