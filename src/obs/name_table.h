// Process-wide interned names for decision events.
//
// A DecisionEvent names its technique and its template by NameId, a
// 32-bit index into one table that only grows and is never destroyed, so
// the event stays a fixed-size trivially-copyable record and an id stays
// resolvable for as long as any event holding it exists — including
// events still buffered in a tracer ring after the cache that emitted
// them (PqoManager::InvalidateTemplate) is gone.
//
// Interning takes the table lock and may allocate: it runs on cold paths
// only (technique construction, SetScopeLabel, template creation, fault
// hooks, the JSONL parser). Emitters stamp pre-interned ids. Resolving an
// id to its string is lock-free (two acquire loads), so exporters and
// sinks on any thread can format events without coordinating with
// interning threads.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

namespace scrpqo {

class NameId {
 public:
  /// The empty name (id 0), resolving to "".
  constexpr NameId() = default;

  /// Interns `name` (equal strings get equal ids; "" is id 0). Takes the
  /// table lock: cold paths only. Aborts when the table is full, which
  /// takes ~4M distinct names; use TryIntern for untrusted input.
  static NameId Intern(std::string_view name);

  /// Intern for untrusted input (trace parsing): false when the table is
  /// full, leaving `*out` untouched.
  static bool TryIntern(std::string_view name, NameId* out);

  /// The interned string; lock-free, valid for the rest of the process.
  const std::string& str() const;

  bool empty() const { return id_ == 0; }
  uint32_t id() const { return id_; }

  friend bool operator==(NameId a, NameId b) { return a.id_ == b.id_; }

 private:
  explicit constexpr NameId(uint32_t id) : id_(id) {}

  uint32_t id_ = 0;
};

/// Prints the resolved name (test diagnostics).
std::ostream& operator<<(std::ostream& os, NameId name);

}  // namespace scrpqo

template <>
struct std::hash<scrpqo::NameId> {
  size_t operator()(scrpqo::NameId name) const noexcept { return name.id(); }
};
