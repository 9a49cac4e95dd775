// Response cache of the matching service (DESIGN.md §9).
//
// Keyed on CacheKey = (instance digest, run-parameter digest); the stored
// payload is a full Response minus the arrival id and the instance name,
// so a hit reproduces the cold run's response line byte for byte once the
// id and the requesting instance's name are stamped back on. Two
// instances with the same contents share a key, so a name kept in the
// entry would answer one client with another's instance name.
// Entries never expire — a protocol run is a pure function of its key, so
// there is nothing to invalidate; memory is bounded by the number of
// distinct (instance, params) points a workload visits.
//
// Only the thread driving the MatchService looks up and inserts (batch
// planning and commit), so the map takes no lock.
#pragma once

#include <unordered_map>

#include "svc/request.hpp"

namespace dasm::svc {

class ResultCache {
 public:
  ResultCache() = default;

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Copies the cached payload for `key` into *out (its `id` is left as
  /// cached — callers re-stamp it) and returns true, or returns false on
  /// a miss.
  bool lookup(const CacheKey& key, Response* out) const {
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    *out = it->second;
    return true;
  }

  /// Inserts the payload for `key`. Re-inserting an existing key keeps
  /// the first payload (runs are deterministic, so both are identical).
  void insert(const CacheKey& key, const Response& response) {
    map_.emplace(key, response);
  }

  std::int64_t size() const { return static_cast<std::int64_t>(map_.size()); }

 private:
  std::unordered_map<CacheKey, Response, CacheKeyHash> map_;
};

}  // namespace dasm::svc
