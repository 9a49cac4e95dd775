// Instance registry of the matching service (DESIGN.md §9): register an
// instance once, serve matching requests against it many times.
//
// Entries are heap-allocated and never removed, so the pointer a lookup
// returns stays valid for the store's lifetime — submit() resolves each
// request to a `const StoredInstance*` exactly once, and executing cells
// only ever read through those pointers. The map itself has one writer
// and one reader, the thread driving the MatchService, so it takes no
// lock.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>

#include "stable/instance.hpp"
#include "svc/digest.hpp"

namespace dasm::svc {

/// A registered instance plus its precomputed cache-key half.
struct StoredInstance {
  StoredInstance(std::string name_, Instance instance_, std::uint64_t digest_)
      : name(std::move(name_)),
        instance(std::move(instance_)),
        digest(digest_) {}

  std::string name;
  Instance instance;
  std::uint64_t digest;  ///< digest_instance(instance), fixed at add()
};

class InstanceStore {
 public:
  InstanceStore() = default;

  InstanceStore(const InstanceStore&) = delete;
  InstanceStore& operator=(const InstanceStore&) = delete;

  /// Registers `inst` under `name` (register-once: a duplicate name is a
  /// CheckError, not a silent overwrite) and returns the stored entry.
  const StoredInstance& add(std::string name, Instance inst);

  /// The entry registered under `name`, or nullptr.
  const StoredInstance* find(const std::string& name) const;

  std::int64_t size() const { return static_cast<std::int64_t>(map_.size()); }

 private:
  std::unordered_map<std::string, std::unique_ptr<StoredInstance>> map_;
};

}  // namespace dasm::svc
