#include "svc/instance_store.hpp"

#include "util/check.hpp"

namespace dasm::svc {

const StoredInstance& InstanceStore::add(std::string name, Instance inst) {
  const std::uint64_t digest = digest_instance(inst);
  auto entry =
      std::make_unique<StoredInstance>(name, std::move(inst), digest);
  const auto [it, inserted] = map_.emplace(std::move(name), std::move(entry));
  DASM_CHECK_MSG(inserted,
                 "instance '" << it->first << "' is already registered");
  return *it->second;
}

const StoredInstance* InstanceStore::find(const std::string& name) const {
  const auto it = map_.find(name);
  return it == map_.end() ? nullptr : it->second.get();
}

}  // namespace dasm::svc
