#include "sim/engine.hpp"

#include <algorithm>

namespace oda::sim {

void KnobRegistry::add(KnobDef knob) {
  ODA_REQUIRE(!contains(knob.path), "duplicate knob path: " + knob.path);
  index_.emplace(knob.path, knobs_.size());
  knobs_.push_back(std::move(knob));
}

void KnobRegistry::add_all(KnobProvider& provider) {
  std::vector<KnobDef> defs;
  provider.enumerate_knobs(defs);
  for (auto& d : defs) add(std::move(d));
}

bool KnobRegistry::contains(const std::string& path) const {
  return index_.count(path) != 0;
}

std::vector<std::string> KnobRegistry::paths() const {
  std::vector<std::string> out;
  out.reserve(knobs_.size());
  for (const auto& k : knobs_) out.push_back(k.path);
  return out;
}

std::size_t KnobRegistry::index_of(const std::string& path) const {
  const auto it = index_.find(path);
  if (it == index_.end()) throw ContractError("unknown knob: " + path);
  return it->second;
}

const KnobDef& KnobRegistry::at(const std::string& path) const {
  return knobs_[index_of(path)];
}

const KnobDef& KnobRegistry::at(std::size_t index) const {
  ODA_REQUIRE(index < knobs_.size(),
              "knob index " + std::to_string(index) + " out of range");
  return knobs_[index];
}

double KnobRegistry::get(const std::string& path) const { return at(path).get(); }

void KnobRegistry::set(const std::string& path, double value) {
  const KnobDef& k = at(path);
  k.set(std::clamp(value, k.min_value, k.max_value));
}

}  // namespace oda::sim
