#include "rtr/plan_cache.hpp"

#include <utility>

namespace rtr {

std::optional<PlanCache::Plan> PlanCache::build_complete(
    const bitlinker::BitLinker& linker, hw::BehaviorId id, int dock_width,
    std::string* error) {
  auto linked = linker.link_single(hw::component_for(id, dock_width));
  if (!linked.ok()) {
    if (error) *error = linked.errors.front();
    return std::nullopt;
  }
  Plan plan{std::move(*linked.config), {}, {}, linked.stats.payload_bytes,
            static_cast<int>(id), -1, linked.stats.payload_hash};
  plan.words = bitstream::serialize(plan.config, true, &plan.crcs);
  return plan;
}

PlanCache::Plan PlanCache::build_differential(const Plan& from,
                                              const Plan& to) {
  // Diff the two complete plans frame by frame: they hold the same covered
  // frames in the same scan order, so this equals diffing the two pure
  // post-load states (see the purity argument in the header).
  Plan plan{bitstream::PartialConfig::diff(from.config, to.config), {}, {}, 0,
            to.target, from.target, to.hash};
  plan.payload_bytes = plan.config.payload_bytes();
  plan.words = bitstream::serialize(plan.config, true, &plan.crcs);
  return plan;
}

const PlanCache::Plan* PlanCache::complete(const bitlinker::BitLinker& linker,
                                           hw::BehaviorId id, int dock_width,
                                           std::string* error, bool* hit,
                                           int area) {
  const CompleteKey key{static_cast<int>(id), dock_width, area};
  if (auto it = complete_.find(key); it != complete_.end()) {
    if (hit) *hit = true;
    return &it->second;
  }
  if (hit) *hit = false;
  if (auto it = failed_.find(key); it != failed_.end()) {
    if (error) *error = it->second;
    return nullptr;
  }

  ++links_;
  std::string why;
  auto plan = build_complete(linker, id, dock_width, &why);
  if (!plan) {
    if (error) *error = why;
    failed_.emplace(key, std::move(why));
    return nullptr;
  }
  return &complete_.emplace(key, std::move(*plan)).first->second;
}

const PlanCache::Plan* PlanCache::differential(
    const bitlinker::BitLinker& linker, hw::BehaviorId from, hw::BehaviorId to,
    int dock_width, std::string* error, bool* hit, int area) {
  const DiffKey key{static_cast<int>(from), static_cast<int>(to), dock_width,
                    area};
  if (auto it = diff_.find(key); it != diff_.end()) {
    if (hit) *hit = true;
    return &it->second;
  }
  if (hit) *hit = false;

  const Plan* from_plan =
      complete(linker, from, dock_width, error, nullptr, area);
  if (from_plan == nullptr) return nullptr;
  const Plan* to_plan = complete(linker, to, dock_width, error, nullptr, area);
  if (to_plan == nullptr) return nullptr;
  return &diff_.emplace(key, build_differential(*from_plan, *to_plan))
              .first->second;
}

void PlanCache::clear() {
  complete_.clear();
  failed_.clear();
  diff_.clear();
}

}  // namespace rtr
