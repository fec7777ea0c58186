#include "rtr/plan_cache.hpp"

#include <utility>

namespace rtr {

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

  const auto comp = hw::component_for(id, dock_width);
  auto linked = linker.link_single(comp);
  if (!linked.ok()) {
    if (error) *error = linked.errors.front();
    return nullptr;
  }
  Plan plan{std::move(*linked.config), {}, linked.stats.payload_bytes};
  plan.words = bitstream::serialize(plan.config);
  return &complete_.emplace(key, std::move(plan)).first->second;
}

const PlanCache::Plan* PlanCache::differential(
    const bitlinker::BitLinker& linker, hw::BehaviorId from, hw::BehaviorId to,
    int dock_width, std::string* error, bool* hit, int area) {
  const DiffKey key{static_cast<int>(from), static_cast<int>(to), dock_width,
                    area};
  if (auto it = diff_.find(key); it != diff_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    if (hit) *hit = true;
    return &it->second.plan;
  }
  if (hit) *hit = false;

  const Plan* from_plan =
      complete(linker, from, dock_width, error, nullptr, area);
  if (from_plan == nullptr) return nullptr;
  const Plan* to_plan = complete(linker, to, dock_width, error, nullptr, area);
  if (to_plan == nullptr) return nullptr;

  // Diff the two complete plans frame by frame: they hold the same covered
  // frames in the same scan order, so this equals diffing the two pure
  // post-load states (see the purity argument in the header).
  Plan plan{bitstream::PartialConfig::diff(from_plan->config, to_plan->config),
            {}, 0};
  plan.payload_bytes = plan.config.payload_bytes();
  plan.words = bitstream::serialize(plan.config);

  if (diff_.size() >= diff_capacity_ && !lru_.empty()) {
    diff_.erase(lru_.back());
    lru_.pop_back();
    ++evictions_;
  }
  lru_.push_front(key);
  auto [it, inserted] =
      diff_.emplace(key, DiffEntry{std::move(plan), lru_.begin()});
  (void)inserted;
  return &it->second.plan;
}

void PlanCache::clear() {
  complete_.clear();
  diff_.clear();
  lru_.clear();
}

}  // namespace rtr
