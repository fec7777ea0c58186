#include "rtr/plan_cache.hpp"

#include <span>
#include <utility>

#include "sim/check.hpp"

namespace rtr {

std::vector<bitstream::FrameSpan> PlanCache::Plan::runs() const {
  const auto wpf = static_cast<std::size_t>(device->words_per_frame());
  std::vector<bitstream::FrameSpan> out;
  out.reserve(crcs.size());
  for (const bitstream::PayloadCrc& c : crcs) {
    out.push_back(bitstream::FrameSpan{
        c.start, static_cast<int>(c.words / wpf),
        std::span{words}.subspan(c.first, c.words)});
  }
  return out;
}

std::optional<PlanCache::Plan> PlanCache::build_complete(
    const bitlinker::BitLinker& linker, hw::BehaviorId id, int dock_width,
    std::string* error) {
  // Encoded straight from the linked image: the stream is the one copy of
  // the configuration.
  const bitlinker::ComponentDescriptor comp =
      hw::component_for(id, dock_width);
  bitlinker::LinkResult linked;
  const auto image =
      linker.assemble(bitlinker::BitLinker::single(comp), linked);
  if (!image) {
    if (error) *error = linked.errors.front();
    return std::nullopt;
  }
  const fabric::Device& dev = image->device();
  const std::vector<bitstream::FrameSpan> runs =
      bitstream::region_spans(*image, linker.region());
  std::int64_t payload_words = 0;
  for (const bitstream::FrameSpan& r : runs) {
    payload_words += static_cast<std::int64_t>(r.words.size());
  }
  Plan plan{{}, {}, payload_words * 4, static_cast<int>(id), -1,
            linked.stats.payload_hash, &dev};
  plan.words = bitstream::serialize(dev, runs, true, &plan.crcs);
  return plan;
}

PlanCache::Plan PlanCache::build_differential(const Plan& from,
                                              const Plan& to) {
  // Diff the two complete plans frame by frame: they hold the same covered
  // frames in the same scan order, so this equals diffing the two pure
  // post-load states (see the purity argument in the header).
  RTR_CHECK(from.device == to.device, "plans for different devices");
  const bitstream::PartialConfig diff =
      bitstream::PartialConfig::diff(*to.device, from.runs(), to.runs());
  Plan plan{{}, {}, diff.payload_bytes(), to.target, from.target, to.hash,
            to.device};
  plan.words = bitstream::serialize(diff, true, &plan.crcs);
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
