#include "cpu/cache.hpp"

namespace rtr::cpu {

DataCache::DataCache(CacheParams p) : params_(p) {
  RTR_CHECK(p.size_bytes % (p.ways * p.line_bytes) == 0,
            "cache geometry does not divide evenly");
  sets_ = p.size_bytes / (p.ways * p.line_bytes);
  lines_.resize(static_cast<std::size_t>(sets_) * p.ways);
}

DataCache::Line* DataCache::find(bus::Addr a) {
  const int set = set_of(a);
  const bus::Addr tag = line_of(a);
  for (int w = 0; w < params_.ways; ++w) {
    Line& l = lines_[static_cast<std::size_t>(set * params_.ways + w)];
    if (l.valid && l.tag == tag) return &l;
  }
  return nullptr;
}

DataCache::Line& DataCache::victim(bus::Addr a) {
  const int set = set_of(a);
  Line* best = nullptr;
  for (int w = 0; w < params_.ways; ++w) {
    Line& l = lines_[static_cast<std::size_t>(set * params_.ways + w)];
    if (!l.valid) return l;
    if (!best || l.lru < best->lru) best = &l;
  }
  return *best;
}

DataCache::AccessResult DataCache::load(bus::Addr addr) {
  AccessResult r;
  if (Line* l = find(addr)) {
    l->lru = ++tick_;
    ++hits_;
    r.hit = true;
    return r;
  }
  ++misses_;
  Line& v = victim(addr);
  if (v.valid && v.dirty) {
    r.writeback = true;
    r.victim_line = v.tag;
  }
  v.valid = true;
  v.dirty = false;
  v.tag = line_of(addr);
  v.lru = ++tick_;
  r.fill = true;
  return r;
}

DataCache::AccessResult DataCache::store(bus::Addr addr) {
  AccessResult r;
  if (Line* l = find(addr)) {
    l->lru = ++tick_;
    l->dirty = true;
    ++hits_;
    r.hit = true;
    return r;
  }
  ++misses_;  // store miss: pass-through, no allocation
  return r;
}

std::vector<bus::Addr> DataCache::flush_all() {
  std::vector<bus::Addr> dirty;
  for (Line& l : lines_) {
    if (l.valid && l.dirty) dirty.push_back(l.tag);
    l.valid = false;
    l.dirty = false;
  }
  return dirty;
}

std::vector<bus::Addr> DataCache::flush_range(bus::Addr addr,
                                              std::uint64_t len) {
  std::vector<bus::Addr> dirty;
  if (len == 0) return dirty;
  const bus::Addr first = line_of(addr);
  const bus::Addr last = line_of(addr + len - 1);
  for (bus::Addr line = first; line <= last;
       line += static_cast<bus::Addr>(params_.line_bytes)) {
    if (Line* l = find(line)) {
      if (l->dirty) dirty.push_back(l->tag);
      l->valid = false;
      l->dirty = false;
    }
  }
  return dirty;
}

}  // namespace rtr::cpu
