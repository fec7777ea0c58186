#include "fault/fault.hpp"

#include "sim/check.hpp"
#include "sim/kernel.hpp"
#include "sim/parse.hpp"

namespace rtr::fault {

namespace {

using sim::parse_u64;

constexpr const char* kSiteNames[kSiteCount] = {
    "storage", "icap", "dma", "bus", "readback", "fail_stop", "brownout"};

/// Per-spec RNG stream: the seed combined with the site so two specs with
/// the same seed at different sites make independent choices.
sim::Rng spec_rng(const FaultSpec& s) {
  return sim::Rng{s.seed * 0x9E3779B97F4A7C15ULL +
                  static_cast<std::uint64_t>(s.site) + 1};
}

}  // namespace

const char* site_name(Site s) { return kSiteNames[static_cast<int>(s)]; }

bool site_from_name(std::string_view name, Site* out) {
  for (int i = 0; i < kSiteCount; ++i) {
    if (name == kSiteNames[i]) {
      *out = static_cast<Site>(i);
      return true;
    }
  }
  return false;
}

bool FaultSpec::parse(std::string_view text, FaultSpec* out) {
  const std::size_t c1 = text.find(':');
  if (c1 == std::string_view::npos) return false;
  const std::size_t c2 = text.find(':', c1 + 1);
  if (c2 == std::string_view::npos) return false;

  FaultSpec s;
  if (!site_from_name(text.substr(0, c1), &s.site)) return false;

  const std::string_view trig = text.substr(c1 + 1, c2 - c1 - 1);
  if (trig == "rand") {
    s.kind = TriggerKind::kRand;
  } else {
    const std::size_t at = trig.find('@');
    if (at == std::string_view::npos) return false;
    const std::string_view kind = trig.substr(0, at);
    if (kind == "once") {
      s.kind = TriggerKind::kOnce;
    } else if (kind == "every") {
      s.kind = TriggerKind::kEvery;
    } else if (kind == "stuck") {
      s.kind = TriggerKind::kStuck;
    } else {
      return false;
    }
    if (!parse_u64(trig.substr(at + 1), &s.n)) return false;
    if (s.kind == TriggerKind::kEvery && s.n == 0) return false;
  }
  std::string_view tail = text.substr(c2 + 1);
  const std::size_t c3 = tail.find(':');
  if (c3 != std::string_view::npos) {
    std::uint64_t dev = 0;
    if (!parse_u64(tail.substr(c3 + 1), &dev)) return false;
    if (dev > 0x7fffffffULL) return false;
    s.device = static_cast<int>(dev);
    tail = tail.substr(0, c3);
  }
  if (!parse_u64(tail, &s.seed)) return false;
  *out = s;
  return true;
}

std::string FaultSpec::to_string() const {
  std::string t;
  switch (kind) {
    case TriggerKind::kOnce:
      t = "once@" + std::to_string(n);
      break;
    case TriggerKind::kEvery:
      t = "every@" + std::to_string(n);
      break;
    case TriggerKind::kStuck:
      t = "stuck@" + std::to_string(n);
      break;
    case TriggerKind::kRand:
      t = "rand";
      break;
  }
  std::string out =
      std::string(site_name(site)) + ":" + t + ":" + std::to_string(seed);
  if (device >= 0) out.append(":").append(std::to_string(device));
  return out;
}

// ---------------------------------------------------------------------------

FaultInjector::FaultInjector(FaultPlan plan) {
  armed_.reserve(plan.specs().size());
  for (const FaultSpec& s : plan.specs()) {
    Armed a{s, spec_rng(s), true, s.n};
    if (s.kind == TriggerKind::kRand) a.fire_at = a.rng.below(65536);
    if (s.site == Site::kFailStop || s.site == Site::kBrownout) {
      has_device_faults_ = true;
    }
    armed_.push_back(std::move(a));
  }
}

void FaultInjector::bind(sim::Simulation& sim) {
  sim_ = &sim;
  for (int i = 0; i < kSiteCount; ++i) {
    opp_ctr_[i] = &sim.stats().counter("fault.opportunities." +
                                       std::string(kSiteNames[i]));
    inj_ctr_[i] =
        &sim.stats().counter("fault.injected." + std::string(kSiteNames[i]));
  }
}

void FaultInjector::record(Site s, sim::SimTime now) {
  const int i = static_cast<int>(s);
  ++injected_[i];
  if (inj_ctr_[i]) inj_ctr_[i]->add();
  if (!fired_ever_ || now < first_) first_ = now;
  fired_ever_ = true;
  if (sim_ != nullptr) {
    trace::Tracer& tr = sim_->tracer();
    if (tr.enabled()) {
      if (trace_track_ < 0) trace_track_ = tr.track("FAULT");
      tr.instant(trace_track_, std::string("inject:") + site_name(s), now);
    }
  }
}

FaultInjector::Armed* FaultInjector::fire(Site s, sim::SimTime now) {
  const int i = static_cast<int>(s);
  const std::uint64_t index = static_cast<std::uint64_t>(opportunities_[i]++);
  if (opp_ctr_[i]) opp_ctr_[i]->add();
  for (Armed& a : armed_) {
    if (a.spec.site != s || !a.active) continue;
    bool hit = false;
    switch (a.spec.kind) {
      case TriggerKind::kOnce:
      case TriggerKind::kRand:
        hit = index == a.fire_at;
        if (hit) a.active = false;
        break;
      case TriggerKind::kEvery:
        hit = (index + 1) % a.spec.n == 0;
        break;
      case TriggerKind::kStuck:
        hit = index >= a.fire_at;
        break;
    }
    if (hit) {
      record(s, now);
      return &a;
    }
  }
  return nullptr;
}

void FaultInjector::corrupt_staged(std::vector<std::uint32_t>& words,
                                   sim::SimTime now) {
  if (words.empty()) return;
  if (brownout_loads_left_ > 0) {
    // An active brownout burst corrupts one seeded word of this load
    // (attributed to the brownout site, not storage).
    --brownout_loads_left_;
    words[brownout_rng_.below(words.size())] ^=
        1u << brownout_rng_.below(32);
    record(Site::kBrownout, now);
  }
  Armed* a = fire(Site::kConfigStorage, now);
  if (a == nullptr) return;
  std::size_t idx;
  if (a->spec.word >= 0) {
    if (a->spec.word >= static_cast<std::int64_t>(words.size())) {
      // Beyond this stream: the damaged cell is never read. Not an
      // injection -- undo the bookkeeping record() just made.
      --injected_[static_cast<int>(Site::kConfigStorage)];
      if (inj_ctr_[static_cast<int>(Site::kConfigStorage)]) {
        inj_ctr_[static_cast<int>(Site::kConfigStorage)]->add(-1);
      }
      return;
    }
    idx = static_cast<std::size_t>(a->spec.word);
  } else {
    idx = static_cast<std::size_t>(a->rng.below(words.size()));
  }
  const std::uint32_t mask =
      a->spec.mask != 0 ? a->spec.mask : (1u << a->rng.below(32));
  words[idx] ^= mask;
}

std::uint32_t FaultInjector::filter_icap_word(std::uint32_t w,
                                              sim::SimTime now) {
  Armed* a = fire(Site::kIcap, now);
  if (a == nullptr) return w;
  return w ^ (1u << a->rng.below(32));
}

std::uint32_t FaultInjector::filter_readback_word(std::uint32_t w,
                                                  sim::SimTime now) {
  Armed* a = fire(Site::kReadback, now);
  if (a == nullptr) return w;
  return w ^ (1u << a->rng.below(32));
}

void FaultInjector::filter_beats(std::vector<std::uint64_t>& beats,
                                 sim::SimTime now) {
  std::vector<std::uint64_t> out;
  out.reserve(beats.size() + 1);
  bool changed = false;
  for (const std::uint64_t b : beats) {
    Armed* a = fire(Site::kDma, now);
    if (a == nullptr) {
      out.push_back(b);
      continue;
    }
    changed = true;
    if (a->rng.next_bool()) {
      // Dropped beat: the transfer never reaches the destination.
    } else {
      out.push_back(b);  // duplicated beat: delivered twice
      out.push_back(b);
    }
  }
  if (changed) beats.swap(out);
}

BusFault FaultInjector::bus_fault(sim::SimTime now) {
  Armed* a = fire(Site::kBus, now);
  if (a == nullptr) return BusFault::kNone;
  return a->rng.next_bool() ? BusFault::kSlaveError : BusFault::kTimeout;
}

FaultInjector::DispatchFault FaultInjector::on_dispatch(sim::SimTime now) {
  DispatchFault f;
  if (!has_device_faults_) return f;
  if (fire(Site::kFailStop, now) != nullptr) f.fail_stop = true;
  Armed* b = fire(Site::kBrownout, now);
  if (b != nullptr) {
    f.brownout = true;
    brownout_loads_left_ = 1 + b->rng.below(3);
    brownout_rng_ = sim::Rng{b->rng.next_u64()};
  }
  return f;
}

void FaultInjector::repair(Site s) {
  for (Armed& a : armed_) {
    if (a.spec.site == s) a.active = false;
  }
  if (s == Site::kBrownout) brownout_loads_left_ = 0;
}

void FaultInjector::repair_all() {
  for (Armed& a : armed_) a.active = false;
  brownout_loads_left_ = 0;
}

bool FaultInjector::per_transaction_active() const {
  for (const Armed& a : armed_) {
    if (!a.active) continue;
    switch (a.spec.site) {
      case Site::kBus:
      case Site::kIcap:
      case Site::kDma:
      case Site::kReadback:
        return true;
      case Site::kConfigStorage:
      case Site::kFailStop:
      case Site::kBrownout:
        break;
    }
  }
  return false;
}

void FaultInjector::count_quiet(Site s, std::int64_t n) {
  for (const Armed& a : armed_) {
    RTR_CHECK(!a.active || a.spec.site != s,
              "quiet opportunities counted at a site with an active spec");
  }
  const int i = static_cast<int>(s);
  opportunities_[i] += n;
  if (opp_ctr_[i]) opp_ctr_[i]->add(n);
}

std::int64_t FaultInjector::injected_total() const {
  std::int64_t total = 0;
  for (const std::int64_t v : injected_) total += v;
  return total;
}

}  // namespace rtr::fault
