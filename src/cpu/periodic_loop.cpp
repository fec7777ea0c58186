#include "cpu/periodic_loop.hpp"

#include <algorithm>

#include "fault/fault.hpp"
#include "sim/check.hpp"

namespace rtr::cpu {

using bus::AddressRange;
using sim::SimTime;

namespace {
/// The fault sites a loop iteration reaches: every single-beat bus
/// transaction, every HWICAP data-register write and every readback word
/// it pops.
constexpr std::array<fault::Site, 3> kLoopFaultSites = {
    fault::Site::kBus, fault::Site::kIcap, fault::Site::kReadback};
}  // namespace

IterationStats::IterationStats(
    const Ppc405& cpu, std::span<bus::Bus* const> buses,
    std::span<const bus::PlbOpbBridge* const> bridges,
    fault::FaultInjector* faults)
    : faults_(faults) {
  const auto count = [&](sim::Counter& c) {
    counters_.emplace_back(&c, c.value());
  };
  for (const bus::Bus* b : buses) {
    const bus::Bus::Stats& bs = b->stats();
    count(*bs.transactions);
    count(*bs.beats);
    busy_.emplace_back(bs.busy, bs.busy->total());
    // One copy of the latency histogram, straight into its slot.
    hists_.emplace_back(bs.latency, *bs.latency);
  }
  for (const bus::PlbOpbBridge* br : bridges) {
    count(br->crossings());
    count(br->beat_splits());
  }
  count(cpu.loads());
  count(cpu.stores());
  if (faults_ != nullptr) {
    for (std::size_t i = 0; i < kLoopFaultSites.size(); ++i) {
      opportunities_[i] = faults_->opportunities(kLoopFaultSites[i]);
    }
  }
}

void IterationStats::repeat(std::int64_t m) {
  for (auto& [c, before] : counters_) c->add(m * (c->value() - before));
  for (auto& [b, before] : busy_) {
    b->add(SimTime::zero(), (b->total() - before) * m);
  }
  for (auto& [h, before] : hists_) h->add_repeat(before, m);
  if (faults_ != nullptr) {
    for (std::size_t i = 0; i < kLoopFaultSites.size(); ++i) {
      const fault::Site site = kLoopFaultSites[i];
      faults_->count_quiet(
          site, m * (faults_->opportunities(site) - opportunities_[i]));
    }
  }
}

PeriodicReplay::PeriodicReplay(Kernel& k, const PeriodicLoop& loop)
    : k_(&k), deadline_(loop.deadline) {
  const Ppc405& cpu = k.cpu();
  bus::Bus& plb = cpu.plb();
  sim::Simulation& sim = plb.simulation();
  if (loop.iterations < 4 || sim.tracer().enabled() ||
      sim.logger().enabled(sim::LogLevel::kTrace) ||
      (sim.faults() != nullptr && sim.faults()->per_transaction_active())) {
    return;
  }
  const AddressRange& w = loop.writes;
  if (cpu.is_cacheable(w)) return;
  for (const AddressRange& r : loop.reads) {
    if (cpu.is_cacheable(r)) return;
    // The bulk side reads every source before it writes the destination.
    if (w.size > 0 && r.size > 0 && w.overlaps(r)) return;
  }
  // Every bus a CPU access can reach: the PLB and those bridged from it.
  buses_.push_back(&plb);
  for (const bus::Bus::Attachment& a : plb.attachments()) {
    if (bus::Bus* next = a.slave->forwards_to()) {
      if (&next->clock() != &plb.clock()) return;
      const auto* bridge = dynamic_cast<const bus::PlbOpbBridge*>(a.slave);
      RTR_CHECK(bridge != nullptr,
                "a forwarding slave is not a PLB-OPB bridge");
      buses_.push_back(next);
      bridges_.push_back(bridge);
    }
  }
  allowed_ = true;
}

bool PeriodicReplay::buses_free_at(SimTime t) const {
  return std::all_of(buses_.begin(), buses_.end(),
                     [t](const bus::Bus* b) { return b->busy_until() <= t; });
}

// Why the closed form is exact: every bus step of an iteration aligns to
// the shared bus clock, CPU work adds whole CPU cycles, and Clock::cycles
// is linear. So an iteration that starts at phase p of the bus clock, on
// buses with no reservation left from before, ends a fixed time later at a
// fixed phase, and its statistics depend on p only. When iteration 2
// starts at iteration 1's phase with the buses again free, every later
// iteration repeats iteration 1 shifted by k * step. A fault plan with no
// active spec at a per-transaction site changes nothing here: each bus,
// ICAP or readback opportunity only advances that site's index and
// counter, and no spec becomes active again, so iteration k counts
// iteration 1's opportunities.
void PeriodicReplay::begin_template() {
  t1_ = k_->now();
  free_at_t1_ = buses_free_at(t1_);
  busy_at_t1_.clear();
  for (const bus::Bus* b : buses_) busy_at_t1_.push_back(b->busy_until());
  stats_.emplace(k_->cpu(), buses_.view(), bridges_.view(),
                 k_->cpu().plb().simulation().faults());
}

bool PeriodicReplay::end_template() {
  t2_ = k_->now();
  const std::int64_t step = (t2_ - t1_).ps();
  return free_at_t1_ && buses_free_at(t2_) && step > 0 &&
         step % buses_[0]->clock().period().ps() == 0;
}

std::int64_t PeriodicReplay::count(std::int64_t left) const {
  if (deadline_.ps() <= 0) return left;
  // Iteration i >= 2 starts at t2 + (i - 2) * step.
  const std::int64_t step = (t2_ - t1_).ps();
  const std::int64_t before = deadline_.ps() - t2_.ps();
  return std::min(left, before <= 0 ? 0 : (before + step - 1) / step);
}

void PeriodicReplay::repeat(std::int64_t m) {
  stats_->repeat(m);
  const SimTime shift = (t2_ - t1_) * m;
  // A bus iteration 1 did not use (the OPB, for a PIO loop on the 64-bit
  // system) keeps its reservation.
  for (std::size_t i = 0; i < buses_.size(); ++i) {
    bus::Bus& b = *buses_[i];
    if (b.busy_until() != busy_at_t1_[i]) {
      b.set_busy_until(b.busy_until() + shift);
    }
  }
  k_->cpu().idle_until(t2_ + shift);
}

}  // namespace rtr::cpu
