#include "bus/bus.hpp"

#include "fault/fault.hpp"
#include "sim/check.hpp"

namespace rtr::bus {

using sim::SimTime;

namespace {

/// Watchdog interval before the arbiter abandons a transaction whose slave
/// never responds. Poison pattern fills the data phase of a faulted read.
constexpr int kBusTimeoutCycles = 64;
constexpr std::uint64_t kBusPoison = 0xDEADDEADDEADDEADull;

}  // namespace

SlaveResult Slave::burst_read(Addr addr, std::span<std::uint64_t> out,
                              SimTime start, bool increment) {
  SlaveResult last{0, start};
  for (std::size_t i = 0; i < out.size(); ++i) {
    last = read(increment ? addr + i * 8 : addr, 8, last.done);
    out[i] = last.data;
  }
  return last;
}

SimTime Slave::burst_write(Addr addr, std::span<const std::uint64_t> data,
                           SimTime start, bool increment) {
  SimTime t = start;
  for (std::size_t i = 0; i < data.size(); ++i) {
    t = write(increment ? addr + i * 8 : addr, data[i], 8, t);
  }
  return t;
}

std::uint64_t Slave::peek(Addr, int) const {
  RTR_CHECK(false, "peek on a slave without backdoor access");
  __builtin_unreachable();
}

void Slave::poke(Addr, std::uint64_t, int) {
  RTR_CHECK(false, "poke on a slave without backdoor access");
}

void Slave::peek_block(Addr addr, std::span<std::uint8_t> out) const {
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(peek(addr + i, 1));
  }
}

void Slave::poke_block(Addr addr, std::span<const std::uint8_t> data) {
  for (std::size_t i = 0; i < data.size(); ++i) poke(addr + i, data[i], 1);
}

void Slave::pio_block(Addr addr, std::span<const std::uint32_t> in,
                      std::span<std::uint32_t> out) {
  for_each_pio_group(
      in, out,
      [&](std::span<const std::uint32_t> words) {
        for (const std::uint32_t w : words) write(addr, w, 4, SimTime{});
      },
      [&] { return static_cast<std::uint32_t>(read(addr, 4, SimTime{}).data); });
}

Bus::Bus(std::string name, sim::Simulation& sim, sim::Clock& clock,
         BusProtocol protocol)
    : name_(std::move(name)),
      sim_(&sim),
      clock_(&clock),
      protocol_(protocol),
      stats_{&sim.stats().counter(name_ + ".transactions"),
             &sim.stats().counter(name_ + ".beats"),
             &sim.stats().busy(name_ + ".busy"),
             &sim.stats().histogram(name_ + ".latency_ps")} {}

void Bus::attach(AddressRange range, Slave& slave) {
  RTR_CHECK(range.size > 0, "empty slave range");
  for (const Attachment& a : map_) {
    RTR_CHECK(!a.range.overlaps(range), "overlapping slave address ranges");
  }
  map_.push_back(Attachment{range, &slave});
}

bool Bus::decodes(Addr addr) const {
  for (const Attachment& a : map_) {
    if (a.range.contains(addr)) return true;
  }
  return false;
}

Slave& Bus::slave_at(Addr addr, std::uint64_t len) const {
  for (const Attachment& a : map_) {
    if (a.range.contains(addr)) {
      RTR_CHECK(a.range.contains(addr, len),
                "access crosses a slave boundary");
      return *a.slave;
    }
  }
  RTR_CHECK(false, "access to unmapped bus address");
  __builtin_unreachable();
}

void Bus::check_beat(Addr addr, int bytes) const {
  RTR_CHECK(bytes == 1 || bytes == 2 || bytes == 4 || bytes == 8,
            "beat size must be a power of two");
  RTR_CHECK(bytes <= protocol_.max_beat_bytes, "beat wider than the bus");
  RTR_CHECK(aligned(addr, bytes), "unaligned bus access");
}

SimTime Bus::begin_transaction(SimTime start, bool burst) {
  if (burst) {
    RTR_CHECK(protocol_.supports_burst, "burst on a non-burst bus");
  }
  SimTime t = clock_->next_edge(start);
  if (busy_until_ > t) t = clock_->next_edge(busy_until_);
  const int setup = protocol_.arbitration_cycles + protocol_.address_cycles +
                    (burst ? protocol_.burst_setup_cycles : 0);
  return t + clock_->cycles(setup);
}

SimTime Bus::end_transaction(SimTime data_done, SimTime started) {
  const SimTime done =
      clock_->next_edge(data_done) + clock_->cycles(protocol_.completion_cycles);
  busy_until_ = done;
  stats_.busy->add(started, done);
  stats_.transactions->add();
  stats_.latency->sample((done - started).ps());
  return done;
}

void Bus::trace_txn(const char* op, Addr addr, SimTime started, SimTime done) {
  trace::Tracer& tr = sim_->tracer();
  if (trace_track_ < 0) trace_track_ = tr.track(name_);
  tr.complete(trace_track_, op, started, done, "addr",
              static_cast<std::int64_t>(addr));
}

SlaveResult Bus::read(Addr addr, int bytes, SimTime start) {
  check_beat(addr, bytes);
  const SimTime data_start = begin_transaction(start, /*burst=*/false);
  if (fault::FaultInjector* fi = sim_->faults()) {
    const fault::BusFault f = fi->bus_fault(data_start);
    if (f != fault::BusFault::kNone) {
      // Slave error: immediate nack, poisoned data phase. Timeout: the
      // slave never responds and the watchdog reclaims the bus.
      const int wait =
          f == fault::BusFault::kTimeout ? kBusTimeoutCycles : 1;
      const SimTime done =
          end_transaction(data_start + clock_->cycles(wait), start);
      if (sim_->tracer().enabled()) trace_txn("rd_fault", addr, start, done);
      return SlaveResult{kBusPoison, done};
    }
  }
  Slave& s = slave_at(addr, static_cast<std::uint64_t>(bytes));
  const SlaveResult r = s.read(addr, bytes, data_start);
  stats_.beats->add();
  const SimTime done = end_transaction(r.done, start);
  if (sim_->tracer().enabled()) trace_txn("rd", addr, start, done);
  if (sim_->logger().enabled(sim::LogLevel::kTrace)) {
    sim_->logger().logf(sim::LogLevel::kTrace, done, name_,
                        "rd %d @%08llx -> %llx (%s)", bytes,
                        static_cast<unsigned long long>(addr),
                        static_cast<unsigned long long>(r.data),
                        s.name().c_str());
  }
  return SlaveResult{r.data, done};
}

SimTime Bus::write(Addr addr, std::uint64_t data, int bytes, SimTime start) {
  check_beat(addr, bytes);
  const SimTime data_start = begin_transaction(start, /*burst=*/false);
  if (fault::FaultInjector* fi = sim_->faults()) {
    const fault::BusFault f = fi->bus_fault(data_start);
    if (f != fault::BusFault::kNone) {
      // The beat never reaches the slave; the write is silently lost
      // (detected downstream by the ICAP framing/CRC gates).
      const int wait =
          f == fault::BusFault::kTimeout ? kBusTimeoutCycles : 1;
      const SimTime done =
          end_transaction(data_start + clock_->cycles(wait), start);
      if (sim_->tracer().enabled()) trace_txn("wr_fault", addr, start, done);
      return done;
    }
  }
  Slave& s = slave_at(addr, static_cast<std::uint64_t>(bytes));
  const SimTime slave_done = s.write(addr, data, bytes, data_start);
  stats_.beats->add();
  const SimTime done = end_transaction(slave_done, start);
  if (sim_->tracer().enabled()) trace_txn("wr", addr, start, done);
  if (sim_->logger().enabled(sim::LogLevel::kTrace)) {
    sim_->logger().logf(sim::LogLevel::kTrace, done, name_,
                        "wr %d @%08llx <- %llx (%s)", bytes,
                        static_cast<unsigned long long>(addr),
                        static_cast<unsigned long long>(data),
                        s.name().c_str());
  }
  return done;
}

SlaveResult Bus::burst_read(Addr addr, std::span<std::uint64_t> out,
                            SimTime start, bool increment) {
  RTR_CHECK(!out.empty(), "empty burst");
  RTR_CHECK(aligned(addr, 8), "bursts must be 8-byte aligned");
  const SimTime data_start = begin_transaction(start, /*burst=*/true);
  Slave& s = slave_at(addr, increment ? out.size() * 8 : 8);
  const SlaveResult r = s.burst_read(addr, out, data_start, increment);
  stats_.beats->add(static_cast<std::int64_t>(out.size()));
  const SimTime done = end_transaction(r.done, start);
  if (sim_->tracer().enabled()) trace_txn("burst_rd", addr, start, done);
  return SlaveResult{r.data, done};
}

SimTime Bus::burst_write(Addr addr, std::span<const std::uint64_t> data,
                         SimTime start, bool increment) {
  RTR_CHECK(!data.empty(), "empty burst");
  RTR_CHECK(aligned(addr, 8), "bursts must be 8-byte aligned");
  const SimTime data_start = begin_transaction(start, /*burst=*/true);
  Slave& s = slave_at(addr, increment ? data.size() * 8 : 8);
  const SimTime slave_done = s.burst_write(addr, data, data_start, increment);
  stats_.beats->add(static_cast<std::int64_t>(data.size()));
  const SimTime done = end_transaction(slave_done, start);
  if (sim_->tracer().enabled()) trace_txn("burst_wr", addr, start, done);
  return done;
}

}  // namespace rtr::bus
