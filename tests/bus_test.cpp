// Tests for the CoreConnect bus models, memory controllers and the bridge.
#include <gtest/gtest.h>

#include <vector>

#include "bus/bridge.hpp"
#include "bus/bus.hpp"
#include "bus/types.hpp"
#include "mem/memory_slave.hpp"
#include "mem/sparse_memory.hpp"
#include "sim/kernel.hpp"

namespace rtr::bus {
namespace {

using mem::MemorySlave;
using mem::SparseMemory;
using sim::Frequency;
using sim::SimTime;

TEST(AddressRange, ContainsAndOverlaps) {
  AddressRange r{0x1000, 0x100};
  EXPECT_TRUE(r.contains(0x1000));
  EXPECT_TRUE(r.contains(0x10FF));
  EXPECT_FALSE(r.contains(0x1100));
  EXPECT_TRUE(r.contains(0x10F0, 16));
  EXPECT_FALSE(r.contains(0x10F0, 17));
  EXPECT_TRUE(r.overlaps(AddressRange{0x10FF, 1}));
  EXPECT_FALSE(r.overlaps(AddressRange{0x1100, 0x100}));
}

TEST(AddressRange, Alignment) {
  EXPECT_TRUE(aligned(0x1000, 4));
  EXPECT_FALSE(aligned(0x1002, 4));
  EXPECT_TRUE(aligned(0x1002, 2));
  EXPECT_TRUE(aligned(0x1001, 1));
  EXPECT_FALSE(aligned(0x1004, 8));
}

TEST(SparseMemoryTest, LittleEndianAndPaging) {
  SparseMemory m{1 << 20};
  m.write(0x100, 0x0102030405060708ULL, 8);
  EXPECT_EQ(m.read(0x100, 8), 0x0102030405060708ULL);
  EXPECT_EQ(m.read8(0x100), 0x08);  // little-endian: LSB first
  EXPECT_EQ(m.read(0x104, 4), 0x01020304u);
  EXPECT_EQ(m.read8(0x50000), 0);  // untouched pages read as zero
  EXPECT_EQ(m.resident_pages(), 1u);
}

TEST(SparseMemoryTest, BlockHelpers) {
  SparseMemory m{1 << 16};
  const std::uint8_t in[5] = {1, 2, 3, 4, 5};
  m.write_block(10, in);
  std::uint8_t out[5] = {};
  m.read_block(10, out);
  EXPECT_TRUE(std::equal(std::begin(in), std::end(in), std::begin(out)));
}

// --- a small 32-bit-system-like fixture -------------------------------------

struct BusFixture {
  sim::Simulation sim;
  sim::Clock& bus_clk = sim.add_clock("bus", Frequency::from_mhz(50));
  OpbBus opb{sim, bus_clk};
  PlbBus plb{sim, bus_clk};
  MemorySlave sram = MemorySlave::sram_on_opb({0x2000'0000, 32 << 20}, bus_clk);
  MemorySlave bram = MemorySlave::bram_on_plb({0x0000'0000, 16 << 10}, bus_clk, 8);
  PlbOpbBridge bridge{opb};

  BusFixture() {
    opb.attach(sram.range(), sram);
    plb.attach(bram.range(), bram);
    plb.attach(AddressRange{0x2000'0000, 0x1000'0000}, bridge);
  }
};

TEST(OpbBusTest, SingleBeatTimings) {
  BusFixture fx;
  // Write: arb(2) + addr(1) + slave(write_wait 3 + 1) + completion(1) = 8.
  const SimTime wd = fx.opb.write(0x2000'0000, 0xABCD, 4, SimTime::zero());
  EXPECT_EQ(wd, fx.bus_clk.cycles(8));
  // Read: arb(2) + addr + slave(read_wait 5 + 1) + completion = 10 cycles.
  const auto rr = fx.opb.read(0x2000'0000, 4, wd);
  EXPECT_EQ(rr.data, 0xABCDu);
  EXPECT_EQ(rr.done - wd, fx.bus_clk.cycles(10));
}

TEST(OpbBusTest, UnalignedStartSnapsToEdge) {
  BusFixture fx;
  const SimTime start = SimTime::from_ns(21);  // mid-cycle at 50 MHz
  const SimTime done = fx.opb.write(0x2000'0000, 1, 4, start);
  EXPECT_EQ(done, SimTime::from_ns(40) + fx.bus_clk.cycles(8));
}

TEST(OpbBusTest, BusSerialisesBackToBackRequests) {
  BusFixture fx;
  const SimTime d1 = fx.opb.write(0x2000'0000, 1, 4, SimTime::zero());
  // Second request also issued at t=0: must wait for the bus.
  const SimTime d2 = fx.opb.write(0x2000'0004, 2, 4, SimTime::zero());
  EXPECT_EQ(d2 - d1, fx.bus_clk.cycles(8));
  EXPECT_EQ(fx.sim.stats().counter("OPB.transactions").value(), 2);
  EXPECT_EQ(fx.sim.stats().counter("OPB.beats").value(), 2);
}

TEST(OpbBusTest, SubWordAccesses) {
  BusFixture fx;
  fx.opb.write(0x2000'0010, 0xAA, 1, SimTime::zero());
  fx.opb.write(0x2000'0011, 0xBB, 1, SimTime::zero());
  const auto r = fx.opb.read(0x2000'0010, 2, SimTime::zero());
  EXPECT_EQ(r.data, 0xBBAAu);
}

TEST(PlbBusTest, BurstBeatsPipelined) {
  BusFixture fx;
  // 8-beat burst to BRAM: arb(1)+addr(1)+burst_setup(2) + first beat
  // (wait 0 + 1) + 7 pipelined beats + completion(1) = 13 cycles.
  std::uint64_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const SimTime done = fx.plb.burst_write(0x0, data, SimTime::zero());
  EXPECT_EQ(done, fx.bus_clk.cycles(13));

  std::uint64_t back[8] = {};
  const auto r = fx.plb.burst_read(0x0, back, done);
  EXPECT_TRUE(std::equal(std::begin(data), std::end(data), std::begin(back)));
  // Burst is far cheaper than 8 single beats (8 * 4 = 32 cycles).
  EXPECT_LT(r.done - done, fx.bus_clk.cycles(8 * 4));
  EXPECT_EQ(fx.sim.stats().counter("PLB.beats").value(), 16);
}

TEST(PlbBusTest, SingleBeat64Bit) {
  BusFixture fx;
  fx.plb.write(0x100, 0x1122334455667788ULL, 8, SimTime::zero());
  const auto r = fx.plb.read(0x100, 8, SimTime::zero());
  EXPECT_EQ(r.data, 0x1122334455667788ULL);
}

TEST(PlbBusTest, WideBeatRejectedOnOpb) {
  BusFixture fx;
  EXPECT_DEATH(fx.opb.write(0x2000'0000, 0, 8, SimTime::zero()),
               "beat wider");
}

TEST(PlbBusTest, BurstRejectedOnOpb) {
  BusFixture fx;
  std::uint64_t d[2] = {};
  EXPECT_DEATH(fx.opb.burst_write(0x2000'0000, d, SimTime::zero()),
               "non-burst bus");
}

TEST(BusTest, UnmappedAccessAborts) {
  BusFixture fx;
  EXPECT_DEATH(fx.opb.read(0x9999'0000, 4, SimTime::zero()), "unmapped");
}

TEST(BusTest, UnalignedAccessAborts) {
  BusFixture fx;
  EXPECT_DEATH(fx.opb.read(0x2000'0001, 4, SimTime::zero()), "unaligned");
}

TEST(BusTest, OverlappingAttachRejected) {
  BusFixture fx;
  MemorySlave extra =
      MemorySlave::sram_on_opb({0x2100'0000, 32 << 20}, fx.bus_clk);
  EXPECT_DEATH(fx.opb.attach(extra.range(), extra), "overlapping");
}

TEST(BusTest, PeekPokeBackdoor) {
  BusFixture fx;
  fx.opb.poke(0x2000'0040, 0xDEADBEEF, 4);
  EXPECT_EQ(fx.opb.peek(0x2000'0040, 4), 0xDEADBEEFu);
  EXPECT_EQ(fx.sim.stats().counter("OPB.transactions").value(), 0);
}

// --- bridge -------------------------------------------------------------------

TEST(BridgeTest, ForwardsAndAddsLatency) {
  BusFixture fx;
  // Through PLB -> bridge -> OPB -> SRAM.
  const SimTime via_bridge =
      fx.plb.write(0x2000'0000, 77, 4, SimTime::zero());
  BusFixture fx2;
  const SimTime direct = fx2.opb.write(0x2000'0000, 77, 4, SimTime::zero());
  EXPECT_GT(via_bridge, direct);
  EXPECT_EQ(fx.sram.storage().read(0, 4), 77u);
}

TEST(BridgeTest, Splits64BitBeats) {
  BusFixture fx;
  fx.plb.write(0x2000'0100, 0xAABBCCDD'11223344ULL, 8, SimTime::zero());
  EXPECT_EQ(fx.sram.storage().read(0x100, 8), 0xAABBCCDD'11223344ULL);
  // Two OPB transactions happened.
  EXPECT_EQ(fx.sim.stats().counter("OPB.transactions").value(), 2);

  const auto r = fx.plb.read(0x2000'0100, 8, SimTime::zero());
  EXPECT_EQ(r.data, 0xAABBCCDD'11223344ULL);
}

TEST(BridgeTest, BackdoorForwards) {
  BusFixture fx;
  fx.plb.poke(0x2000'0200, 0x55, 1);
  EXPECT_EQ(fx.sram.storage().read8(0x200), 0x55);
  EXPECT_EQ(fx.plb.peek(0x2000'0200, 1), 0x55u);
}

TEST(BridgeTest, EndpointResolvesThroughTheBridge) {
  BusFixture fx;
  EXPECT_EQ(&fx.plb.endpoint(0x2000'0040), &fx.sram);
  EXPECT_EQ(&fx.plb.endpoint(0x40), &fx.bram);
  EXPECT_EQ(fx.plb.slave_at(0x2000'0040, 4).forwards_to(), &fx.opb);
}

TEST(BridgeTest, BlockBackdoorMatchesByteWiseAcrossAPage) {
  // 96 bytes around the first 64 KiB page boundary of the SRAM, written
  // and read back through the bridge both ways.
  constexpr Addr kBase = 0x2000'0000 + 0x1'0000 - 40;
  std::vector<std::uint8_t> data(96);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  BusFixture block;
  block.plb.poke_block(kBase, data);
  BusFixture bytes;
  for (std::size_t i = 0; i < data.size(); ++i) {
    bytes.plb.poke(kBase + i, data[i], 1);
  }
  for (BusFixture* fx : {&block, &bytes}) {
    std::vector<std::uint8_t> got(data.size());
    fx->plb.peek_block(kBase, got);
    EXPECT_EQ(got, data);
    for (std::size_t i = 0; i < data.size(); ++i) {
      ASSERT_EQ(fx->plb.peek(kBase + i, 1), data[i]) << i;
    }
    EXPECT_EQ(fx->sram.storage().resident_pages(), 2u);
    EXPECT_EQ(fx->sim.stats().counter("OPB.transactions").value(), 0);
    EXPECT_EQ(fx->sim.stats().counter("bridge.crossings").value(), 0);
  }
}

// --- memory controller presets ------------------------------------------------

TEST(MemorySlaveTest, DdrBurstFasterPerByteThanSingles) {
  sim::Simulation sim;
  sim::Clock& clk = sim.add_clock("plb", Frequency::from_mhz(100));
  PlbBus plb{sim, clk};
  MemorySlave ddr = MemorySlave::ddr_on_plb({0x0, 512ULL << 20}, clk);
  plb.attach(ddr.range(), ddr);

  std::uint64_t block[16] = {};
  const SimTime burst_done = plb.burst_read(0x0, block, SimTime::zero()).done;

  SimTime t = SimTime::zero();
  sim::Simulation sim2;
  sim::Clock& clk2 = sim2.add_clock("plb", Frequency::from_mhz(100));
  PlbBus plb2{sim2, clk2};
  MemorySlave ddr2 = MemorySlave::ddr_on_plb({0x0, 512ULL << 20}, clk2);
  plb2.attach(ddr2.range(), ddr2);
  for (int i = 0; i < 16; ++i) t = plb2.read(static_cast<Addr>(i) * 8, 8, t).done;

  EXPECT_LT(burst_done.ps(), t.ps() / 3);
}

TEST(MemorySlaveTest, ControllerCostsOrdered) {
  sim::Simulation sim;
  sim::Clock& clk = sim.add_clock("c", Frequency::from_mhz(100));
  const auto sram = MemorySlave::sram_on_opb({0, 1 << 20}, clk);
  const auto ddr = MemorySlave::ddr_on_plb({0, 1 << 20}, clk);
  // The paper: the OPB SRAM controller is "much smaller" than a PLB one.
  EXPECT_LT(sram.controller_cost().slices, ddr.controller_cost().slices / 2);
}

}  // namespace
}  // namespace rtr::bus
