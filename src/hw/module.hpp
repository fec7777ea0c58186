// Behavioural models of dynamic-area hardware modules.
//
// Once a complete configuration is loaded and validated, the runtime binds
// the region's behaviour: an HwModule instance that reacts to the dock's
// connection interface (write strobes in, read channel out). The module is
// clocked by the bus with the write strobe as clock enable (section 3.1), so
// one write = one pipeline step; pipeline depth shows up functionally as
// output lag, not as extra simulated time.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>

#include "bus/slave.hpp"
#include "sim/check.hpp"

namespace rtr::hw {

class HwModule {
 public:
  virtual ~HwModule() = default;

  /// Matches the behaviour id embedded in the module's configuration.
  [[nodiscard]] virtual int behavior_id() const = 0;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Reconfiguration loads a fresh circuit: all state cleared.
  virtual void reset() = 0;

  /// A write strobe: `width_bits` (32 or 64) presented on the write channel.
  virtual void write_word(std::uint64_t data, int width_bits) = 0;

  /// A control strobe (the dock decodes a separate control register):
  /// re-arms the module and carries a task parameter where one exists
  /// (brightness delta, fade factor). Default: ignore.
  virtual void control(std::uint32_t value) { (void)value; }

  /// Sample the read channel.
  [[nodiscard]] virtual std::uint64_t read_word(int width_bits) = 0;

  /// Streaming handshake: true when the module has a fresh output word for
  /// the dock to capture into the output FIFO after a strobe. Modules that
  /// reduce (hashes) or repack (blend) return true less than once per
  /// strobe.
  [[nodiscard]] virtual bool has_output() const { return true; }

  /// A block of 32-bit data strobes with reads between them, in the shape
  /// of bus::Slave::pio_block. It must leave the module, and fill `out`,
  /// exactly as write_word(w, 32) and read_word(32) one by one would; the
  /// default is that loop, and a module overrides it to consume the block
  /// whole.
  virtual void pio_block(std::span<const std::uint32_t> in,
                         std::span<std::uint32_t> out) {
    bus::for_each_pio_group(
        in, out,
        [this](std::span<const std::uint32_t> words) {
          for (const std::uint32_t w : words) write_word(w, 32);
        },
        [this] { return static_cast<std::uint32_t>(read_word(32)); });
  }
};

/// Maps behaviour ids (from configuration signatures) to module factories.
class BehaviorRegistry {
 public:
  using Factory = std::function<std::unique_ptr<HwModule>()>;

  void add(int behavior_id, Factory f) {
    RTR_CHECK(!factories_.contains(behavior_id),
              "behaviour id registered twice");
    factories_.emplace(behavior_id, std::move(f));
  }

  [[nodiscard]] bool contains(int behavior_id) const {
    return factories_.contains(behavior_id);
  }

  /// Instantiate the behaviour; nullptr when the id is unknown (a loaded
  /// configuration whose circuit this runtime has no model for).
  [[nodiscard]] std::unique_ptr<HwModule> create(int behavior_id) const {
    auto it = factories_.find(behavior_id);
    if (it == factories_.end()) return nullptr;
    auto m = it->second();
    RTR_CHECK(m->behavior_id() == behavior_id,
              "factory produced a module with the wrong behaviour id");
    return m;
  }

 private:
  std::map<int, Factory> factories_;
};

}  // namespace rtr::hw
