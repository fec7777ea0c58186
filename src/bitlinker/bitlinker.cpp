#include "bitlinker/bitlinker.hpp"

#include <algorithm>

#include "fabric/device.hpp"
#include "sim/check.hpp"

namespace rtr::bitlinker {

using busmacro::BusMacro;
using fabric::ColumnType;
using fabric::ConfigMemory;
using fabric::DynamicRegion;
using fabric::FrameAddress;

std::uint32_t region_payload_hash(const ConfigMemory& cm,
                                  const DynamicRegion& region) {
  const FrameAddress sig_frame = region.signature_frame();
  const auto wpf = static_cast<std::size_t>(cm.words_per_frame());
  const auto w0 = static_cast<std::size_t>(region.first_word());
  const auto wn = static_cast<std::size_t>(region.word_count());
  const auto sig0 = static_cast<std::size_t>(region.signature_word()) - w0;
  PayloadHasher h;
  region.for_each_covered_column([&](FrameAddress first, int frames) {
    const auto words = cm.frames(first, frames);
    for (int m = 0; m < frames; ++m) {
      const auto rows =
          words.subspan(static_cast<std::size_t>(m) * wpf + w0, wn);
      if (FrameAddress{first.type, first.major, m} == sig_frame) {
        h.add(rows.first(sig0));
        h.add(rows.subspan(sig0 + DynamicRegion::kSignatureWords));
        continue;
      }
      h.add(rows);
    }
  });
  return h.value();
}

BitLinker::BitLinker(const DynamicRegion& region,
                     busmacro::ConnectionInterface dock_interface,
                     const ConfigMemory& baseline)
    : region_(&region),
      dock_if_(std::move(dock_interface)),
      baseline_(&baseline) {
  RTR_CHECK(&baseline.device() == &region.device(),
            "baseline configuration is for a different device");
}

std::vector<std::string> BitLinker::check(const LinkJob& job,
                                          LinkStats& stats) const {
  std::vector<std::string> errors;
  const DynamicRegion& region = *region_;
  const fabric::ClbRect local{0, 0, region.rect().rows, region.rect().cols};

  if (job.parts.empty()) {
    errors.push_back("assembly has no components");
    return errors;
  }

  // --- geometric checks -------------------------------------------------
  int bram_demand = 0;
  fabric::Resources logic;
  for (const LinkInput& in : job.parts) {
    RTR_CHECK(in.component != nullptr, "null component in link job");
    const ComponentDescriptor& c = *in.component;
    const fabric::ClbRect fp = c.footprint_at(in.place.row_off, in.place.col_off);
    if (!local.contains(fp)) {
      errors.push_back("component '" + c.name + "' does not fit the region (" +
                       std::to_string(c.rows) + "x" + std::to_string(c.cols) +
                       " at +" + std::to_string(in.place.row_off) + "+" +
                       std::to_string(in.place.col_off) + " vs region " +
                       std::to_string(local.rows) + "x" +
                       std::to_string(local.cols) + ")");
    }
    bram_demand += c.bram_blocks;
    logic += c.logic;
    for (const BusMacro& m : c.macros) logic += m.resources();
    fabric::Resources cap = fabric::Resources::from_clbs(c.rows * c.cols,
                                                         c.bram_blocks);
    fabric::Resources need = c.logic;
    for (const BusMacro& m : c.macros) need += m.resources();
    if (!need.fits_in(cap)) {
      errors.push_back("component '" + c.name +
                       "' declares more logic than its footprint holds");
    }
  }
  for (std::size_t i = 0; i < job.parts.size(); ++i) {
    for (std::size_t j = i + 1; j < job.parts.size(); ++j) {
      const auto& a = job.parts[i];
      const auto& b = job.parts[j];
      if (a.component->footprint_at(a.place.row_off, a.place.col_off)
              .intersects(b.component->footprint_at(b.place.row_off,
                                                    b.place.col_off))) {
        errors.push_back("components '" + a.component->name + "' and '" +
                         b.component->name + "' overlap");
      }
    }
  }
  if (bram_demand > region.bram_blocks()) {
    errors.push_back("assembly needs " + std::to_string(bram_demand) +
                     " BRAMs, region provides " +
                     std::to_string(region.bram_blocks()));
  }
  if (!logic.fits_in(region.resources())) {
    errors.push_back("assembly logic exceeds the region's resources");
  }

  // --- bus macro matching -------------------------------------------------
  // Translate every macro to region-relative coordinates, then require that
  // each one is mated either by the dock interface or by exactly one macro
  // of another component.
  struct PlacedMacro {
    BusMacro macro;
    const ComponentDescriptor* owner;  // nullptr for the dock side
  };
  std::vector<PlacedMacro> placed;
  placed.push_back({dock_if_.write_channel, nullptr});
  placed.push_back({dock_if_.read_channel, nullptr});
  placed.push_back({dock_if_.write_strobe, nullptr});
  for (const LinkInput& in : job.parts) {
    for (const BusMacro& m : in.component->macros) {
      placed.push_back(
          {BusMacro{m.name(), m.style(), m.direction(), m.width(),
                    fabric::ClbCoord{m.anchor().row + in.place.row_off,
                                     m.anchor().col + in.place.col_off}},
           in.component});
    }
  }
  std::vector<int> mate_count(placed.size(), 0);
  for (std::size_t i = 0; i < placed.size(); ++i) {
    for (std::size_t j = i + 1; j < placed.size(); ++j) {
      if (placed[i].owner == placed[j].owner) continue;  // same side
      if (placed[i].macro.mates_with(placed[j].macro)) {
        ++mate_count[i];
        ++mate_count[j];
      }
    }
  }
  for (std::size_t i = 0; i < placed.size(); ++i) {
    const char* side = placed[i].owner ? placed[i].owner->name.c_str() : "dock";
    if (mate_count[i] == 0) {
      errors.push_back(std::string("unmated bus macro '") +
                       placed[i].macro.name() + "' of " + side);
    } else if (mate_count[i] > 1) {
      errors.push_back(std::string("bus macro '") + placed[i].macro.name() +
                       "' of " + side + " has multiple mates");
    }
  }

  if (errors.empty()) {
    stats.logic_used = logic;
    stats.bram_blocks_used = bram_demand;
  }
  return errors;
}

ConfigMemory BitLinker::compose(const LinkJob& job, LinkStats& stats) const {
  const DynamicRegion& region = *region_;
  ConfigMemory out = *baseline_;
  const int w0 = region.first_word();
  const int wn = region.word_count();

  // Clean slate: zero the region rows of every covered frame so that
  // nothing of a previously assembled module can survive.
  const std::vector<std::uint32_t> zeros(static_cast<std::size_t>(wn), 0);
  region.for_each_covered_frame(
      [&](FrameAddress a) { out.write_words(a, w0, zeros); });

  // Paint each component's configuration into its columns.
  for (const LinkInput& in : job.parts) {
    const ComponentDescriptor& c = *in.component;
    const std::vector<std::uint32_t> words = c.config_words();
    for (int rc = 0; rc < c.cols; ++rc) {
      const int dev_col = region.rect().col0 + in.place.col_off + rc;
      for (int minor = 0; minor < fabric::kFramesPerClbColumn; ++minor) {
        const std::size_t off =
            (static_cast<std::size_t>(rc) * fabric::kFramesPerClbColumn +
             static_cast<std::size_t>(minor)) *
            static_cast<std::size_t>(c.rows);
        out.write_words(
            FrameAddress{ColumnType::kClb, dev_col, minor},
            w0 + in.place.row_off,
            std::span<const std::uint32_t>{words.data() + off,
                                           static_cast<std::size_t>(c.rows)});
      }
    }
  }

  // Initialise the BRAM content of the blocks handed to the assembly, in
  // allocation order.
  {
    int next_alloc = 0;  // index into region.brams()
    int used_in_alloc = 0;
    for (const LinkInput& in : job.parts) {
      const ComponentDescriptor& c = *in.component;
      if (c.bram_blocks == 0) continue;
      const std::vector<std::uint32_t> init = c.bram_words(wn);
      for (int b = 0; b < c.bram_blocks; ++b) {
        while (next_alloc < static_cast<int>(region.brams().size()) &&
               used_in_alloc >= region.brams()[static_cast<std::size_t>(next_alloc)].blocks) {
          ++next_alloc;
          used_in_alloc = 0;
        }
        RTR_CHECK(next_alloc < static_cast<int>(region.brams().size()),
                  "BRAM demand validated but allocation ran out");
        const auto& alloc = region.brams()[static_cast<std::size_t>(next_alloc)];
        // Spread the block's init words over its content frames within the
        // region rows (one word per frame is enough to make the state
        // unique per component).
        const int minor = (alloc.first_block + used_in_alloc) %
                          fabric::kFramesPerBramContent;
        out.write_words(
            FrameAddress{ColumnType::kBramContent, alloc.column_index, minor},
            w0,
            std::span<const std::uint32_t>{
                init.data() + static_cast<std::size_t>(b) * wn,
                static_cast<std::size_t>(wn)});
        ++used_in_alloc;
      }
    }
  }

  // Embed the signature: magic, behaviour id, complement, payload hash.
  const std::uint32_t hash = region_payload_hash(out, region);
  const std::uint32_t id = static_cast<std::uint32_t>(job.behavior_id);
  const std::uint32_t sig[DynamicRegion::kSignatureWords] = {
      DynamicRegion::kSignatureMagic, id, ~id, hash};
  out.write_words(region.signature_frame(), region.signature_word(), sig);

  stats.payload_hash = hash;
  return out;
}

std::optional<ConfigMemory> BitLinker::assemble(const LinkJob& job,
                                                LinkResult& res) const {
  res.errors = check(job, res.stats);
  if (!res.errors.empty()) return std::nullopt;
  return compose(job, res.stats);
}

LinkResult BitLinker::link(const LinkJob& job) const {
  LinkResult res;
  if (const auto assembled = assemble(job, res)) {
    res.config = bitstream::PartialConfig::full_region(*assembled, *region_);
    res.stats.frames = res.config->total_frames();
    res.stats.payload_bytes = res.config->payload_bytes();
  }
  return res;
}

LinkJob BitLinker::single(const ComponentDescriptor& comp) {
  LinkJob job;
  job.parts.push_back(LinkInput{&comp, Placement{0, 0}});
  job.behavior_id = comp.behavior_id;
  job.revision = comp.revision;
  return job;
}

LinkResult BitLinker::link_single(const ComponentDescriptor& comp) const {
  return link(single(comp));
}

LinkResult BitLinker::link_differential(
    const LinkJob& job, const ConfigMemory& assumed_current) const {
  LinkResult res;
  if (const auto assembled = assemble(job, res)) {
    res.config = bitstream::PartialConfig::diff(assumed_current, *assembled);
    res.stats.frames = res.config->total_frames();
    res.stats.payload_bytes = res.config->payload_bytes();
  }
  return res;
}

}  // namespace rtr::bitlinker
