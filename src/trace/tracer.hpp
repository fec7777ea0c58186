// Span-based tracing against simulated time.
//
// A Tracer records begin/end spans, complete spans, instant events and
// counter samples, each stamped with a SimTime, onto named tracks (one per
// hardware unit: PLB, OPB, ICAP, DMA, ...). Recording is zero-cost when the
// tracer is disabled: every instrumentation site guards with `enabled()`
// (the same discipline as Logger::enabled), so benchmarks pay a single
// predictable branch.
//
// Two exporters:
//   * export_chrome: the Chrome/Perfetto `trace_event` JSON array format
//     (open chrome://tracing or https://ui.perfetto.dev and drop the file);
//   * export_timeline: a plain-text, indentation-nested timeline for
//     terminals and golden tests.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace rtr::trace {

/// Event phases, mirroring the Chrome trace_event `ph` field.
enum class Phase : char {
  kBegin = 'B',
  kEnd = 'E',
  kComplete = 'X',
  kInstant = 'i',
  kCounter = 'C',
  kFlowStart = 's',
  kFlowStep = 't',
  kFlowEnd = 'f',
};

/// One recorded event. Durations/timestamps stay in integer picoseconds
/// until export (the JSON writer converts to fractional microseconds).
struct TraceEvent {
  Phase ph;
  int track;                  // index into the tracer's track table
  std::int64_t ts_ps;
  std::int64_t dur_ps = 0;    // kComplete only
  std::string name;
  std::string arg_name;       // optional single argument ("" = none)
  std::int64_t arg_value = 0;
  std::int64_t flow_id = -1;  // flow phases only: the chain key
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  void enable(bool on = true) { enabled_ = on; }
  /// Instrumentation sites must check this before building event names.
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Register (or look up) a named track; rendered as a thread row in the
  /// Chrome UI. Stable ids; cheap enough for lazy per-component caching.
  int track(const std::string& name);
  [[nodiscard]] const std::vector<std::string>& tracks() const {
    return track_names_;
  }

  /// Open a span on `track` at `at`. Spans on one track must nest.
  void begin(int track, std::string name, sim::SimTime at);
  /// Close the innermost open span on `track`.
  void end(int track, sim::SimTime at);
  /// A span with both endpoints known up front (the common case in a
  /// transaction-level model).
  void complete(int track, std::string name, sim::SimTime start,
                sim::SimTime end);
  void complete(int track, std::string name, sim::SimTime start,
                sim::SimTime end, std::string arg_name, std::int64_t arg_value);
  /// A zero-duration marker.
  void instant(int track, std::string name, sim::SimTime at);
  void instant(int track, std::string name, sim::SimTime at,
               std::string arg_name, std::int64_t arg_value);
  /// One sample of a numeric counter track (FIFO occupancy, queue depth...).
  void counter(std::string name, std::int64_t value, sim::SimTime at);
  /// Flow events stitch spans on different tracks into one causal chain
  /// keyed by `id` (rendered as arrows in the Perfetto UI). kFlowStart
  /// opens the chain, kFlowStep continues it, kFlowEnd terminates it; each
  /// binds to the slice enclosing (`track`, `at`).
  void flow(Phase ph, int track, std::string name, std::int64_t id,
            sim::SimTime at);

  /// Optional sink invoked for every recorded event while the tracer is
  /// enabled (the flight recorder's tap). One observer at a time; pass
  /// nullptr to detach.
  using Observer = std::function<void(const TraceEvent&)>;
  void set_observer(Observer obs) { observer_ = std::move(obs); }
  /// When storage is off, record() forwards events to the observer (if
  /// any) and drops them instead of accumulating an unbounded vector --
  /// flight-recorder-only mode, where retention lives in the recorder's
  /// bounded ring. Begin/end balance is still tracked.
  void set_store_events(bool on) { store_events_ = on; }

  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  /// Number of spans currently open across all tracks (0 after a balanced
  /// run; tests assert on it).
  [[nodiscard]] int open_spans() const { return open_spans_; }
  void clear();

  /// Chrome trace_event JSON: an array of {name, ph, ts, pid, tid, ...}
  /// objects, timestamps in microseconds.
  void export_chrome(std::ostream& os) const;
  /// Plain-text timeline: one line per event, begin/end rendered as an
  /// indented tree per track.
  void export_timeline(std::ostream& os) const;

 private:
  void record(TraceEvent ev);

  bool enabled_ = false;
  bool store_events_ = true;
  std::vector<std::string> track_names_;
  std::vector<TraceEvent> events_;
  std::vector<int> depth_;  // per-track open-span depth (begin/end balance)
  int open_spans_ = 0;
  Observer observer_;
};

/// Serialize one event as a Chrome trace_event JSON object (no trailing
/// separator). `n_tracks` is the tracer's track count, used to park the
/// synthetic counter track on a stable tid past the named ones. Shared by
/// Tracer::export_chrome and the flight recorder's incident snapshots.
void write_chrome_event(std::ostream& os, const TraceEvent& e,
                        std::size_t n_tracks);
/// The thread-name metadata record labelling track `tid` in the Chrome UI.
void write_chrome_track_meta(std::ostream& os, const std::string& name,
                             std::size_t tid);

}  // namespace rtr::trace
