// Simulation context.
//
// A Simulation owns the shared services every timed component needs: the
// statistics registry, the logger, the tracer, and the set of clock domains.
// rtrsim models at transaction level: component calls take a start time and
// return a completion time. Concurrent activity is answered the same way: a
// DMA chain returns its completion time, and the interrupt controller the
// time a line was raised.
#pragma once

#include <cassert>
#include <map>
#include <memory>
#include <string>

#include "sim/clock.hpp"
#include "sim/context.hpp"
#include "sim/log.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"
#include "trace/tracer.hpp"

namespace rtr::fault {
class FaultInjector;
}  // namespace rtr::fault

namespace rtr::trace {
class FlightRecorder;
}  // namespace rtr::trace

namespace rtr::sim {

/// Shared simulation services. Non-copyable; components hold a reference.
class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Create (or fetch) the clock domain `name` at `freq`. Re-registering an
  /// existing name with a different frequency is a programming error.
  Clock& add_clock(const std::string& name, Frequency freq) {
    auto it = clocks_.find(name);
    if (it != clocks_.end()) {
      assert(it->second->frequency() == freq && "clock re-registered with new frequency");
      return *it->second;
    }
    auto [pos, inserted] =
        clocks_.emplace(name, std::make_unique<Clock>(name, freq));
    return *pos->second;
  }

  [[nodiscard]] StatRegistry& stats() { return stats_; }
  [[nodiscard]] Logger& logger() { return logger_; }

  /// The tracer every component records against. By default a disabled
  /// instance owned by the simulation; `attach_tracer` swaps in an external
  /// one (the CLI's, a bench's) so spans survive the simulation's lifetime.
  [[nodiscard]] trace::Tracer& tracer() { return *tracer_; }
  void attach_tracer(trace::Tracer& t) { tracer_ = &t; }

  /// The fault injector components consult at their injection points; null
  /// (the default) means no fault plan is armed and every site is clean.
  /// Owned by whoever assembles the platform; must outlive the simulation.
  [[nodiscard]] fault::FaultInjector* faults() const { return faults_; }
  void attach_faults(fault::FaultInjector& f) { faults_ = &f; }

  /// The flight recorder incident triggers report to; null (the default)
  /// means no recorder is armed. Owned by the CLI or test harness; must
  /// outlive the simulation.
  [[nodiscard]] trace::FlightRecorder* flight_recorder() const {
    return flight_recorder_;
  }
  void attach_flight_recorder(trace::FlightRecorder& fr) {
    flight_recorder_ = &fr;
  }

  /// The request currently being served, set by the serving layer around
  /// each dispatch so deep components (the platform's reconfiguration
  /// accounting) can attribute their spans to it. Null outside a request.
  [[nodiscard]] const RequestContext* active_request() const {
    return active_request_;
  }
  void set_active_request(const RequestContext* ctx) { active_request_ = ctx; }

 private:
  std::map<std::string, std::unique_ptr<Clock>> clocks_;
  StatRegistry stats_;
  Logger logger_;
  trace::Tracer default_tracer_;
  trace::Tracer* tracer_ = &default_tracer_;
  fault::FaultInjector* faults_ = nullptr;
  trace::FlightRecorder* flight_recorder_ = nullptr;
  const RequestContext* active_request_ = nullptr;
};

}  // namespace rtr::sim
