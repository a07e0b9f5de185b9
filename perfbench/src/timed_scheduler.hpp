// Host-time decorator for scheduler hooks, installed through the public
// sched::SchedulerRegistry.
//
// While a HookTimingScope is alive, every registered scheduler name builds
// its usual scheduler wrapped in a TimedScheduler that forwards each hook
// unchanged and adds the hook's host time and call count to one HookTimes.
// Serve tenants build their schedulers by spec through the same registry,
// so they are covered too (inside serve's own mask-confining wrapper).
// Forwarding changes no decision, so the event digest is unchanged.
#pragma once

#include <cstdint>
#include <memory>

#include "rt/scheduler.hpp"
#include "sched/registry.hpp"

namespace perfbench {

struct HookTimes {
  struct Hook {
    std::uint64_t calls = 0;
    double host_s = 0.0;
  };
  Hook select_config, distribute, acquire, place_ready, loop_finished;
  std::uint64_t acquire_empty = 0;  // acquires that returned no task

  [[nodiscard]] double total_s() const {
    return select_config.host_s + distribute.host_s + acquire.host_s + place_ready.host_s +
           loop_finished.host_s;
  }
};

class TimedScheduler final : public ilan::rt::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<ilan::rt::Scheduler> inner, HookTimes& times)
      : inner_(std::move(inner)), times_(times) {}

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  ilan::rt::LoopConfig select_config(const ilan::rt::TaskloopSpec& spec,
                                     ilan::rt::Team& team) override;
  std::size_t distribute(const ilan::rt::TaskloopSpec& spec, const ilan::rt::LoopConfig& cfg,
                         ilan::rt::Team& team, ilan::sim::SimTime& serial_cost) override;
  ilan::rt::AcquireResult acquire(ilan::rt::Team& team, ilan::rt::Worker& w) override;
  void place_ready(const ilan::rt::TaskGraphSpec& graph, ilan::rt::Task& task,
                   const ilan::rt::LoopConfig& cfg, ilan::rt::Team& team,
                   std::span<const ilan::topo::NodeId> pred_nodes,
                   ilan::sim::SimTime& cost) override;
  void loop_finished(const ilan::rt::TaskloopSpec& spec, const ilan::rt::LoopExecStats& stats,
                     ilan::rt::Team& team) override;
  [[nodiscard]] ilan::rt::SchedulerInfo introspect() const override {
    return inner_->introspect();
  }

 private:
  std::unique_ptr<ilan::rt::Scheduler> inner_;
  HookTimes& times_;
};

// Installs the decorator for every registered scheduler name on
// construction and restores the registry as it was on destruction.
// `times` must outlive every scheduler built while the scope is alive.
class HookTimingScope {
 public:
  explicit HookTimingScope(HookTimes& times);
  ~HookTimingScope();
  HookTimingScope(const HookTimingScope&) = delete;
  HookTimingScope& operator=(const HookTimingScope&) = delete;

 private:
  ilan::sched::SchedulerRegistry saved_;
};

}  // namespace perfbench
