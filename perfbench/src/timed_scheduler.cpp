#include "timed_scheduler.hpp"

#include <chrono>

namespace perfbench {

namespace rt = ilan::rt;

namespace {

using Clock = std::chrono::steady_clock;

// Adds the host time from construction to destruction to one hook's total.
class HookTimer {
 public:
  explicit HookTimer(HookTimes::Hook& hook) : hook_(hook), start_(Clock::now()) {}
  ~HookTimer() {
    hook_.host_s += std::chrono::duration<double>(Clock::now() - start_).count();
    ++hook_.calls;
  }
  HookTimer(const HookTimer&) = delete;
  HookTimer& operator=(const HookTimer&) = delete;

 private:
  HookTimes::Hook& hook_;
  Clock::time_point start_;
};

}  // namespace

rt::LoopConfig TimedScheduler::select_config(const rt::TaskloopSpec& spec, rt::Team& team) {
  const HookTimer timer(times_.select_config);
  return inner_->select_config(spec, team);
}

std::size_t TimedScheduler::distribute(const rt::TaskloopSpec& spec, const rt::LoopConfig& cfg,
                                       rt::Team& team, ilan::sim::SimTime& serial_cost) {
  const HookTimer timer(times_.distribute);
  return inner_->distribute(spec, cfg, team, serial_cost);
}

rt::AcquireResult TimedScheduler::acquire(rt::Team& team, rt::Worker& w) {
  const HookTimer timer(times_.acquire);
  rt::AcquireResult r = inner_->acquire(team, w);
  if (!r.task.has_value()) ++times_.acquire_empty;
  return r;
}

void TimedScheduler::place_ready(const rt::TaskGraphSpec& graph, rt::Task& task,
                                 const rt::LoopConfig& cfg, rt::Team& team,
                                 std::span<const ilan::topo::NodeId> pred_nodes,
                                 ilan::sim::SimTime& cost) {
  const HookTimer timer(times_.place_ready);
  inner_->place_ready(graph, task, cfg, team, pred_nodes, cost);
}

void TimedScheduler::loop_finished(const rt::TaskloopSpec& spec, const rt::LoopExecStats& stats,
                                   rt::Team& team) {
  const HookTimer timer(times_.loop_finished);
  inner_->loop_finished(spec, stats, team);
}

HookTimingScope::HookTimingScope(HookTimes& times)
    : saved_(ilan::sched::SchedulerRegistry::instance()) {
  auto& registry = ilan::sched::SchedulerRegistry::instance();
  for (const auto& name : saved_.names()) {
    registry.register_scheduler(
        name, saved_.description(name),
        [this, &times](const ilan::sched::SchedulerSpec& spec) -> std::unique_ptr<rt::Scheduler> {
          return std::make_unique<TimedScheduler>(saved_.make(spec.to_string()), times);
        });
  }
}

HookTimingScope::~HookTimingScope() { ilan::sched::SchedulerRegistry::instance() = saved_; }

}  // namespace perfbench
