#include "workloads.hpp"

#include <chrono>
#include <cstdlib>
#include <exception>
#include <span>
#include <stdexcept>

#include "kernels/kernels.hpp"
#include "rt/team.hpp"
#include "sched/registry.hpp"
#include "serve/server.hpp"
#include "topo/registry.hpp"

namespace perfbench {

namespace kernels = ilan::kernels;
namespace rt = ilan::rt;
namespace serve = ilan::serve;
namespace sim = ilan::sim;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// A run still busy this far into simulated time is a runaway; no benchmark
// case comes near it.
constexpr double kWatchdogSimS = 600.0;

struct Kernel {
  const char* name;
  int timesteps;
};
// The paper kernels at their default sizes (Figure 2), in paper order.
constexpr Kernel kPaperKernels[] = {{"ft", 60}, {"bt", 50},     {"cg", 60},    {"lu", 55},
                                    {"sp", 50}, {"matmul", 60}, {"lulesh", 50}};
// The task-graph kernels at their default sizes (pin_dag_sizes fixes the
// graph shapes).
constexpr Kernel kDagKernels[] = {{"lu-dag", 6}, {"treered", 8}, {"dphim", 5}};

// Seed replicas per pass. Each machine seed has a small chance of a
// disturbed core (sim::NoiseParams), and serve arrivals are drawn from the
// seed, so the simulated results are taken over several machine seeds:
// enough that one outlier seed moves them little, few enough that a pass
// stays within about seven host seconds.
constexpr int kTaskloopReplicas = 3;
constexpr int kDagReplicas = 8;
constexpr int kServeReplicas = 12;

std::uint64_t machine_seed(std::uint64_t seed, int replica) {
  return seed * 1000 + static_cast<std::uint64_t>(replica) + 1;
}

void add_programs(std::vector<SimCase>& out, std::span<const Kernel> kernels,
                  std::span<const char* const> scheds, std::uint64_t seed, int replicas) {
  for (int r = 0; r < replicas; ++r) {
    for (const Kernel& k : kernels) {
      for (const char* s : scheds) {
        out.push_back({CaseKind::kProgram, k.name, s, k.timesteps, machine_seed(seed, r), r});
      }
    }
  }
}

rt::MachineParams paper_machine(std::uint64_t seed) {
  rt::MachineParams p;
  p.spec = ilan::topo::make_machine_spec("zen4");
  // The calibrated memory model of the paper platform, spelled out so that
  // no change of a default alters the benchmark's input.
  p.mem.remote_eff_exponent = 0.22;
  p.mem.congestion_beta = 0.50;
  p.mem.congestion_knee = 3.0;
  p.mem.congestion_derate_max = 3.5;
  p.mem.gather_bw_factor = 0.35;
  p.mem.gather_lat_beta = 0.75;
  p.mem.gather_lat_knee = 3.0;
  p.seed = seed;
  return p;
}

serve::ServeParams serve_params() {
  serve::ServeParams p;
  p.queue_cap = 8;
  p.max_retries = 3;
  p.breaker_threshold = 4;
  p.breaker_cooldown_s = 0.05;
  p.ewma_alpha = 0.3;
  return p;
}

void run_program(const SimCase& c, rt::Machine& machine, SimResult& r,
                 Clock::time_point t0, bool drive) {
  auto scheduler = ilan::sched::SchedulerRegistry::instance().make(c.sched);
  rt::Team team(machine, *scheduler);
  team.set_deadline(sim::from_seconds(kWatchdogSimS));
  kernels::KernelOptions opts;
  opts.timesteps = c.timesteps;
  const auto t_prog = Clock::now();
  const kernels::Program program = kernels::make_kernel(c.item, machine, opts);
  const auto t1 = Clock::now();
  r.program_build_s = seconds_between(t_prog, t1);
  r.setup_s = seconds_between(t0, t1);
  if (!drive) return;

  r.units = 1;
  r.sim_s = sim::to_seconds(program.run(team));
  r.drive_s = seconds_between(t1, Clock::now());
  r.units_ok = 1;
  r.merit_s = r.sim_s;
  r.overhead_sim_s = sim::to_seconds(team.overhead().grand_total());
  for (const auto& loop : team.history()) r.latencies_s.push_back(sim::to_seconds(loop.wall));
}

void run_server(const SimCase& c, rt::Machine& machine, SimResult& r,
                Clock::time_point t0, bool drive) {
  serve::Server server(machine, serve::make_scenario(c.item), serve_params(), c.sched);
  const auto t1 = Clock::now();
  r.setup_s = seconds_between(t0, t1);
  if (!drive) return;

  const serve::ServeReport rep = server.run();
  r.drive_s = seconds_between(t1, Clock::now());
  r.sim_s = rep.duration_s;
  r.merit_s = rep.p50_s;
  for (const auto& t : rep.tenants) {
    r.latencies_s.insert(r.latencies_s.end(), t.latencies_s.begin(), t.latencies_s.end());
  }
  r.units = rep.offered;
  r.units_ok = rep.ok;
  r.serve_admitted = rep.admitted;
  r.serve_attempts = rep.offered + rep.retries;
  r.shed_queue = rep.shed_queue;
  r.shed_slo = rep.shed_slo;
  r.shed_breaker = rep.shed_breaker;
  r.retries = rep.retries;
  r.tenant_trips = rep.tenant_trips;
  r.node_trips = rep.node_trips;
  r.expired = rep.expired;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"taskloop-paper", "dag-release",
                                                 "serve-mix"};
  return names;
}

std::vector<SimCase> workload_cases(std::string_view workload, std::uint64_t seed) {
  std::vector<SimCase> out;
  if (workload == "taskloop-paper") {
    static constexpr const char* kScheds[] = {"baseline", "ilan"};
    add_programs(out, kPaperKernels, kScheds, seed, kTaskloopReplicas);
  } else if (workload == "dag-release") {
    static constexpr const char* kScheds[] = {"baseline", "ilan",
                                              "composed:dist=dep-aware"};
    add_programs(out, kDagKernels, kScheds, seed, kDagReplicas);
  } else if (workload == "serve-mix") {
    for (int r = 0; r < kServeReplicas; ++r) {
      for (const auto& scenario : serve::scenario_names()) {
        for (const char* s : {"baseline", "ilan"}) {
          out.push_back({CaseKind::kServe, scenario, s, 0, machine_seed(seed, r), r});
        }
      }
    }
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(workload) + "'");
  }
  return out;
}

void pin_dag_sizes() {
  ::setenv("ILAN_DAG_TILE", "12", 1);
  ::setenv("ILAN_DAG_LEAVES", "256", 1);
  ::setenv("ILAN_DAG_PARTITIONS", "32", 1);
}

SimResult run_case(const SimCase& c, bool traced, bool drive) {
  SimResult r;
  const auto t0 = Clock::now();
  rt::Machine machine(paper_machine(c.seed));
  r.machine_build_s = seconds_between(t0, Clock::now());
  machine.engine().set_digest_enabled(true);
  if (traced) machine.set_metrics(&r.metrics);  // before Team/Server: handles cache
  try {
    if (c.kind == CaseKind::kProgram) {
      run_program(c, machine, r, t0, drive);
    } else {
      run_server(c, machine, r, t0, drive);
    }
  } catch (const std::exception& e) {
    // rt::WatchdogTimeout included: a failed run is recorded, never thrown.
    r.ok = false;
    r.error = e.what();
  }
  auto& engine = machine.engine();
  r.digest = engine.event_digest();
  r.events = engine.events_fired();
  r.events_scheduled = engine.events_scheduled();
  r.peak_pending = engine.pool_slots();
  r.solver = machine.memory().solver_stats();
  r.traffic = machine.memory().traffic();
  machine.set_metrics(nullptr);
  return r;
}

}  // namespace perfbench
