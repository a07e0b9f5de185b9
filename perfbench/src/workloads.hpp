// The benchmark's workloads and the single-simulation runner.
//
// A workload is a fixed list of simulations (SimCase) built from the seed
// argument. One pass runs every case once, in order, on the calling
// thread, through the simulator's public API: rt::Machine,
// kernels::make_kernel + kernels::Program::run, serve::Server::run and
// sched::SchedulerRegistry. Host time is measured from outside, around
// those calls; everything else comes from counters the layers already
// expose.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "mem/memory_system.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

// In the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

enum class CaseKind : std::uint8_t { kProgram, kServe };

struct SimCase {
  CaseKind kind = CaseKind::kProgram;
  std::string item;   // kernel name (program) or serve scenario name
  std::string sched;  // scheduler registry spec
  // Program cases only. Pinned here rather than left at 0 (kernel default),
  // so a later change of a kernel's default cannot resize the input.
  int timesteps = 0;
  std::uint64_t seed = 0;  // machine seed
  int replica = 0;         // which seed replica of the workload this case is
};

// Throws std::invalid_argument for an unknown workload name.
[[nodiscard]] std::vector<SimCase> workload_cases(std::string_view workload,
                                                  std::uint64_t seed);

// Sets the DAG-size knobs the task-graph kernels read from the environment
// to the benchmark's fixed values. Call once, after refusing ambient
// ILAN_* variables.
void pin_dag_sizes();

// Everything measured about one simulation.
struct SimResult {
  bool ok = true;
  std::string error;
  std::uint64_t digest = 0;  // sim::Engine event digest
  // Engine counters.
  std::uint64_t events = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t peak_pending = 0;
  // Host seconds: set-up (machine build, program build, the rest of the
  // set-up: scheduler, team or server) and the drive (Program::run or
  // Server::run).
  double machine_build_s = 0.0;
  double program_build_s = 0.0;
  double setup_s = 0.0;  // all set-up, machine and program builds included
  double drive_s = 0.0;
  // Simulated results. sim_s is the program's makespan or the server run's
  // duration; merit_s is what a scheduler is judged on (the makespan for a
  // program, the p50 latency of ok requests for a server run).
  double sim_s = 0.0;
  double merit_s = 0.0;
  // Latencies of the case's units of work in simulated seconds: every
  // taskloop / task-graph execution of a program, every ok serve request.
  std::vector<double> latencies_s;
  std::int64_t units = 0;     // units offered: 1 per program, requests per server run
  std::int64_t units_ok = 0;  // units finished ok
  double overhead_sim_s = 0.0;  // program cases: Team's scheduling overhead
  ilan::mem::SolverStats solver;
  ilan::mem::TrafficStats traffic;
  // Serve counters (zero for program cases).
  std::int64_t serve_admitted = 0, serve_attempts = 0;
  std::int64_t shed_queue = 0, shed_slo = 0, shed_breaker = 0;
  std::int64_t retries = 0, tenant_trips = 0, node_trips = 0, expired = 0;
  // Traced runs only: the obs::MetricsRegistry attached to the machine.
  ilan::obs::MetricsRegistry metrics;
};

// Runs one case. `traced` attaches an obs::MetricsRegistry through
// Machine::set_metrics; the event digest is the same either way. Watchdog
// hits and exceptions become ok=false with the error recorded. With
// `drive` false the case is only set up (machine, scheduler, team,
// program or server) and torn down again: only the set-up times are filled.
[[nodiscard]] SimResult run_case(const SimCase& c, bool traced, bool drive = true);

}  // namespace perfbench
