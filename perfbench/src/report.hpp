// Passes, their totals, and the metrics the benchmark prints.
//
// A pass runs every case of a workload once. Untraced passes give the
// end-to-end metrics; traced passes (metrics registry attached, scheduler
// hooks timed) give the per-layer ones. Each host-time metric is the median
// over passes; each count comes from one pass, because counts repeat
// exactly from pass to pass.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "timed_scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// What one case of a pass produced.
struct CaseOutcome {
  bool ok = true;  // no watchdog hit, nothing thrown
  std::uint64_t digest = 0;
  double sim_s = 0.0;
  double merit_s = 0.0;
  double p99_ms = 0.0;  // p99 of the case's unit latencies
  std::int64_t units = 0;
  std::int64_t units_ok = 0;
};

struct PassTotals {
  std::vector<std::string> errors;  // of the cases that did not end ok
  std::vector<CaseOutcome> cases;  // in case order
  double host_s = 0.0;             // summed drive time
  std::uint64_t events = 0;
  std::uint64_t events_scheduled = 0;
  std::uint64_t peak_pending = 0;  // max over cases
  std::vector<std::vector<double>> latencies_s;  // per seed replica, pooled over its cases
  double overhead_sim_s = 0.0;
  ilan::mem::SolverStats solver;  // summed
  ilan::mem::TrafficStats traffic;
  std::int64_t serve_admitted = 0, serve_attempts = 0;
  std::int64_t shed_queue = 0, shed_slo = 0, shed_breaker = 0;
  std::int64_t retries = 0, tenant_trips = 0, node_trips = 0, expired = 0;
  ilan::obs::MetricsRegistry metrics;  // traced passes: merged over cases
  HookTimes hooks;                     // traced passes

  void add(const SimCase& c, const SimResult& r);
};

// Runs every case once on the calling thread. A traced pass attaches a
// metrics registry to each machine and times every scheduler hook.
[[nodiscard]] PassTotals run_pass(const std::vector<SimCase>& cases, bool traced);

// Set-up host seconds of a whole workload: every case built and torn down
// once.
struct SetupTimes {
  double setup_s = 0.0;
  double machine_build_s = 0.0;
  double program_build_s = 0.0;
};
[[nodiscard]] SetupTimes measure_setup(const std::vector<SimCase>& cases);
// Field-wise median over rounds.
[[nodiscard]] SetupTimes median_setup(const std::vector<SetupTimes>& rounds);

// Simulated speedup of ilan over baseline in percent, per case item
// (kernel or scenario) that ran under both: (mean baseline merit / mean
// ilan merit - 1) * 100, means taken over the seed replicas.
[[nodiscard]] std::map<std::string, double> ilan_speedups_pct(
    const std::vector<SimCase>& cases, const std::vector<double>& merit_s);

// Mean absolute gap, in percentage points, between simulated speedups and
// the four the paper states numerically (ft +12.3, bt +16.9, cg +8.0,
// sp +45.8; bench/fig2_overall_speedup.cpp). Kernels missing from
// `speedup_pct` are skipped; 0 when none of the four is present.
[[nodiscard]] double paper_err_pp(const std::map<std::string, double>& speedup_pct);

[[nodiscard]] double median(std::vector<double> v);

// --trace 0: measured from untraced passes. `plain` must not be empty.
[[nodiscard]] std::vector<Metric> end_to_end_metrics(const std::vector<SimCase>& cases,
                                                     const std::vector<PassTotals>& plain,
                                                     const SetupTimes& setup,
                                                     double peak_rss_mb);

// --trace 1: counts from the first traced pass, host times as medians over
// the traced passes, trace overhead against the untraced ones. Neither
// list may be empty.
[[nodiscard]] std::vector<Metric> per_layer_metrics(const std::vector<SimCase>& cases,
                                                    const std::vector<PassTotals>& plain,
                                                    const std::vector<PassTotals>& traced,
                                                    const SetupTimes& setup,
                                                    std::int64_t attempted, std::int64_t failed);

// The benchmark's result line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_json(bool correct, std::int64_t attempted,
                                      std::int64_t failed, const std::vector<Metric>& metrics);

}  // namespace perfbench
