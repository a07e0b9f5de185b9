#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>

#include "serve/server.hpp"

namespace perfbench {

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double pct(double num, double den) { return 100.0 * ratio(num, den); }

double geomean(const std::vector<double>& v) {
  double log_sum = 0.0;
  int n = 0;
  for (const double x : v) {
    if (x > 0.0) {
      log_sum += std::log(x);
      ++n;
    }
  }
  return n > 0 ? std::exp(log_sum / n) : 0.0;
}

// Percentile `p` (in ms) of the workload's unit latencies. Serve requests
// are pooled over the pass: thousands of them give a steady tail. Program
// executions are taken per seed replica and the median replica reported: a
// seed with a disturbed core (sim::NoiseParams) slows every execution on
// its machine and would otherwise set the pooled tail.
double unit_percentile_ms(const std::vector<SimCase>& cases, const PassTotals& pass,
                          double p) {
  std::vector<double> v;
  if (!cases.empty() && cases.front().kind == CaseKind::kServe) {
    for (const auto& lat : pass.latencies_s) v.insert(v.end(), lat.begin(), lat.end());
    return 1e3 * ilan::serve::percentile(std::move(v), p);
  }
  for (const auto& lat : pass.latencies_s) {
    if (!lat.empty()) v.push_back(1e3 * ilan::serve::percentile(lat, p));
  }
  return median(std::move(v));
}

std::vector<double> each(const PassTotals& pass, double CaseOutcome::*field) {
  std::vector<double> v;
  v.reserve(pass.cases.size());
  for (const auto& c : pass.cases) v.push_back(c.*field);
  return v;
}

// Mean over the workload's items (kernels or scenarios) of the share of
// the item's units that finished ok, pooled over replicas and schedulers.
// Items weigh equally, so the scenario that offers the most requests does
// not stand for the whole mix.
double ok_pct(const std::vector<SimCase>& cases, const PassTotals& pass) {
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> by_item;  // ok, offered
  for (std::size_t i = 0; i < cases.size() && i < pass.cases.size(); ++i) {
    auto& [ok, offered] = by_item[cases[i].item];
    ok += pass.cases[i].units_ok;
    offered += pass.cases[i].units;
  }
  double sum = 0.0;
  for (const auto& [item, counts] : by_item) {
    sum += pct(static_cast<double>(counts.first), static_cast<double>(counts.second));
  }
  return by_item.empty() ? 0.0 : sum / static_cast<double>(by_item.size());
}

template <typename F>
double median_of(const std::vector<PassTotals>& passes, F&& f) {
  std::vector<double> v;
  v.reserve(passes.size());
  for (const auto& p : passes) v.push_back(f(p));
  return median(std::move(v));
}

double counter(const ilan::obs::MetricsRegistry& m, const char* name) {
  const auto* c = m.find_counter(name);
  return c != nullptr ? static_cast<double>(c->value()) : 0.0;
}

}  // namespace

void PassTotals::add(const SimCase& c, const SimResult& r) {
  if (!r.ok) errors.push_back(r.error);
  cases.push_back({r.ok, r.digest, r.sim_s, r.merit_s,
                   1e3 * ilan::serve::percentile(r.latencies_s, 0.99), r.units, r.units_ok});
  host_s += r.drive_s;
  events += r.events;
  events_scheduled += r.events_scheduled;
  peak_pending = std::max(peak_pending, r.peak_pending);
  const auto replica = static_cast<std::size_t>(c.replica);
  if (latencies_s.size() <= replica) latencies_s.resize(replica + 1);
  latencies_s[replica].insert(latencies_s[replica].end(), r.latencies_s.begin(),
                              r.latencies_s.end());
  overhead_sim_s += r.overhead_sim_s;
  solver.resolves += r.solver.resolves;
  solver.full_builds += r.solver.full_builds;
  solver.cap_updates += r.solver.cap_updates;
  solver.skipped += r.solver.skipped;
  solver.coalesced += r.solver.coalesced;
  solver.compactions += r.solver.compactions;
  solver.flows_reclaimed += r.solver.flows_reclaimed;
  solver.delta_solves += r.solver.delta_solves;
  solver.delta_rounds_reused += r.solver.delta_rounds_reused;
  solver.delta_rounds_total += r.solver.delta_rounds_total;
  traffic.local_bytes += r.traffic.local_bytes;
  traffic.remote_bytes += r.traffic.remote_bytes;
  traffic.cross_socket_bytes += r.traffic.cross_socket_bytes;
  serve_admitted += r.serve_admitted;
  serve_attempts += r.serve_attempts;
  shed_queue += r.shed_queue;
  shed_slo += r.shed_slo;
  shed_breaker += r.shed_breaker;
  retries += r.retries;
  tenant_trips += r.tenant_trips;
  node_trips += r.node_trips;
  expired += r.expired;
  metrics.merge(r.metrics);
}

PassTotals run_pass(const std::vector<SimCase>& cases, bool traced) {
  PassTotals pass;
  std::optional<HookTimingScope> timing;
  if (traced) timing.emplace(pass.hooks);
  for (const auto& c : cases) pass.add(c, run_case(c, traced));
  return pass;
}

SetupTimes measure_setup(const std::vector<SimCase>& cases) {
  SetupTimes round;
  for (const auto& c : cases) {
    const SimResult r = run_case(c, false, /*drive=*/false);
    round.setup_s += r.setup_s;
    round.machine_build_s += r.machine_build_s;
    round.program_build_s += r.program_build_s;
  }
  return round;
}

SetupTimes median_setup(const std::vector<SetupTimes>& rounds) {
  const auto field = [&](double SetupTimes::*f) {
    std::vector<double> v;
    for (const auto& r : rounds) v.push_back(r.*f);
    return median(std::move(v));
  };
  return {field(&SetupTimes::setup_s), field(&SetupTimes::machine_build_s),
          field(&SetupTimes::program_build_s)};
}

std::map<std::string, double> ilan_speedups_pct(const std::vector<SimCase>& cases,
                                                 const std::vector<double>& merit_s) {
  struct Sums {
    double base = 0.0, ilan = 0.0;
    int n_base = 0, n_ilan = 0;
  };
  std::map<std::string, Sums> sums;
  for (std::size_t i = 0; i < cases.size() && i < merit_s.size(); ++i) {
    Sums& s = sums[cases[i].item];
    if (cases[i].sched == "baseline") {
      s.base += merit_s[i];
      ++s.n_base;
    } else if (cases[i].sched == "ilan") {
      s.ilan += merit_s[i];
      ++s.n_ilan;
    }
  }
  std::map<std::string, double> out;
  for (const auto& [item, s] : sums) {
    if (s.n_base == 0 || s.n_ilan == 0 || s.ilan <= 0.0) continue;
    out[item] = 100.0 * ((s.base / s.n_base) / (s.ilan / s.n_ilan) - 1.0);
  }
  return out;
}

double paper_err_pp(const std::map<std::string, double>& speedup_pct) {
  static const std::map<std::string, double> kPaper = {
      {"ft", 12.3}, {"bt", 16.9}, {"cg", 8.0}, {"sp", 45.8}};
  double sum = 0.0;
  int n = 0;
  for (const auto& [kernel, paper] : kPaper) {
    const auto it = speedup_pct.find(kernel);
    if (it == speedup_pct.end()) continue;
    sum += std::fabs(it->second - paper);
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

std::vector<Metric> end_to_end_metrics(const std::vector<SimCase>& cases,
                                       const std::vector<PassTotals>& plain,
                                       const SetupTimes& setup, double peak_rss_mb) {
  const PassTotals& first = plain.front();
  return {
      {"host_s", "s", median_of(plain, [](const PassTotals& p) { return p.host_s; })},
      {"events_per_s", "events/s",
       median_of(plain,
                 [](const PassTotals& p) { return ratio(static_cast<double>(p.events), p.host_s); })},
      {"setup_s", "s", setup.setup_s},
      {"peak_rss_mb", "MB", peak_rss_mb},
      {"sim_makespan_s", "s", geomean(each(first, &CaseOutcome::sim_s))},
      {"sim_p99_ms", "ms", unit_percentile_ms(cases, first, 0.99)},
      {"sim_ok_pct", "%", ok_pct(cases, first)},
  };
}

std::vector<Metric> per_layer_metrics(const std::vector<SimCase>& cases,
                                      const std::vector<PassTotals>& plain,
                                      const std::vector<PassTotals>& traced,
                                      const SetupTimes& setup, std::int64_t attempted,
                                      std::int64_t failed) {
  const PassTotals& t = traced.front();
  const auto& m = t.metrics;
  const auto& st = t.solver;
  const auto events = static_cast<double>(t.events);
  const auto traced_median = [&](auto f) { return median_of(traced, f); };
  const std::map<std::string, double> speedups = ilan_speedups_pct(cases, each(t, &CaseOutcome::merit_s));
  double speedup_sum = 0.0;
  for (const auto& [item, s] : speedups) speedup_sum += s;
  const double rt_threads = [&] {
    const auto* h = m.find_histogram("rt.loop.threads");
    return h != nullptr ? h->mean() : 0.0;
  }();
  const double plain_host = median_of(plain, [](const PassTotals& p) { return p.host_s; });
  const double traced_host = median_of(traced, [](const PassTotals& p) { return p.host_s; });

  return {
      // Set-up, split by the layer that builds.
      {"rt.machine_build_s", "s", setup.machine_build_s},
      {"kernels.program_build_s", "s", setup.program_build_s},
      // Engine.
      {"sim.events", "count", events},
      {"sim.events_scheduled", "count", static_cast<double>(t.events_scheduled)},
      {"sim.reschedule_ratio", "ratio",
       ratio(static_cast<double>(t.events_scheduled) - events, events)},
      {"sim.peak_pending", "count", static_cast<double>(t.peak_pending)},
      {"sim.drive_s", "s",
       traced_median([](const PassTotals& p) { return p.host_s - p.hooks.total_s(); })},
      // Memory system.
      {"mem.resolves", "count", static_cast<double>(st.resolves)},
      {"mem.resolves_per_event", "ratio", ratio(static_cast<double>(st.resolves), events)},
      {"mem.full_builds", "count", static_cast<double>(st.full_builds)},
      {"mem.cap_updates", "count", static_cast<double>(st.cap_updates)},
      {"mem.skipped", "count", static_cast<double>(st.skipped)},
      {"mem.coalesced", "count", static_cast<double>(st.coalesced)},
      {"mem.compactions", "count", static_cast<double>(st.compactions)},
      {"mem.flows_reclaimed", "count", static_cast<double>(st.flows_reclaimed)},
      {"mem.delta_solves", "count", static_cast<double>(st.delta_solves)},
      {"mem.delta_reuse_pct", "%",
       pct(static_cast<double>(st.delta_rounds_reused),
           static_cast<double>(st.delta_rounds_total))},
      {"mem.remote_bytes_pct", "%", pct(t.traffic.remote_bytes, t.traffic.total())},
      // Runtime.
      {"rt.tasks", "count", counter(m, "rt.tasks_executed")},
      {"rt.loops", "count", counter(m, "rt.loops")},
      {"rt.steal.intra_node", "count", counter(m, "rt.steal.intra_node")},
      {"rt.steal.cross_node", "count", counter(m, "rt.steal.cross_node")},
      {"rt.steal.rescue", "count", counter(m, "rt.steal.rescue")},
      {"rt.overhead_sim_s", "s", t.overhead_sim_s},
      {"rt.avg_threads", "threads", rt_threads},
      // Scheduler hooks (timing decorator) and PTT.
      {"sched.host_s", "s", traced_median([](const PassTotals& p) { return p.hooks.total_s(); })},
      {"sched.acquire.calls", "count", static_cast<double>(t.hooks.acquire.calls)},
      {"sched.acquire.host_s", "s",
       traced_median([](const PassTotals& p) { return p.hooks.acquire.host_s; })},
      {"sched.select_config.host_s", "s",
       traced_median([](const PassTotals& p) { return p.hooks.select_config.host_s; })},
      {"sched.distribute.host_s", "s",
       traced_median([](const PassTotals& p) { return p.hooks.distribute.host_s; })},
      {"sched.place_ready.host_s", "s",
       traced_median([](const PassTotals& p) { return p.hooks.place_ready.host_s; })},
      {"sched.acquire.empty_pct", "%",
       pct(static_cast<double>(t.hooks.acquire_empty),
           static_cast<double>(t.hooks.acquire.calls))},
      {"sched.sim_speedup_pct", "%",
       speedups.empty() ? 0.0 : speedup_sum / static_cast<double>(speedups.size())},
      {"ptt.probe", "count", counter(m, "ptt.probe")},
      {"ptt.lock", "count", counter(m, "ptt.lock")},
      {"ptt.reexplore", "count", counter(m, "ptt.reexplore")},
      // Serving layer.
      {"serve.admit_pct", "%",
       pct(static_cast<double>(t.serve_admitted), static_cast<double>(t.serve_attempts))},
      {"serve.shed.queue", "count", static_cast<double>(t.shed_queue)},
      {"serve.shed.slo", "count", static_cast<double>(t.shed_slo)},
      {"serve.shed.breaker", "count", static_cast<double>(t.shed_breaker)},
      {"serve.retries", "count", static_cast<double>(t.retries)},
      {"serve.breaker.tenant_trips", "count", static_cast<double>(t.tenant_trips)},
      {"serve.breaker.node_trips", "count", static_cast<double>(t.node_trips)},
      {"serve.expired", "count", static_cast<double>(t.expired)},
      {"serve.p50_ms", "ms", t.serve_attempts > 0 ? unit_percentile_ms(cases, t, 0.50) : 0.0},
      // Whole-run results that only some workloads define.
      {"paper_err_pp", "pp", paper_err_pp(speedups)},
      {"failed_runs_pct", "%",
       pct(static_cast<double>(failed), static_cast<double>(attempted))},
      {"trace_overhead_pct", "%", 100.0 * (ratio(traced_host, plain_host) - 1.0)},
  };
}

std::string result_json(bool correct, std::int64_t attempted, std::int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
