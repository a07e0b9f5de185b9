// The benchmark's own tests: the hook-timing decorator must not change what
// is simulated, every printed metric must be declared in BENCHMARK.json,
// and the accuracy metric must compute what it says.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "report.hpp"
#include "sched/registry.hpp"
#include "timed_scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Every scheduler spec the three workloads use, with a small instance of
// each case kind that spec runs on.
std::vector<SimCase> digest_cases() {
  std::vector<SimCase> out;
  for (const char* sched : {"baseline", "ilan", "composed:dist=dep-aware"}) {
    out.push_back({CaseKind::kProgram, "cg", sched, 3, 7, 0});
    out.push_back({CaseKind::kProgram, "lu-dag", sched, 1, 7, 0});
    out.push_back({CaseKind::kProgram, "treered", sched, 1, 7, 0});
  }
  for (const auto& sc : workload_cases("serve-mix", 7)) {
    if (sc.replica == 0) out.push_back(sc);
  }
  return out;
}

TEST(HookTiming, DecoratorIsDigestNeutral) {
  pin_dag_sizes();
  for (const SimCase& c : digest_cases()) {
    SCOPED_TRACE(c.item + "/" + c.sched);
    const SimResult plain = run_case(c, false);
    ASSERT_TRUE(plain.ok) << plain.error;
    HookTimes times;
    SimResult timed;
    {
      const HookTimingScope scope(times);
      timed = run_case(c, true);
    }
    ASSERT_TRUE(timed.ok) << timed.error;
    EXPECT_EQ(plain.digest, timed.digest);
    EXPECT_EQ(plain.events, timed.events);
    // The decorator really sat under the simulation (inside serve's
    // mask-confining wrapper for server cases).
    EXPECT_GT(times.select_config.calls, 0U);
    EXPECT_GT(times.acquire.calls, 0U);
    EXPECT_GT(times.total_s(), 0.0);
  }
}

TEST(HookTiming, ScopeRestoresTheRegistry) {
  const std::string spec = "composed:dist=dep-aware";
  HookTimes times;
  std::string timed_spec;
  {
    const HookTimingScope scope(times);
    const auto s = ilan::sched::make_scheduler(spec);
    EXPECT_NE(dynamic_cast<TimedScheduler*>(s.get()), nullptr);
    timed_spec = s->introspect().spec;
  }
  const auto s = ilan::sched::make_scheduler(spec);
  EXPECT_EQ(dynamic_cast<TimedScheduler*>(s.get()), nullptr);
  EXPECT_EQ(timed_spec, s->introspect().spec);
}

// (name, unit) pairs of one BENCHMARK.json metric list.
std::vector<std::pair<std::string, std::string>> declared(const std::string& list) {
  std::ifstream in(PERFBENCH_MANIFEST);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const auto begin = text.find("\"" + list + "\"");
  EXPECT_NE(begin, std::string::npos) << list << " missing from " << PERFBENCH_MANIFEST;
  const auto end = text.find(']', begin);
  const std::string section = text.substr(begin, end - begin);
  static const std::regex entry(R"re("name":\s*"([^"]*)",\s*"(?:unit|why)":\s*"([^"]*)")re");
  std::vector<std::pair<std::string, std::string>> out;
  for (std::sregex_iterator it(section.begin(), section.end(), entry), last; it != last; ++it) {
    out.emplace_back((*it)[1], (*it)[2]);
  }
  return out;
}

void expect_matches_manifest(const std::vector<Metric>& metrics, const std::string& list) {
  static const std::regex name_re("[A-Za-z0-9_.-]+");
  std::vector<std::pair<std::string, std::string>> printed;
  std::set<std::string> seen;
  for (const auto& m : metrics) {
    EXPECT_TRUE(std::regex_match(m.name, name_re)) << m.name;
    EXPECT_TRUE(seen.insert(m.name).second) << "printed twice: " << m.name;
    printed.emplace_back(m.name, m.unit);
  }
  EXPECT_EQ(printed, declared(list));
}

TEST(Metrics, EveryPrintedMetricIsDeclared) {
  const std::vector<SimCase> cases = workload_cases("taskloop-paper", 1);
  const std::vector<PassTotals> passes(1);
  expect_matches_manifest(end_to_end_metrics(cases, passes, {}, 1.0), "end_to_end");
  expect_matches_manifest(per_layer_metrics(cases, passes, passes, {}, 1, 0), "per_layer");
}

TEST(Metrics, WorkloadsMatchTheManifest) {
  std::vector<std::string> names;
  for (const auto& [name, why] : declared("workloads")) names.push_back(name);
  EXPECT_EQ(names, workload_names());
  for (const auto& w : workload_names()) EXPECT_FALSE(workload_cases(w, 1).empty()) << w;
}

TEST(Metrics, PaperErrorOnAFixedTable) {
  // Exactly the paper's numbers: no error; other kernels are ignored.
  EXPECT_DOUBLE_EQ(
      paper_err_pp({{"ft", 12.3}, {"bt", 16.9}, {"cg", 8.0}, {"sp", 45.8}, {"matmul", -50.0}}),
      0.0);
  // |22.3-12.3| + |6.9-16.9| + 0 + |40.8-45.8| over four kernels.
  EXPECT_NEAR(paper_err_pp({{"ft", 22.3}, {"bt", 6.9}, {"cg", 8.0}, {"sp", 40.8}}), 6.25,
              1e-12);
  // Only the kernels present count.
  EXPECT_NEAR(paper_err_pp({{"sp", 50.8}}), 5.0, 1e-12);
  EXPECT_DOUBLE_EQ(paper_err_pp({{"lu-dag", 3.0}}), 0.0);
}

TEST(Metrics, SpeedupsAverageReplicasBeforeTheRatio) {
  const std::vector<SimCase> cases = {{CaseKind::kProgram, "sp", "baseline", 1, 1, 0},
                                      {CaseKind::kProgram, "sp", "ilan", 1, 1, 0},
                                      {CaseKind::kProgram, "sp", "baseline", 1, 2, 1},
                                      {CaseKind::kProgram, "sp", "ilan", 1, 2, 1},
                                      {CaseKind::kProgram, "cg", "baseline", 1, 1, 0}};
  const auto s = ilan_speedups_pct(cases, {1.2, 1.0, 1.7, 1.0, 9.0});
  ASSERT_EQ(s.size(), 1U);  // cg never ran under ilan
  EXPECT_NEAR(s.at("sp"), 45.0, 1e-9);
  EXPECT_NEAR(paper_err_pp(s), 0.8, 1e-9);
}

}  // namespace
}  // namespace perfbench
