// perfbench: the simulator's single-thread benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Builds the workload's cases from the seed, pins itself to one CPU, runs
// one warm-up pass and then untraced passes (and, with --trace 1, traced
// passes alternating with them) until --seconds have passed, with at least
// kMinPasses of each. It checks that every pass fired the same event
// digests as the warm-up, and prints the host fingerprint, the combined
// digest, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). See perfbench/README.md.
#include <sched.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "report.hpp"
#include "sim/engine.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using perfbench::PassTotals;
using Clock = std::chrono::steady_clock;

constexpr int kMinPasses = 3;
// Set-up is cheap (milliseconds per workload), so it is measured in many
// build-only rounds, a few after each pass so that they spread over the run
// rather than share one moment's host noise, and reported as their median.
constexpr int kSetupRoundsPerPass = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    char* end = nullptr;
    errno = 0;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0' || errno != 0 || val[0] == '-') usage("bad --seed " + val);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(a.seconds > 0.0) || a.seconds > 120.0) {
        usage("bad --seconds " + val);
      }
      have_seconds = true;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("bad --trace " + val);
      a.trace = val == "1";
    } else {
      usage("unknown argument " + key);
    }
  }
  if (!have_workload || !have_seed || !have_seconds) {
    usage("--workload, --seed and --seconds are required");
  }
  return a;
}

// The workload's inputs come from the arguments only: an ILAN_* knob in
// the environment could change the topology, sizes or behaviour of what
// is measured, so the benchmark refuses to run under one.
std::vector<std::string> ambient_ilan_knobs() {
  std::vector<std::string> out;
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    if (std::strncmp(*e, "ILAN_", 5) == 0) {
      const char* eq = std::strchr(*e, '=');
      out.emplace_back(*e, eq != nullptr ? static_cast<std::size_t>(eq - *e) : std::strlen(*e));
    }
  }
  return out;
}

// Pins the process to the highest-numbered CPU it may run on. Returns that
// CPU, or -1 with `note` saying why pinning was skipped.
int pin_to_one_cpu(std::string& note) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    note = std::string("sched_getaffinity: ") + std::strerror(errno);
    return -1;
  }
  int cpu = -1;
  for (int c = CPU_SETSIZE - 1; c >= 0 && cpu < 0; --c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (cpu < 0 || sched_setaffinity(0, sizeof one, &one) != 0) {
    note = std::string("sched_setaffinity: ") + std::strerror(errno);
    return -1;
  }
  return cpu;
}

const char* compiler() {
#if defined(__clang__)
  return "clang-" __clang_version__;
#elif defined(__GNUC__)
  return "gcc-" __VERSION__;
#else
  return "unknown";
#endif
}

// Peak resident memory of this process image. VmHWM, not getrusage's
// ru_maxrss: Linux carries ru_maxrss over exec, so it would report the
// launching process's peak when that was larger.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

std::uint64_t combined_digest(const PassTotals& pass) {
  std::uint64_t d = 0;
  for (const auto& c : pass.cases) d = ilan::sim::Engine::mix64(d ^ c.digest);
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (const auto knobs = ambient_ilan_knobs(); !knobs.empty()) {
    std::string list;
    for (const auto& k : knobs) list += " " + k;
    std::fprintf(stderr, "perfbench: refusing to run with ILAN_* knobs set:%s\n", list.c_str());
    return 2;
  }
  std::vector<perfbench::SimCase> cases;
  try {
    cases = perfbench::workload_cases(args.workload, args.seed);
  } catch (const std::exception& e) {
    usage(e.what());
  }
  perfbench::pin_dag_sizes();

  std::string pin_note;
  const int cpu = pin_to_one_cpu(pin_note);
  std::printf("# host nproc=%ld pinned_cpu=%d compiler=%s build_type=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), cpu, compiler(), PERFBENCH_BUILD_TYPE);
  if (cpu < 0) std::printf("# pinning skipped: %s\n", pin_note.c_str());
  std::printf("# workload=%s seed=%" PRIu64 " cases=%zu seconds=%g trace=%d\n",
              args.workload.c_str(), args.seed, cases.size(), args.seconds,
              args.trace ? 1 : 0);
  std::fflush(stdout);

  // The warm-up pass fills caches and lazily-built state, and its digests
  // are the reference every later pass must repeat. A case fails when it
  // did not end ok or fired other events than in the warm-up.
  const PassTotals reference = perfbench::run_pass(cases, false);
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  const auto check = [&](const PassTotals& p) {
    errors.insert(errors.end(), p.errors.begin(), p.errors.end());
    for (std::size_t i = 0; i < p.cases.size(); ++i) {
      ++attempted;
      if (!p.cases[i].ok || p.cases[i].digest != reference.cases[i].digest) ++failed;
    }
  };
  check(reference);

  std::vector<perfbench::SetupTimes> setup_rounds;
  std::vector<PassTotals> plain, traced;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  while (Clock::now() < deadline || plain.size() < kMinPasses) {
    plain.push_back(perfbench::run_pass(cases, false));
    check(plain.back());
    for (int i = 0; i < kSetupRoundsPerPass; ++i) {
      setup_rounds.push_back(perfbench::measure_setup(cases));
    }
    if (args.trace) {
      traced.push_back(perfbench::run_pass(cases, true));
      check(traced.back());
    }
  }

  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    const auto& o = reference.cases[i];
    std::printf("# case %-8s %-24s seed=%-8" PRIu64 " sim_s=%-10.6g ok=%" PRId64 "/%" PRId64
                " p99_ms=%-8.4g digest=%016" PRIx64 "\n",
                c.item.c_str(), c.sched.c_str(), c.seed, o.sim_s, o.units_ok, o.units, o.p99_ms,
                o.digest);
  }
  for (const auto& e : errors) std::printf("# failed run: %s\n", e.c_str());
  std::printf("# digest %016" PRIx64 " passes=%zu traced_passes=%zu\n",
              combined_digest(reference), plain.size(), traced.size());
  std::printf("# pass host_s:");
  for (const auto& p : plain) std::printf(" %.4f", p.host_s);
  for (const auto& p : traced) std::printf(" traced:%.4f", p.host_s);
  std::printf("\n");
  const perfbench::SetupTimes setup = perfbench::median_setup(setup_rounds);
  const auto metrics =
      args.trace ? perfbench::per_layer_metrics(cases, plain, traced, setup, attempted, failed)
                 : perfbench::end_to_end_metrics(cases, plain, setup, peak_rss_mb());
  for (const auto& m : metrics) {
    std::printf("# %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  const bool correct = failed == 0 && reference.events > 0;
  std::printf("%s\n", perfbench::result_json(correct, attempted, failed, metrics).c_str());
  return 0;
}
