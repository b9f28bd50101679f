// perfbench: the repository benchmark's workload runner.
//
//   perfbench --workload <serve_steady|serve_overload|fft3d_large|sim_machine>
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//   perfbench --selftest
//
// Prints the environment, human-readable results, and as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"} holding every
// metric the run measured. perfbench/run.py builds this binary and keeps
// the metrics BENCHMARK.json lists for the run's mode.
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace {

const Clock::time_point g_process_start = Clock::now();

unsigned online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return 1;
}

std::uint64_t l3_bytes() {
  std::ifstream f("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::string s;
  if (!(f >> s) || s.empty()) return 0;
  std::uint64_t mult = 1;
  if (s.back() == 'K') mult = 1024;
  if (s.back() == 'M') mult = 1024 * 1024;
  return std::strtoull(s.c_str(), nullptr, 10) * mult;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <serve_steady|serve_overload|"
               "fft3d_large|sim_machine> --seed N --seconds S --trace 0|1"
               " [--trace-out FILE]\n       perfbench --selftest\n");
  return 2;
}

void print_json(const Report& rep) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              rep.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed));
  const char* sep = "";
  for (const auto& m : rep.metrics) {
    std::printf("%s\"%s\": {\"value\": ", sep, m.name.c_str());
    if (std::isfinite(m.value)) {
      std::printf("%.17g", m.value);
    } else {
      std::printf("null");
    }
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace

Clock::time_point process_start() { return g_process_start; }

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions opt;
  std::string trace_out;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") {
      selftest = true;
    } else if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: unknown or incomplete argument '%s'\n",
                   a.c_str());
      return usage();
    }
  }
  const int selftest_failures = run_selftest(selftest);
  if (selftest) {
    std::printf("selftest: %d failure(s)\n", selftest_failures);
    return selftest_failures == 0 ? 0 : 1;
  }
  if (selftest_failures != 0) {
    std::fprintf(stderr, "perfbench: statistics self-test failed\n");
    return 1;
  }
  if (!(opt.seconds > 0.0) || opt.seconds > 600.0) return usage();
  opt.nproc = online_cpus();

  try {
    Tracer tracer(opt.trace);
    Report rep;
    double flip_rate = 0.0;
    if (opt.workload == "serve_steady") {
      rep = run_serve(opt, /*overload=*/false, tracer);
      flip_rate = kSteadyFlipRate;
    } else if (opt.workload == "serve_overload") {
      rep = run_serve(opt, /*overload=*/true, tracer);
    } else if (opt.workload == "fft3d_large") {
      rep = run_fft3d(opt, tracer);
    } else if (opt.workload == "sim_machine") {
      rep = run_sim(opt, tracer);
    } else {
      return usage();
    }
    rep.set("peak_rss_mb", peak_rss_mib(), "MiB");

    const std::uint64_t l3 = l3_bytes();
    const char* build = PERFBENCH_BUILD_TYPE;
    std::printf(
        "env: nproc %u, pool lanes %u, L3 %llu bytes, largest array %llu"
        " bytes (%.2fx L3), build %s%s\n",
        opt.nproc, rep.pool_lanes, static_cast<unsigned long long>(l3),
        static_cast<unsigned long long>(rep.working_set_bytes),
        l3 > 0 ? static_cast<double>(rep.working_set_bytes) / l3 : 0.0, build,
        std::string(build) == "Release"
            ? ""
            : "  WARNING: not a Release build; timings are not comparable");
    std::printf("setup_s %.6f s\npeak_rss_mb %.1f MiB\nfail_ratio %.6f ratio"
                " (%llu of %llu)\n",
                rep.get("setup_s"), rep.get("peak_rss_mb"),
                rep.attempted == 0 ? 0.0
                                   : static_cast<double>(rep.failed) /
                                         static_cast<double>(rep.attempted),
                static_cast<unsigned long long>(rep.failed),
                static_cast<unsigned long long>(rep.attempted));

    if (opt.trace) {
      run_probes(opt, flip_rate, tracer, rep);
      std::printf("trace: %zu spans\n%-32s %8s %12s %12s\n", tracer.size(),
                  "span", "count", "total_ms", "self_ms");
      for (const auto& s : tracer.summarize()) {
        std::printf("%-32s %8llu %12.3f %12.3f\n", s.name.c_str(),
                    static_cast<unsigned long long>(s.count),
                    s.total_seconds * 1e3, s.self_seconds * 1e3);
      }
      if (!trace_out.empty() && !tracer.write_csv(trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     trace_out.c_str());
      }
    }
    std::fflush(stdout);
    print_json(rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
