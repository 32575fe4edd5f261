// perfbench: one benchmark over the repo's three hot paths.
//
//   perfbench --workload <mission-sweep|plan-cold|serve-mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>]
//             [--setup-only <0|1>] [--setup-samples <s,s,...>]
//
// Prints a context line, a human-readable metric table, and as the last
// line the JSON result {"correct", "attempted", "failed", "metrics"}.
// Exits 1 on a correctness mismatch or an error, 2 on bad arguments, 3 when
// built as anything but Release.
//
// --setup-only 1 stops after set-up and reports only setup_s; run.py uses it
// to repeat the cold set-up in fresh processes and passes the times of those
// back through --setup-samples, which the untraced run folds into setup_s.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>

#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {

std::size_t worker_count() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(4, hw);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak (run.py's
  // Python interpreter) whenever that is higher.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b) {
  std::uint64_t x = seed ^ (a * 0x9e3779b97f4a7c15ull) ^
                    (b * 0xc2b2ae3d27d4eb4full);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

void report_latency(Report& report, const std::vector<double>& op_ms,
                    double tail_q, std::size_t window) {
  report.context("op_samples", double(op_ms.size()));
  report.context("tail_percentile", tail_q * 100.0);
  report.context("tail_window", double(window));
  if (op_ms.size() < window || !tail_reportable(window, tail_q)) {
    throw std::logic_error("op_ms_tail: " + std::to_string(op_ms.size()) +
                           " samples in windows of " + std::to_string(window) +
                           " leave fewer than " +
                           std::to_string(kMinTailSamples) +
                           " beyond the tail");
  }
  std::vector<double> sorted = op_ms;
  std::sort(sorted.begin(), sorted.end());
  report.metric("op_ms_p50", percentile(sorted, 0.5), "ms");
  report.context("tail_windows", double(op_ms.size() / window));
  report.metric("op_ms_tail", windowed_percentile(op_ms, window, tail_q), "ms");
}

double setup_seconds(const RunArgs& args) {
  return ms_since(args.started) / 1000.0;
}

void report_setup(Report& report, const RunArgs& args, double this_setup_s) {
  std::vector<double> samples = args.setup_samples;
  samples.push_back(this_setup_s);
  std::string list;
  for (const double s : samples) {
    list += (list.empty() ? "" : " ") + std::to_string(s);
  }
  report.context("setup_samples_s", list);
  report.metric("setup_s", median(samples), "s");
}

void report_layers(Report& report, const LayerTable& table,
                   const std::vector<Span>& spans, const RunArgs& args,
                   const std::string& file) {
  for (const auto& [name, self_ms] : table.self_ms) {
    report.metric(name + "_ms", table.per_op_ms(name), "ms");
  }
  report.metric("unattributed_ms",
                table.ops > 0 ? table.unattributed_ms / double(table.ops) : 0.0,
                "ms");
  dump_layers(report, table, spans, args, file);
}

void dump_layers(Report& report, const LayerTable& table,
                 const std::vector<Span>& spans, const RunArgs& args,
                 const std::string& file) {
  report.metric("span_coverage_pct", 100.0 * table.attributed_fraction(), "%");
  report.context("traced_ops", double(table.ops));
  report.context("dumped_spans", double(spans.size()));
  const std::string path = args.out_dir + "/" + file;
  if (!write_spans(path, spans)) {
    throw std::runtime_error("cannot write span dump " + path);
  }
  report.context("span_dump", path);
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<mission-sweep|plan-cold|serve-mixed> --seed <n> --seconds "
               "<s> --trace <0|1> [--out <dir>] [--setup-only <0|1>] "
               "[--setup-samples <s,s,...>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  args.started = std::chrono::steady_clock::now();

  const std::string_view build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  constexpr bool kAsserts = true;
#else
  constexpr bool kAsserts = false;
#endif
  if (build_type != "Release" || kAsserts) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  std::string workload;
  bool have_seed = false, have_seconds = false, have_trace = false;
  args.out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
        have_seconds = args.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        args.trace = value == "1";
        have_trace = true;
      } else if (flag == "--out") {
        args.out_dir = value;
      } else if (flag == "--setup-only") {
        if (value != "0" && value != "1") {
          return usage("--setup-only takes 0 or 1");
        }
        args.setup_only = value == "1";
      } else if (flag == "--setup-samples") {
        // Comma-separated seconds.
        for (std::size_t at = 0; at < value.size();) {
          std::size_t used = 0;
          args.setup_samples.push_back(std::stod(value.substr(at), &used));
          at += used;
          if (at < value.size() && value[at++] != ',') return usage("bad list");
        }
      } else {
        return usage("unknown flag");
      }
    } catch (const std::exception&) {
      return usage("bad number");
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, a positive --seconds and --trace are required");
  }

  Report report;
  report.context("workload", workload);
  report.context("seed", double(args.seed));
  report.context("seconds", args.seconds);
  report.context("trace", args.trace ? 1.0 : 0.0);
  report.context("nproc", double(std::thread::hardware_concurrency()));
  report.context("workers", double(worker_count()));
  report.context("compiler", PERFBENCH_COMPILER);
  report.context("cxx_flags", PERFBENCH_CXX_FLAGS);
  report.context("build_type", PERFBENCH_BUILD_TYPE);
  report.context("wrsn_obs", double(WRSN_OBS));
  const char* sha = std::getenv("PERFBENCH_SOURCE_SHA");
  report.context("source_sha", sha != nullptr ? sha : "unknown");

  try {
    if (workload == "mission-sweep") {
      run_mission_sweep(args, report);
    } else if (workload == "plan-cold") {
      run_plan_cold(args, report);
    } else if (workload == "serve-mixed") {
      run_serve_mixed(args, report);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }

  std::cout << report.context_json() << '\n'
            << report.table() << report.result_json() << std::endl;
  return report.correct() ? 0 : 1;
}
