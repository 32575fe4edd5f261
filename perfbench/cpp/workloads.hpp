// The three workloads and the helpers they share.  Each workload fills a
// Report with its end-to-end metrics (untraced run) or its per-layer
// metrics (traced run); README.md explains why each workload exists.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace perfbench {

struct RunArgs {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the span dump of a traced run (inside the checkout).
  std::string out_dir;
  /// When main() was entered: set-up time counts from here.
  std::chrono::steady_clock::time_point started;
  /// Stop after set-up and report only setup_s (run.py repeats set-up in
  /// fresh processes this way).
  bool setup_only = false;
  /// Set-up times of earlier fresh processes [s], folded into setup_s.
  std::vector<double> setup_samples;
};

void run_mission_sweep(const RunArgs& args, Report& report);
void run_plan_cold(const RunArgs& args, Report& report);
void run_serve_mixed(const RunArgs& args, Report& report);

/// Worker threads / connections: 4, or fewer on a smaller machine.
std::size_t worker_count();
/// Peak resident set size of this process [MB].
double peak_rss_mb();
/// splitmix64 of (seed, a, b): derives independent input seeds.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a,
                          std::uint64_t b = 0);

/// CPU time of the whole process so far [s] (every thread; excludes time the
/// machine took away, which makes CPU throughput steadier than wall time).
double process_cpu_s();

/// Adds op_ms_p50 (over all of `op_ms`) and op_ms_tail: the median over
/// consecutive windows of `window` samples of the `tail_q` percentile.
/// `op_ms` is in the order the operations ran.  Each workload runs at least
/// one window, and a window's percentile must have kMinTailSamples beyond
/// it; anything else is an error of the benchmark (std::logic_error), not a
/// result.  Stamps the sample count, percentile, window and window count.
void report_latency(Report& report, const std::vector<double>& op_ms,
                    double tail_q, std::size_t window);
/// Set-up time of this process so far: seconds since `args.started`.
double setup_seconds(const RunArgs& args);
/// Adds setup_s: the median of `this_setup_s` and `args.setup_samples`,
/// each a cold set-up in its own process, warm-up included.
void report_setup(Report& report, const RunArgs& args, double this_setup_s);
/// Adds the per-layer self times of `table` as `<span name>_ms` (mean per
/// operation) and `unattributed_ms`, then calls dump_layers.
void report_layers(Report& report, const LayerTable& table,
                   const std::vector<Span>& spans, const RunArgs& args,
                   const std::string& file);
/// Adds `span_coverage_pct` and writes `spans` (all or a sample of the
/// traced spans) to `<out_dir>/<file>`.
void dump_layers(Report& report, const LayerTable& table,
                 const std::vector<Span>& spans, const RunArgs& args,
                 const std::string& file);

}  // namespace perfbench
