// The benchmark's ledger: percentile rule, metric naming, in-memory spans
// with self-time attribution, correctness checks and the result line.
//
// Everything here is independent of the workloads so it can be unit-tested
// on its own (tests/ledger_test.cpp).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// A tail percentile is reported only with at least this many samples
/// strictly beyond its rank.
inline constexpr std::size_t kMinTailSamples = 10;

/// Rank (1-based) of the nearest-rank q-percentile of n samples:
/// ceil(q * n), clamped to [1, n].
std::size_t percentile_rank(std::size_t n, double q);
/// Samples strictly above the q-percentile's rank: n - percentile_rank.
std::size_t samples_beyond(std::size_t n, double q);
/// True when the q-percentile of n samples has kMinTailSamples beyond it.
bool tail_reportable(std::size_t n, double q);
/// Nearest-rank q-percentile of an ascending-sorted, non-empty sample.
double percentile(std::span<const double> sorted, double q);
/// Median over consecutive windows of `window` samples (a trailing partial
/// window is dropped) of each window's q-percentile; `samples` are in the
/// order they were taken.  Robust to a burst of noise confined to a few
/// windows.  Throws std::invalid_argument unless there is at least one
/// window and the q-percentile of a window is tail_reportable.
double windowed_percentile(std::span<const double> samples, std::size_t window,
                           double q);

/// Milliseconds elapsed on the steady clock.
inline double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Median of a copy of `values` (non-empty).
double median(std::vector<double> values);

// ---------------------------------------------------------------------------
// Metric names
// ---------------------------------------------------------------------------

/// A metric name: starts with a letter or digit, then letters, digits,
/// '_', '.', '-'; at most 64 characters.
bool valid_metric_name(std::string_view name);
/// A unit: 1..16 of letters, digits, '_', '/', '%', '.', '-'.
bool valid_unit(std::string_view unit);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed interval.  `parent` indexes the enclosing span in the same
/// log (-1 for an operation's root span); `op` is the operation id shared
/// by every span of one operation.
struct Span {
  std::string_view name;  ///< string literal
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::int32_t parent = -1;
  std::uint64_t op = 0;
};

/// Append-only in-memory span log for one thread.  Spans nest: open() makes
/// the new span a child of the innermost open one.
class SpanLog {
 public:
  explicit SpanLog(std::chrono::steady_clock::time_point epoch =
                       std::chrono::steady_clock::now())
      : epoch_(epoch) {}

  /// Opens a span and returns its index (close it with close()).
  std::int32_t open(std::string_view name, std::uint64_t op);
  void close(std::int32_t index);

  /// Moves the recorded spans out (the log must have no open span).
  std::vector<Span> take();

 private:
  double now_ms() const;

  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span; a null log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string_view name, std::uint64_t op)
      : log_(log), index_(log != nullptr ? log->open(name, op) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::int32_t index_;
};

/// Self time per span name, summed over a span list whose parent indices
/// refer to the same list.  Self time is a span's duration minus its direct
/// children's durations.  Root spans (parent -1) are the operations: their
/// self time is reported under `unattributed`, their duration under
/// `op_total_ms`, so the entries of `self_ms` plus `unattributed_ms` add up
/// to `op_total_ms`.
struct LayerTable {
  std::map<std::string, double, std::less<>> self_ms;
  double unattributed_ms = 0.0;
  double op_total_ms = 0.0;
  std::size_t ops = 0;

  /// Adds another table's times and counts (tables of disjoint operations).
  void merge(const LayerTable& other);
  /// Mean self time of `name` per operation [ms] (0 if absent).
  double per_op_ms(std::string_view name) const;
  /// Fraction of operation time covered by named spans.
  double attributed_fraction() const;
};
LayerTable layer_table(std::span<const Span> spans);

/// Writes spans as JSON lines (name, start_ms, end_ms, parent, op).
/// Returns false if the file cannot be written.
bool write_spans(const std::string& path, std::span<const Span> spans);

// ---------------------------------------------------------------------------
// Correctness checks
// ---------------------------------------------------------------------------

/// FNV-1a fold of per-operation digests in submission order.
std::uint64_t fold_digests(std::span<const std::uint64_t> digests);

/// First index where two digest lists differ (a length difference counts
/// at the shorter length), or nullopt when they are equal.
std::optional<std::size_t> first_mismatch(
    std::span<const std::uint64_t> expected,
    std::span<const std::uint64_t> actual);

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

/// One run's result: metrics with units, the operation tallies and every
/// correctness mismatch.  Prints the result line that ends the output.
class Report {
 public:
  /// Adds a metric; throws std::invalid_argument on a bad name or unit, a
  /// duplicate name, or a non-finite value.
  void metric(std::string_view name, double value, std::string_view unit);
  /// Records a correctness failure (the run is then not `correct`).
  void mismatch(std::string what);
  /// Checks two digest lists; on a difference records a mismatch and counts
  /// every differing operation as failed.  Returns true when they match.
  bool expect_digests(std::string_view what,
                      std::span<const std::uint64_t> expected,
                      std::span<const std::uint64_t> actual);
  /// Checks a value for exact equality; on a difference records a mismatch
  /// and counts one failed operation.  Returns true when they match.
  bool expect_value(std::string_view what, double expected, double actual);
  /// Records operations attempted, and how many of them failed.
  void ops(std::uint64_t attempted, std::uint64_t failed);
  /// Adds a context entry (stamped on the context line).
  void context(std::string_view key, std::string value);
  void context(std::string_view key, double value);

  bool correct() const { return mismatches_.empty(); }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& mismatches() const { return mismatches_; }

  /// {"context": {...}} line.
  std::string context_json() const;
  /// Human-readable "name value unit" lines.
  std::string table() const;
  /// {"correct":..,"attempted":..,"failed":..,"metrics":{..}} line.
  std::string result_json() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> context_;  ///< raw JSON
  std::vector<std::string> mismatches_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// JSON string literal (quoted, escaped).
std::string json_string(std::string_view s);

}  // namespace perfbench
