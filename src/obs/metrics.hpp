// Deterministic metrics + tracing layer.
//
// A `MetricRegistry` holds counters, max-gauges, and fixed-bucket histograms
// for one unit of work (typically one trial).  Instrumented code never talks
// to a registry directly: it goes through the `WRSN_OBS_*` macros, which
// write to the thread-local *current* registry installed by a
// `ScopedRegistry` — or do nothing when none is installed.  With
// `WRSN_OBS=0` the macros compile to `((void)0)` and the instrumentation
// vanishes from the binary entirely.
//
// Determinism contract (pinned by obs_test):
//
//   * every metric except wall-clock timers is a pure function of the
//     simulated work, so two runs of the same trial produce bit-identical
//     registries;
//   * the runner gives each trial its own shard registry and merges the
//     shards in **submission order** (merge is a fixed-order fold of doubles,
//     so the result is bit-identical at any `WRSN_THREADS`);
//   * wall-clock timer metrics (`ScopedTimer` spans) are flagged
//     `timing = true` and live in a separate section of every export, so the
//     deterministic section can be compared byte-for-byte across runs.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

#ifndef WRSN_OBS
#define WRSN_OBS 1
#endif

namespace wrsn::obs {

/// Fixed (compile-time) metric ids: hot paths index an array, no hashing.
enum class Metric : std::uint16_t {
  // Event kernel (src/sim/simulator.cpp).
  kSimEventsScheduled,
  kSimEventsFired,
  kSimEventsCancelled,
  kSimHeapCompactions,
  kSimHeapPeak,  ///< gauge-max: deepest heap observed
  // Incremental world updates / routing (src/sim/world.cpp).
  kNetRoutingRepairs,
  kNetRoutingRebuilds,
  kNetDrainReschedules,
  kNetRepairAffectedFraction,  ///< histogram: recomputed-node fraction per death
  kWorldDeaths,
  kWorldRequests,
  kWorldEscalations,
  // CSA planner (src/core/planners.cpp, src/core/orchestrator.cpp).
  kCsaReplans,
  kCsaInsertionsTried,
  /// No longer written (the CELF fill keeps no score across rounds, so it
  /// reads 0); kept while the benchmark harness still reads it.
  kCsaCacheHits,
  /// Candidate rescores of the CELF fill (one best_insertion each).
  kCsaCacheMisses,
  /// No longer written (the pair-distance memo is gone, so both read 0);
  /// kept while the benchmark harness still reads them.
  kCsaTravelMemoHits,
  kCsaTravelMemoMisses,
  kCsaPlanNs,  ///< timing histogram: one CSA plan() call
  // Mobile charger energy ledger (src/mc/charger.cpp, orchestrator/agent).
  kMcSessions,
  kMcSessionsSpoofed,
  kMcTravelJ,
  kMcRadiatedGenuineJ,
  kMcRadiatedSpoofedJ,
  kMcSessionEnergyJ,  ///< histogram: energy delivered per charging session
  // Detectors (src/detect/detectors.cpp).
  kDetectSuiteRuns,
  kDetectSessionsAudited,
  kDetectDetections,
  // Runner (src/runner/runner.hpp).
  kRunnerTrials,
  kRunnerTrialNs,  ///< timing histogram: wall time per trial
  // Fault injection (src/fault/injector.cpp).
  kFaultMcBreakdowns,
  kFaultMcRepairs,
  kFaultNodeBurstKills,
  kFaultPhaseNoiseWindows,
  kFaultEscalationsDropped,
  kFaultEscalationsDelayed,
  kFaultDriftNodes,
  kFaultAbsorbed,  ///< faults with no hook or no live victim
  kFaultMcHandoffs,  ///< permanent losses delivered to a fleet handoff hook
  // Fleet planner (src/core/fleet_planner.cpp, src/analysis/scenario.cpp).
  kFleetPlans,
  kFleetAuctionMoves,      ///< stops awarded off their spatial-seed charger
  kFleetUnscheduledKeys,   ///< keys no charger could schedule
  kFleetHandoffs,          ///< permanent-loss territory redistributions
  kFleetHandoffNodes,      ///< nodes adopted by survivors during handoffs
  // Mission service (src/svc/service.cpp).  These live in the *timing*
  // export section even though most are counters: whether a duplicate
  // request lands as a cache hit or a coalesced join depends on arrival
  // timing, so the tallies are load-dependent and must not pollute the
  // deterministic section's byte-for-byte comparability.
  kSvcRequests,
  kSvcExecutions,          ///< cache/coalesce misses that ran a mission
  kSvcCacheHits,
  kSvcCacheMisses,
  kSvcCacheEvictions,
  kSvcCoalesced,           ///< requests that joined an in-flight execution
  kSvcShed,                ///< requests rejected by admission control
  kSvcQueuePeak,           ///< gauge-max: deepest in-flight backlog observed
  kSvcRequestNs,           ///< timing histogram: one submit() round trip
  kCount,
};

inline constexpr std::size_t kMetricCount = std::size_t(Metric::kCount);

enum class MetricKind : std::uint8_t { kCounter, kGaugeMax, kHistogram };

/// Static description of a fixed metric (name, kind, bucket layout).
struct MetricDef {
  std::string_view name;
  MetricKind kind = MetricKind::kCounter;
  /// Wall-clock timer metric: excluded from the deterministic export section.
  bool timing = false;
  /// Histogram layout (ignored for scalars): `buckets` finite buckets
  /// spanning (lo, hi], log-spaced when `log_spaced`, else linear.
  double lo = 0.0;
  double hi = 0.0;
  std::uint32_t buckets = 0;
  bool log_spaced = false;
};

namespace detail {

constexpr MetricDef counter(std::string_view name) {
  return {name, MetricKind::kCounter};
}
constexpr MetricDef gauge(std::string_view name) {
  return {name, MetricKind::kGaugeMax};
}
constexpr MetricDef hist(std::string_view name, double lo, double hi,
                         std::uint32_t buckets, bool log_spaced) {
  return {name, MetricKind::kHistogram, /*timing=*/false,
          lo,   hi,                     buckets,
          log_spaced};
}
/// Shared timer layout: 100 ns .. 10 s, 32 log-spaced buckets.
constexpr MetricDef timing_ns(std::string_view name) {
  return {name, MetricKind::kHistogram, /*timing=*/true, 1e2, 1e10, 32, true};
}
/// Load-dependent scalars (service tallies): counter/gauge semantics, but
/// exported in the timing section because they are not a pure function of
/// the simulated work.
constexpr MetricDef load_counter(std::string_view name) {
  return {name, MetricKind::kCounter, /*timing=*/true};
}
constexpr MetricDef load_gauge(std::string_view name) {
  return {name, MetricKind::kGaugeMax, /*timing=*/true};
}

/// The def table, POSITIONAL in `Metric` enum order.  Constexpr so the
/// kind checks in the inline write paths fold away at every call site
/// (the metric is always an enum literal there).
inline constexpr std::array<MetricDef, kMetricCount> kDefTable{{
    counter("sim.events_scheduled"),
    counter("sim.events_fired"),
    counter("sim.events_cancelled"),
    counter("sim.heap_compactions"),
    gauge("sim.heap_peak"),
    counter("net.routing_repairs"),
    counter("net.routing_rebuilds"),
    counter("net.drain_reschedules"),
    hist("net.repair_affected_fraction", 0.0, 1.0, 20, false),
    counter("world.deaths"),
    counter("world.requests"),
    counter("world.escalations"),
    counter("csa.replans"),
    counter("csa.insertions_tried"),
    counter("csa.cache_hits"),
    counter("csa.cache_misses"),
    counter("csa.travel_memo_hits"),
    counter("csa.travel_memo_misses"),
    timing_ns("csa.plan_ns"),
    counter("mc.sessions"),
    counter("mc.sessions_spoofed"),
    counter("mc.travel_j"),
    counter("mc.radiated_genuine_j"),
    counter("mc.radiated_spoofed_j"),
    hist("mc.session_energy_j", 1.0, 1e6, 24, true),
    counter("detect.suite_runs"),
    counter("detect.sessions_audited"),
    counter("detect.detections"),
    counter("runner.trials"),
    timing_ns("runner.trial_ns"),
    counter("fault.mc_breakdowns"),
    counter("fault.mc_repairs"),
    counter("fault.node_burst_kills"),
    counter("fault.phase_noise_windows"),
    counter("fault.escalations_dropped"),
    counter("fault.escalations_delayed"),
    counter("fault.drift_nodes"),
    counter("fault.absorbed"),
    counter("fault.mc_handoffs"),
    counter("fleet.plans"),
    counter("fleet.auction_moves"),
    counter("fleet.unscheduled_keys"),
    counter("fleet.handoffs"),
    counter("fleet.handoff_nodes"),
    load_counter("svc.requests"),
    load_counter("svc.executions"),
    load_counter("svc.cache_hits"),
    load_counter("svc.cache_misses"),
    load_counter("svc.cache_evictions"),
    load_counter("svc.coalesced"),
    load_counter("svc.shed"),
    load_gauge("svc.queue_peak"),
    timing_ns("svc.request_ns"),
}};

// Guard the positional layout against enum drift.
static_assert(kDefTable[std::size_t(Metric::kSimEventsScheduled)].name ==
              "sim.events_scheduled");
static_assert(kDefTable[std::size_t(Metric::kSimHeapPeak)].kind ==
              MetricKind::kGaugeMax);
static_assert(kDefTable[std::size_t(Metric::kCsaPlanNs)].timing);
static_assert(kDefTable[std::size_t(Metric::kMcSessionEnergyJ)].name ==
              "mc.session_energy_j");
static_assert(kDefTable[std::size_t(Metric::kRunnerTrialNs)].name ==
              "runner.trial_ns");
static_assert(kDefTable[std::size_t(Metric::kFaultMcBreakdowns)].name ==
              "fault.mc_breakdowns");
static_assert(kDefTable[std::size_t(Metric::kFaultAbsorbed)].name ==
              "fault.absorbed");
static_assert(kDefTable[std::size_t(Metric::kFleetPlans)].name ==
              "fleet.plans");
static_assert(kDefTable[std::size_t(Metric::kFleetHandoffNodes)].name ==
              "fleet.handoff_nodes");
static_assert(kDefTable[std::size_t(Metric::kSvcRequests)].name ==
              "svc.requests");
static_assert(kDefTable[std::size_t(Metric::kSvcRequests)].timing);
static_assert(kDefTable[std::size_t(Metric::kSvcQueuePeak)].kind ==
              MetricKind::kGaugeMax);
static_assert(kDefTable[std::size_t(Metric::kSvcRequestNs)].name ==
              "svc.request_ns");

}  // namespace detail

/// The def table, indexed by `Metric`.
inline const MetricDef& metric_def(Metric m) {
  WRSN_ASSERT(std::size_t(m) < kMetricCount);
  return detail::kDefTable[std::size_t(m)];
}

/// Fixed-bucket histogram.  `counts()` has `bounds().size() + 1` entries:
/// one per finite bucket plus a trailing overflow bucket.  A value lands in
/// the first finite bucket whose upper bound is >= it (values below `lo`
/// fold into bucket 0; values above `hi` land in the overflow bucket).
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(const MetricDef& def);

  void observe(double value);
  void merge(const Histogram& other);

  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  /// Min/max of observed values; 0 when empty.
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }

 private:
  std::vector<double> bounds_;  ///< finite-bucket upper edges, ascending
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// One registry row, used by the exporters; `hist` is null for scalars.
struct MetricRow {
  std::string_view name;
  MetricKind kind = MetricKind::kCounter;
  bool timing = false;
  double value = 0.0;  ///< counter total or gauge max; 0 for histograms
  const Histogram* hist = nullptr;
};

/// Metric store for one unit of work.  Fixed metrics are enum-indexed;
/// dynamic metrics (e.g. per-detector timers) are found by name and iterate
/// in first-touch order, which is deterministic because instrumented code
/// touches them in program order.
class MetricRegistry {
 public:
  MetricRegistry();
  MetricRegistry(MetricRegistry&&) = default;
  MetricRegistry& operator=(MetricRegistry&&) = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // The scalar write paths are inline and the kind asserts constant-fold
  // (the def table is constexpr and `m` is an enum literal at call sites),
  // so an instrumented hot path pays one TLS load, a branch, and the write.
  void add(Metric m, double amount = 1.0) noexcept {
    WRSN_ASSERT(metric_def(m).kind == MetricKind::kCounter);
    scalars_[std::size_t(m)] += amount;
  }
  void gauge_max(Metric m, double value) noexcept {
    WRSN_ASSERT(metric_def(m).kind == MetricKind::kGaugeMax);
    double& slot = scalars_[std::size_t(m)];
    if (value > slot) slot = value;
  }
  void observe(Metric m, double value);

  /// Dynamic named counter / timing histogram (layout of `kCsaPlanNs`).
  void add_named(std::string_view name, double amount = 1.0);
  void observe_named_ns(std::string_view name, double nanoseconds);

  /// Folds `other` into this registry.  Counters add, gauges take the max,
  /// histograms add bucket-wise.  Called in submission order by the runner.
  void merge(const MetricRegistry& other);

  double value(Metric m) const { return scalars_[std::size_t(m)]; }
  const Histogram& histogram(Metric m) const;

  /// All rows: fixed metrics in enum order, then named in first-touch order.
  std::vector<MetricRow> rows() const;

 private:
  struct NamedMetric {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    bool timing = false;
    double value = 0.0;
    Histogram hist;
  };

  NamedMetric& named_slot(std::string_view name, MetricKind kind, bool timing);

  std::array<double, kMetricCount> scalars_{};
  /// Histogram storage indexed via hist_index_ (kuint32max for scalars).
  std::array<std::uint32_t, kMetricCount> hist_index_;
  std::vector<Histogram> hists_;
  std::vector<NamedMetric> named_;
};

namespace detail {
/// The thread-local current registry; null = instrumentation disabled.
/// `constinit` states that it has no dynamic initialiser, so other
/// translation units access it directly instead of through a TLS wrapper
/// function; on the wrapper path, GCC 12.2's UBSan reported null-pointer
/// loads and stores here.
extern constinit thread_local MetricRegistry* g_current;
}  // namespace detail

inline MetricRegistry* current() noexcept { return detail::g_current; }

/// Installs `registry` (may be null: explicitly *no* registry, which the
/// runner uses so trial behavior never depends on the caller's thread-local
/// state) as the current one for this thread, restoring the previous
/// registry on destruction.
class ScopedRegistry {
 public:
  explicit ScopedRegistry(MetricRegistry* registry) noexcept
      : prev_(detail::g_current) {
    detail::g_current = registry;
  }
  ~ScopedRegistry() { detail::g_current = prev_; }
  ScopedRegistry(const ScopedRegistry&) = delete;
  ScopedRegistry& operator=(const ScopedRegistry&) = delete;

 private:
  MetricRegistry* prev_;
};

inline void count(Metric m, double amount = 1.0) noexcept {
  if (MetricRegistry* r = detail::g_current) r->add(m, amount);
}
inline void gauge_max(Metric m, double value) noexcept {
  if (MetricRegistry* r = detail::g_current) r->gauge_max(m, value);
}
inline void observe(Metric m, double value) noexcept {
  if (MetricRegistry* r = detail::g_current) r->observe(m, value);
}

/// RAII span: records elapsed wall nanoseconds into a timing histogram.
/// Arms only if a registry is installed at construction.
namespace detail {

// Span clock.  On x86-64 spans read the invariant TSC directly (~10 ns)
// instead of steady_clock (~45 ns per read where clock_gettime misses the
// vDSO fast path, e.g. inside VMs) and convert ticks to nanoseconds with a
// once-per-process calibration against steady_clock.  Timing histograms are
// segregated from the deterministic export section, so calibration jitter
// never affects reproducibility.
#if defined(__x86_64__) || defined(_M_X64)
inline std::uint64_t span_ticks() noexcept { return __rdtsc(); }
/// Nanoseconds per TSC tick; spins ~200 us on the first call to calibrate.
double span_ns_per_tick();
inline double span_elapsed_ns(std::uint64_t t0, std::uint64_t t1) {
  return double(t1 - t0) * span_ns_per_tick();
}
#else
inline std::uint64_t span_ticks() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
}
inline double span_elapsed_ns(std::uint64_t t0, std::uint64_t t1) {
  using Period = std::chrono::steady_clock::period;
  return double(t1 - t0) * (1e9 * double(Period::num) / double(Period::den));
}
#endif

}  // namespace detail

class ScopedTimer {
 public:
  explicit ScopedTimer(Metric m) noexcept : metric_(m), registry_(current()) {
    if (registry_ != nullptr) start_ = detail::span_ticks();
  }
  ~ScopedTimer() {
    if (registry_ != nullptr) {
      registry_->observe(
          metric_, detail::span_elapsed_ns(start_, detail::span_ticks()));
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Metric metric_;
  MetricRegistry* registry_;
  std::uint64_t start_ = 0;
};

/// RAII span for a dynamic named timing histogram (e.g. per-detector).
/// Owns its name so callers may pass a temporary string.
class NamedScopedTimer {
 public:
  explicit NamedScopedTimer(std::string name)
      : name_(std::move(name)), registry_(current()) {
    if (registry_ != nullptr) start_ = detail::span_ticks();
  }
  ~NamedScopedTimer() {
    if (registry_ != nullptr) {
      registry_->observe_named_ns(
          name_, detail::span_elapsed_ns(start_, detail::span_ticks()));
    }
  }
  NamedScopedTimer(const NamedScopedTimer&) = delete;
  NamedScopedTimer& operator=(const NamedScopedTimer&) = delete;

 private:
  std::string name_;
  MetricRegistry* registry_;
  std::uint64_t start_ = 0;
};

}  // namespace wrsn::obs

// Instrumentation macros.  `metric` is a bare `Metric` enumerator name.
#if WRSN_OBS
#define WRSN_OBS_CONCAT_IMPL(a, b) a##b
#define WRSN_OBS_CONCAT(a, b) WRSN_OBS_CONCAT_IMPL(a, b)
#define WRSN_OBS_COUNT(metric) ::wrsn::obs::count(::wrsn::obs::Metric::metric)
#define WRSN_OBS_ADD(metric, amount) \
  ::wrsn::obs::count(::wrsn::obs::Metric::metric, (amount))
#define WRSN_OBS_GAUGE_MAX(metric, value) \
  ::wrsn::obs::gauge_max(::wrsn::obs::Metric::metric, (value))
#define WRSN_OBS_OBSERVE(metric, value) \
  ::wrsn::obs::observe(::wrsn::obs::Metric::metric, (value))
#define WRSN_OBS_SPAN(metric)                                   \
  ::wrsn::obs::ScopedTimer WRSN_OBS_CONCAT(wrsn_obs_span_,      \
                                           __LINE__) {          \
    ::wrsn::obs::Metric::metric                                 \
  }
#define WRSN_OBS_SPAN_NAMED(name) \
  ::wrsn::obs::NamedScopedTimer WRSN_OBS_CONCAT(wrsn_obs_span_, __LINE__) { \
    (name)                                                                  \
  }
#else
#define WRSN_OBS_COUNT(metric) ((void)0)
#define WRSN_OBS_ADD(metric, amount) ((void)0)
#define WRSN_OBS_GAUGE_MAX(metric, value) ((void)0)
#define WRSN_OBS_OBSERVE(metric, value) ((void)0)
#define WRSN_OBS_SPAN(metric) ((void)0)
#define WRSN_OBS_SPAN_NAMED(name) ((void)0)
#endif
