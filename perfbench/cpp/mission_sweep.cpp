// mission-sweep: seeded lists of whole missions (config -> detector
// verdict) run through runner::run_trials, the researcher's path behind
// fig5/fig6/tournament.
//
// Untraced: every mission goes through analysis::run_mission and the timed
// region is a sequence of passes, each a fresh list with the same family
// layout.  Traced: the same passes are run through `compose_mission`, which
// performs run_scenario's steps from their public calls with a span around
// each, under a MetricRegistry for the deterministic counters.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/fuzz.hpp"
#include "analysis/scenario.hpp"
#include "core/planners.hpp"
#include "core/report.hpp"
#include "fault/injector.hpp"
#include "mc/fleet.hpp"
#include "net/keynodes.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "runner/runner.hpp"
#include "sim/simulator.hpp"
#include "sim/world.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace wrsn;

/// Missions per pass.  Families are laid out round-robin by weight, so
/// every pass has the same mix whatever the seed.
constexpr std::size_t kPassMissions = 240;
/// The p99 is taken per window of this many passes (12 missions beyond it)
/// and the median over windows is reported.
constexpr std::size_t kTailPasses = 5;
constexpr std::size_t kWarmupMissions = kPassMissions;

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// fig5's density scaling: per-node duty cycles shrink with N so the single
/// charger's load stays constant; radios shrink to keep degree constant.
analysis::FuzzOverrides fig5_sized(std::size_t n) {
  const double scale = 100.0 / double(n);
  return {{"topology.node_count", num(double(n))},
          {"topology.mean_data_rate_bps", num(12'000.0 * scale)},
          {"topology.comm_range", num(65.0 * std::sqrt(scale))},
          {"world.sensing_power", num(10e-3 * scale)}};
}

struct Family {
  const char* name;
  std::size_t weight;  ///< missions per layout cycle
  analysis::FuzzOverrides overrides;
};

std::vector<Family> families() {
  std::vector<Family> out;
  for (const std::size_t n : {100, 200, 400}) {
    const std::size_t weight = n == 100 ? 4 : n == 200 ? 3 : 2;
    for (const char* mode : {"attack", "benign"}) {
      analysis::FuzzOverrides o = fig5_sized(n);
      o["mode"] = mode;
      out.push_back({n == 100 ? "fig5-100" : n == 200 ? "fig5-200" : "fig5-400",
                     weight, std::move(o)});
    }
  }
  // fig10-style fleets: demand grows with N and four chargers carry it.
  for (const char* mode : {"attack", "benign"}) {
    out.push_back({"fleet4-400", 1,
                   {{"mode", mode},
                    {"topology.node_count", "400"},
                    {"topology.comm_range", num(65.0 * std::sqrt(0.25))},
                    {"fleet.size", "4"},
                    {"fleet.compromised", "0"}}});
  }
  for (const char* mode : {"attack", "benign"}) {
    out.push_back({"faults-100", 2,
                   {{"mode", mode},
                    {"faults.mc_breakdown_mtbf", "172800"},
                    {"faults.mc_repair_mean", "3600"},
                    {"faults.node_burst_mtbf", "172800"},
                    {"faults.phase_noise_mtbf", "86400"},
                    {"faults.escalation_drop_prob", "0.05"},
                    {"faults.escalation_delay_prob", "0.1"},
                    {"faults.battery_drift_mtbf", "172800"}}});
  }
  out.push_back({"kcoverage-100", 1,
                 {{"mode", "attack"},
                  {"coverage.k", "2"},
                  {"coverage.bonus", "1"},
                  {"coverage.radius", "60"}}});
  out.push_back({"hetero-100", 1,
                 {{"mode", "attack"},
                  {"topology.class_count", "3"},
                  {"topology.class_capacity_ratio", "2"},
                  {"topology.class_rate_ratio", "1.5"}}});
  out.push_back({"waypoint-100", 1,
                 {{"mode", "attack"},
                  {"mobility.fraction", "0.1"},
                  {"mobility.interval", "7200"},
                  {"mobility.speed_min", "0.5"},
                  {"mobility.speed_max", "1.5"}}});
  return out;
}

struct Job {
  analysis::ScenarioConfig config;
  analysis::ChargerMode mode = analysis::ChargerMode::Attack;
};

/// Pass `pass` of the run seeded `seed`: the family layout repeated, each
/// mission with its own derived seed.
std::vector<Job> make_pass(const std::vector<Family>& fams, std::uint64_t seed,
                           std::uint64_t pass, std::size_t count) {
  std::vector<std::size_t> layout;
  for (std::size_t f = 0; f < fams.size(); ++f) {
    for (std::size_t w = 0; w < fams[f].weight; ++w) layout.push_back(f);
  }
  std::vector<Job> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t f = layout[i % layout.size()];
    analysis::FuzzOverrides o = fams[f].overrides;
    o["seed"] = std::to_string(derive_seed(seed, pass, i) >> 12);
    auto [config, mode] = analysis::resolve_overrides(o);
    jobs.push_back({std::move(config), mode});
  }
  return jobs;
}

/// csa::Planner that records a span around every plan call of the CSA
/// planner it wraps (plans are bit-identical to an unwrapped CsaPlanner).
class TimedPlanner final : public csa::Planner {
 public:
  TimedPlanner(SpanLog* log, std::uint64_t op) : log_(log), op_(op) {}
  std::string_view name() const override { return inner_.name(); }
  csa::Plan plan(const csa::TideInstance& instance, Rng& rng) const override {
    const ScopedSpan span(log_, "core.plan", op_);
    stops_ += instance.stops.size();
    ++calls_;
    return inner_.plan(instance, rng);
  }
  void plan_into(const csa::TideInstance& instance, Rng& rng,
                 csa::Plan& out) const override {
    const ScopedSpan span(log_, "core.plan", op_);
    stops_ += instance.stops.size();
    ++calls_;
    inner_.plan_into(instance, rng, out);
  }
  std::uint64_t calls() const { return calls_; }
  std::uint64_t stops() const { return stops_; }

 private:
  csa::CsaPlanner inner_;
  SpanLog* log_;
  std::uint64_t op_;
  mutable std::uint64_t calls_ = 0;
  mutable std::uint64_t stops_ = 0;
};

/// analysis::run_mission's steps, composed from public calls with a span
/// around each.  Mirrors run_scenario / run_fleet_scenario step for step
/// (the traced run checks the result digest against run_mission's); fleet
/// missions with faults would need the internal handoff helper and are not
/// in the mix.
analysis::ScenarioResult compose_mission(const Job& job, SpanLog& log,
                                         std::uint64_t op,
                                         const csa::Planner& planner) {
  const analysis::ScenarioConfig& config = job.config;
  const std::size_t fleet = config.fleet_size;
  if (fleet > 1 && config.faults.any()) {
    throw std::logic_error("compose_mission: faulted fleets are not composed");
  }
  const bool attack = job.mode == analysis::ChargerMode::Attack;
  const std::size_t compromised =
      fleet <= 1 ? (attack ? 0 : SIZE_MAX)
                 : (attack ? std::min(config.fleet_compromised, fleet - 1)
                           : SIZE_MAX);

  const ScopedSpan root(&log, "mission", op);
  Rng rng(config.seed);
  auto network = [&] {
    const ScopedSpan span(&log, "net.topology", op);
    Rng topo_rng = rng.fork("topology");
    return net::generate_topology(config.topology, topo_rng);
  }();

  std::vector<geom::Vec2> depots;
  std::vector<std::vector<net::NodeId>> cells;
  if (fleet > 1) {
    const ScopedSpan span(&log, "mc.fleet_setup", op);
    depots = mc::default_depots(config.topology.region, fleet);
    cells = mc::partition_by_depot(network, depots);
  }

  auto simulator = std::make_unique<sim::Simulator>();
  std::unique_ptr<sim::World> world;
  {
    const ScopedSpan span(&log, "sim.world_init", op);
    world = std::make_unique<sim::World>(*simulator, std::move(network),
                                         config.world, rng.fork("world"));
  }

  analysis::ScenarioResult result;
  result.node_count = world->network().size();
  std::vector<std::unique_ptr<mc::ChargerAgent>> benign;
  std::unique_ptr<csa::AttackAgent> attacker;
  {
    const ScopedSpan span(&log, "core.agent_start", op);
    if (fleet <= 1) {
      if (!attack) {
        result.keys = net::select_key_nodes(world->network(), world->loads(),
                                            config.attack.key_selection);
        benign.push_back(
            std::make_unique<mc::ChargerAgent>(*world, config.benign));
        benign.back()->start();
      } else {
        attacker = std::make_unique<csa::AttackAgent>(
            *world, config.attack, planner, rng.fork("attack"),
            config.policy.attacker);
        attacker->start();
        result.keys = attacker->key_targets();
      }
    } else {
      for (std::size_t k = 0; k < fleet; ++k) {
        if (k == compromised) {
          csa::AttackParams params = config.attack;
          params.charger.depot = depots[k];
          params.territory = cells[k];
          attacker = std::make_unique<csa::AttackAgent>(
              *world, params, planner, rng.fork("attack-" + std::to_string(k)),
              config.policy.attacker);
          attacker->start();
        } else {
          mc::AgentParams params = config.benign;
          params.charger.depot = depots[k];
          params.territory = cells[k];
          benign.push_back(std::make_unique<mc::ChargerAgent>(*world, params));
          benign.back()->start();
        }
      }
      result.keys = attacker != nullptr
                        ? attacker->key_targets()
                        : net::select_key_nodes(world->network(),
                                                world->loads(),
                                                config.attack.key_selection);
    }
  }

  std::unique_ptr<fault::FaultInjector> injector;
  if (config.faults.any()) {
    const ScopedSpan span(&log, "fault.arm", op);
    fault::FaultPlan plan = fault::FaultPlan::compile(
        config.faults, config.horizon, world->network().size(),
        rng.fork("faults"));
    fault::FaultHooks hooks;
    if (attacker != nullptr) {
      csa::AttackAgent* a = attacker.get();
      hooks.mc_breakdown = [a](double loss, bool permanent) {
        a->fault_breakdown(loss, permanent);
      };
      hooks.mc_repair = [a] { a->fault_repair(); };
      hooks.phase_noise = [a](double scale) { a->fault_phase_noise(scale); };
    } else {
      mc::ChargerAgent* b = benign.front().get();
      hooks.mc_breakdown = [b](double loss, bool permanent) {
        b->fault_breakdown(loss, permanent);
      };
      hooks.mc_repair = [b] { b->fault_repair(); };
    }
    injector = std::make_unique<fault::FaultInjector>(
        *world, std::move(plan), std::move(hooks), rng.fork("fault-exec"));
    injector->arm();
  }

  {
    const ScopedSpan span(&log, "sim.run", op);
    simulator->run_until(config.horizon);
  }
  {
    const ScopedSpan span(&log, "detect.suite", op);
    const analysis::DetectorSetup detectors =
        analysis::make_detector_setup(config, *world);
    result.detections = detectors.suite.run(world->trace(), detectors.context);
  }
  {
    const ScopedSpan span(&log, "core.report", op);
    result.report = csa::build_report(world->network(), world->trace(),
                                      result.keys, result.detections);
  }
  {
    const ScopedSpan span(&log, "sim.finish", op);
    result.alive_at_end = world->alive_count();
    result.sink_connected_at_end = world->sink_connected_count();
    result.events_executed = simulator->executed();
    if (injector != nullptr) result.fault_stats = injector->stats();
    if (attacker != nullptr) {
      result.ledger = attacker->charger().ledger();
      result.plans_computed = attacker->plans_computed();
    } else {
      result.ledger = benign.front()->charger().ledger();
    }
    result.trace = std::move(world->trace());
  }
  {
    // run_scenario's reverse-declaration teardown order.
    const ScopedSpan span(&log, "sim.teardown", op);
    injector.reset();
    attacker.reset();
    benign.clear();
    world.reset();
    simulator.reset();
  }
  return result;
}

struct Done {
  std::uint64_t digest = 0;
  double ms = 0.0;
  std::vector<Span> spans;
  std::uint64_t plan_calls = 0;
  std::uint64_t plan_stops = 0;
};

struct PassResult {
  std::vector<std::uint64_t> digests;
  std::vector<double> op_ms;
  double wall_s = 0.0;
  double busy_s = 0.0;  ///< sum of per-mission times
  std::vector<Span> spans;
  std::uint64_t plan_calls = 0;
  std::uint64_t plan_stops = 0;
};

/// Runs one pass.  Untraced missions go through run_mission; traced ones
/// through compose_mission with spans (op ids offset by `op_base`).
PassResult run_pass(std::span<const Job> jobs, std::size_t workers,
                    bool traced, std::uint64_t op_base,
                    obs::MetricRegistry* metrics) {
  const auto started = std::chrono::steady_clock::now();
  std::vector<Done> done = runner::run_trials(
      jobs,
      [&](const Job& job, Rng&) {
        Done d;
        const auto t0 = std::chrono::steady_clock::now();
        if (!traced) {
          const analysis::ScenarioResult r =
              analysis::run_mission(job.config, job.mode);
          d.ms = ms_since(t0);
          d.digest = analysis::digest_result(r);
          return d;
        }
        const std::uint64_t op =
            op_base + std::uint64_t(&job - jobs.data());
        SpanLog log(started);
        const TimedPlanner planner(&log, op);
        const analysis::ScenarioResult r =
            compose_mission(job, log, op, planner);
        d.ms = ms_since(t0);
        d.digest = analysis::digest_result(r);
        d.spans = log.take();
        d.plan_calls = planner.calls();
        d.plan_stops = planner.stops();
        return d;
      },
      {.threads = workers, .label = "perfbench", .metrics = metrics});
  PassResult out;
  out.wall_s = ms_since(started) / 1000.0;
  for (Done& d : done) {
    out.digests.push_back(d.digest);
    out.op_ms.push_back(d.ms);
    out.busy_s += d.ms / 1000.0;
    out.plan_calls += d.plan_calls;
    out.plan_stops += d.plan_stops;
    // Re-index parents into the concatenated span list.
    const auto offset = static_cast<std::int32_t>(out.spans.size());
    for (Span s : d.spans) {
      if (s.parent >= 0) s.parent += offset;
      out.spans.push_back(s);
    }
  }
  return out;
}

struct Timed {
  std::vector<double> op_ms;
  std::vector<std::uint64_t> first_pass_digests;
  std::size_t passes = 0;
  double wall_s = 0.0;
  double busy_s = 0.0;
  double cpu_s = 0.0;               ///< process CPU time inside the passes
  std::vector<double> pass_rates;  ///< missions per wall second, per pass
  LayerTable layers;             ///< over every traced pass
  std::vector<Span> first_spans;  ///< pass 0's, for the span dump
  std::uint64_t plan_calls = 0;
  std::uint64_t plan_stops = 0;
};

/// Runs passes until `seconds` have elapsed and one tail window of passes is
/// done, so a slower build still gets a reportable tail.  With
/// `metrics`, traced passes run under a registry: pass 0's counters land in
/// `metrics[0]`, every pass's in `metrics[1]`.
Timed run_timed(const std::vector<Family>& fams, std::uint64_t seed,
                double seconds, std::size_t workers, bool traced,
                obs::MetricRegistry* metrics) {
  Timed t;
  const auto started = std::chrono::steady_clock::now();
  do {
    const std::vector<Job> jobs = make_pass(fams, seed, t.passes, kPassMissions);
    obs::MetricRegistry pass_metrics;
    const double cpu0 = process_cpu_s();
    PassResult p = run_pass(jobs, workers, traced, t.passes * kPassMissions,
                            metrics != nullptr ? &pass_metrics : nullptr);
    t.cpu_s += process_cpu_s() - cpu0;
    t.pass_rates.push_back(double(jobs.size()) / p.wall_s);
    if (metrics != nullptr) {
      if (t.passes == 0) metrics[0].merge(pass_metrics);
      metrics[1].merge(pass_metrics);
    }
    if (t.passes == 0) t.first_pass_digests = p.digests;
    t.op_ms.insert(t.op_ms.end(), p.op_ms.begin(), p.op_ms.end());
    t.wall_s += p.wall_s;
    t.busy_s += p.busy_s;
    t.plan_calls += p.plan_calls;
    t.plan_stops += p.plan_stops;
    // Spans are folded pass by pass; only pass 0's are kept for the dump.
    t.layers.merge(layer_table(p.spans));
    if (t.passes == 0) t.first_spans = std::move(p.spans);
    ++t.passes;
  } while (ms_since(started) < seconds * 1000.0 || t.passes < kTailPasses);
  return t;
}

double ratio(double hits, double misses) {
  return hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
}

}  // namespace

void run_mission_sweep(const RunArgs& args, Report& report) {
  const std::vector<Family> fams = families();
  const std::size_t workers = worker_count();
  report.context("pass_missions", double(kPassMissions));
  std::string mix;
  for (const Family& f : fams) {
    if (!mix.empty()) mix += ' ';
    mix += f.name;
    mix += '/';
    mix += f.overrides.at("mode");
    mix += '=';
    mix += std::to_string(f.weight);
  }
  report.context("family_weights", mix);

  // Set-up: build a warm-up list and run it (discarded).  The first pass of
  // a process is several times slower than the passes after it.
  {
    const std::vector<Job> warm =
        make_pass(fams, args.seed, 1'000'000, kWarmupMissions);
    run_pass(warm, workers, false, 0, nullptr);
  }
  const double setup_s = setup_seconds(args);
  if (args.setup_only) {
    report_setup(report, args, setup_s);
    return;
  }

  // Untraced timed region (the traced run splits its time in two halves).
  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  const Timed plain =
      run_timed(fams, args.seed, untraced_seconds, workers, false, nullptr);
  const double rss = peak_rss_mb();
  report.context("passes", double(plain.passes));
  report.context("pass0_digest", std::to_string(fold_digests(
                                     plain.first_pass_digests)));
  report.ops(plain.op_ms.size(), 0);

  // Correctness, outside the timed region: pass 0 again on one worker.
  {
    const std::vector<Job> jobs = make_pass(fams, args.seed, 0, kPassMissions);
    const PassResult serial = run_pass(jobs, 1, false, 0, nullptr);
    report.expect_digests("mission digests, 1 vs N workers",
                          plain.first_pass_digests, serial.digests);
  }

  if (!args.trace) {
    report_setup(report, args, setup_s);
    report.metric("peak_rss_mb", rss, "MB");
    report_latency(report, plain.op_ms, 0.99, kTailPasses * kPassMissions);
    report.metric("ops_per_s", median(plain.pass_rates), "1/s");
    report.metric("ops_per_cpu_s", double(plain.op_ms.size()) / plain.cpu_s,
                  "1/s");
    return;
  }

  obs::MetricRegistry registries[2];
  const Timed traced = run_timed(fams, args.seed, args.seconds / 2, workers,
                                 true, registries);
  const obs::MetricRegistry& counts = registries[0];
  report.expect_digests("composed traced path vs run_mission",
                        plain.first_pass_digests, traced.first_pass_digests);
  report.context("traced_pass0_digest", std::to_string(fold_digests(
                                            traced.first_pass_digests)));
  report.ops(traced.op_ms.size(), 0);

  // The sim.run span's self time leaves out its core.plan children.
  LayerTable layers = traced.layers;
  auto run_self = layers.self_ms.extract("sim.run");
  run_self.key() = "sim.run_self";
  layers.self_ms.insert(std::move(run_self));
  report_layers(report, layers, traced.first_spans, args,
                "mission-sweep-seed" + std::to_string(args.seed) +
                    ".spans.jsonl");

  // Deterministic counters of traced pass 0, per mission.
  const double missions = double(kPassMissions);
  const auto per = [&](obs::Metric m) { return counts.value(m) / missions; };
  using M = obs::Metric;
  report.metric("sim.events", per(M::kSimEventsFired), "count");
  report.metric("sim.events_cancelled", per(M::kSimEventsCancelled), "count");
  report.metric("sim.heap_peak", counts.value(M::kSimHeapPeak), "count");
  report.metric("net.routing_repairs", per(M::kNetRoutingRepairs), "count");
  report.metric("net.routing_rebuilds", per(M::kNetRoutingRebuilds), "count");
  report.metric("net.drain_reschedules", per(M::kNetDrainReschedules),
                "count");
  report.metric("world.deaths", per(M::kWorldDeaths), "count");
  report.metric("world.requests", per(M::kWorldRequests), "count");
  report.metric("core.replans", per(M::kCsaReplans), "count");
  report.metric("core.travel_memo_hit_ratio",
                ratio(counts.value(M::kCsaTravelMemoHits),
                      counts.value(M::kCsaTravelMemoMisses)),
                "ratio");
  report.metric("core.celf_cache_hit_ratio",
                ratio(counts.value(M::kCsaCacheHits),
                      counts.value(M::kCsaCacheMisses)),
                "ratio");
  report.metric("mc.sessions", per(M::kMcSessions), "count");
  report.metric("mc.sessions_spoofed", per(M::kMcSessionsSpoofed), "count");

  // Timing-derived layer figures over every traced pass.
  const double events_all = registries[1].value(M::kSimEventsFired);
  report.metric("sim.ns_per_event",
                events_all > 0.0
                    ? layers.self_ms.at("sim.run_self") * 1e6 / events_all
                    : 0.0,
                "ns");
  report.metric("core.plan_stops_mean",
                traced.plan_calls > 0
                    ? double(traced.plan_stops) / double(traced.plan_calls)
                    : 0.0,
                "count");
  report.metric("runner.efficiency",
                plain.busy_s / (plain.wall_s * double(workers)), "ratio");
  report.metric("obs.trace_overhead_pct",
                100.0 * (median(traced.op_ms) / median(plain.op_ms) - 1.0),
                "%");
}

}  // namespace perfbench
