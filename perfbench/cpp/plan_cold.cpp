// plan-cold: single-threaded planning on freshly built TIDE instances, so
// every plan pays its travel-matrix build.  The missions of mission-sweep
// only ever plan a handful of stops; this is where core dominates.
//
// Each operation copies a pristine instance (no cached matrix, untimed),
// constructs a fresh planner and plans.  The mix is a fixed 20-plan cycle
// (6 CSA/400, 6 CSA/1600, 4 fleet 1x1600, 4 fleet 4x1600, all +10 keys)
// chosen so that the median falls inside the CSA/1600 class and the p90
// inside the fleet 4x1600 class, not on a class boundary.
#include <array>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/fleet_planner.hpp"
#include "core/planners.hpp"
#include "core/tide.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace wrsn;

constexpr std::size_t kKeys = 10;
constexpr std::size_t kTemplatesPerClass = 6;
/// Fewest plans in a timed region: the p90 over the run then has
/// kMinTailSamples beyond it even on a build several times slower.
constexpr std::size_t kMinPlans = 100;

struct PlanClass {
  const char* name;
  std::size_t chargers;  ///< 0 = CsaPlanner, else CooperativeFleetPlanner
  std::size_t stops;
};
constexpr std::array<PlanClass, 4> kClasses{{
    {"csa-400", 0, 400},
    {"csa-1600", 0, 1600},
    {"fleet1-1600", 1, 1600},
    {"fleet4-1600", 4, 1600},
}};
constexpr std::array<std::size_t, 20> kCycle{0, 1, 2, 3, 0, 1, 2, 3, 0, 1,
                                             2, 3, 0, 1, 2, 3, 0, 1, 0, 1};

/// A table2-style stop pool: keys first, then utility stops, on a 400 m
/// square around the origin with hour-scale windows.
std::vector<csa::Stop> make_stops(Rng& gen, std::size_t utility_stops) {
  std::vector<csa::Stop> stops;
  for (std::size_t i = 0; i < kKeys + utility_stops; ++i) {
    const bool key = i < kKeys;
    csa::Stop stop;
    stop.node = static_cast<net::NodeId>(i);
    stop.position = {gen.uniform(-200.0, 200.0), gen.uniform(-200.0, 200.0)};
    stop.window_open = gen.uniform(0.0, 20'000.0);
    stop.window_close = stop.window_open + gen.uniform(3'600.0, 14'400.0);
    stop.service_time = gen.uniform(600.0, 1'800.0);
    stop.is_key = key;
    stop.utility = key ? 0.0 : gen.uniform(100.0, 8'000.0);
    stops.push_back(stop);
  }
  return stops;
}

/// One never-planned instance of a class (either kind is filled).
struct Template {
  std::size_t cls = 0;
  csa::TideInstance tide;
  csa::FleetInstance fleet;
};

/// table2_runtime's generators: chargers (fleet) are drawn before stops.
Template make_template(std::size_t cls, std::uint64_t seed) {
  Rng gen(seed);
  Template t;
  t.cls = cls;
  const PlanClass& c = kClasses[cls];
  if (c.chargers == 0) {
    t.tide.start_position = {0.0, 0.0};
    t.tide.speed = 3.0;
    t.tide.stops = make_stops(gen, c.stops);
  } else {
    for (std::size_t m = 0; m < c.chargers; ++m) {
      csa::FleetCharger charger;
      charger.start_position = {gen.uniform(-200.0, 200.0),
                                gen.uniform(-200.0, 200.0)};
      charger.speed = 3.0;
      t.fleet.chargers.push_back(charger);
    }
    t.fleet.stops = make_stops(gen, c.stops);
  }
  return t;
}

/// Counters read from a finished plan, after its timing ended.
struct Outcome {
  double utility = 0.0;
  std::size_t visits = 0;
  std::size_t keys_scheduled = 0;
};

/// Plans one fresh copy of `t` and frees what the plan built (planner
/// arenas, matrices, distance memo); the copy is made before timing.  With
/// a span log, each step gets its own span.
Outcome plan_once(const Template& t, SpanLog* log, std::uint64_t op,
                  double& op_ms) {
  Outcome out;
  if (kClasses[t.cls].chargers == 0) {
    // No cached matrix: cold.
    auto instance = std::make_unique<csa::TideInstance>(t.tide);
    const auto t0 = std::chrono::steady_clock::now();
    csa::Plan plan;
    {
      const ScopedSpan root(log, "plan", op);
      auto planner = std::make_unique<csa::CsaPlanner>();
      Rng rng(1);
      if (log != nullptr) {
        const ScopedSpan span(log, "core.matrix_build", op);
        instance->set_travel_matrix(csa::TravelMatrix::build(*instance));
      }
      {
        const ScopedSpan span(log, "core.csa_plan", op);
        plan = planner->plan(*instance, rng);
      }
      const ScopedSpan span(log, "core.plan_free", op);
      planner.reset();
      instance.reset();
    }
    op_ms = ms_since(t0);
    out.utility = plan.utility;
    out.visits = plan.visits.size();
    out.keys_scheduled = plan.keys_scheduled;
  } else {
    const csa::FleetInstance instance = t.fleet;
    const auto t0 = std::chrono::steady_clock::now();
    csa::FleetPlan plan;
    {
      const ScopedSpan root(log, "plan", op);
      auto planner = std::make_unique<csa::CooperativeFleetPlanner>();
      {
        const ScopedSpan span(log, "core.fleet_plan", op);
        plan = planner->plan(instance);
      }
      const ScopedSpan span(log, "core.plan_free", op);
      planner.reset();
    }
    op_ms = ms_since(t0);
    out.utility = plan.utility;
    for (const csa::Plan& p : plan.plans) out.visits += p.visits.size();
    out.keys_scheduled = plan.keys_scheduled;
  }
  return out;
}

/// Pinned reference: table2_runtime's seed-42 instances.  A change that
/// moves these changed the planners' results, not just their speed.
struct Pin {
  std::size_t cls;
  double utility;
  std::size_t visits;
};
constexpr std::array<Pin, 4> kPins{{
    {0, 157902.48299933888, 32},
    {1, 186219.89181148028, 36},
    {2, 189438.50996725424, 36},
    {3, 904708.12270134501, 145},
}};

}  // namespace

void run_plan_cold(const RunArgs& args, Report& report) {
  report.context("plan_cycle", double(kCycle.size()));

  // Set-up: generate the templates and plan one of each class (discarded).
  std::vector<Template> templates;
  for (std::size_t cls = 0; cls < kClasses.size(); ++cls) {
    for (std::size_t k = 0; k < kTemplatesPerClass; ++k) {
      templates.push_back(make_template(cls, derive_seed(args.seed, cls, k)));
    }
  }
  for (std::size_t cls = 0; cls < kClasses.size(); ++cls) {
    double ms = 0.0;
    plan_once(templates[cls * kTemplatesPerClass], nullptr, 0, ms);
  }
  const double setup_s = setup_seconds(args);
  if (args.setup_only) {
    report_setup(report, args, setup_s);
    return;
  }

  // Timed region: the cycle, round after round; the k-th use of a class
  // takes template k mod kTemplatesPerClass.
  const auto run = [&](double seconds, SpanLog* log,
                       std::vector<std::size_t>& used,
                       std::vector<Outcome>& outcomes) {
    std::vector<double> op_ms;
    std::array<std::size_t, kClasses.size()> uses{};
    const auto started = std::chrono::steady_clock::now();
    double wall_ms = 0.0;
    for (std::size_t i = 0;; ++i) {
      const std::size_t cls = kCycle[i % kCycle.size()];
      const std::size_t index =
          cls * kTemplatesPerClass + uses[cls]++ % kTemplatesPerClass;
      double ms = 0.0;
      outcomes.push_back(plan_once(templates[index], log, i, ms));
      used.push_back(index);
      op_ms.push_back(ms);
      wall_ms = ms_since(started);
      // Whole cycles only, so the class mix is exact.
      if (wall_ms >= seconds * 1000.0 && (i + 1) % kCycle.size() == 0 &&
          i + 1 >= kMinPlans) {
        break;
      }
    }
    return std::pair{op_ms, wall_ms};
  };

  const double untraced_seconds = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<std::size_t> used;
  std::vector<Outcome> outcomes;
  const double cpu0 = process_cpu_s();
  const auto [op_ms, wall_ms] = run(untraced_seconds, nullptr, used, outcomes);
  const double cpu_s = process_cpu_s() - cpu0;
  const double rss = peak_rss_mb();

  // Correctness, after timing: every plan of a template equals the first
  // plan of it, schedules every key, and the pinned instances still plan to
  // their recorded utility and visit count.  At most one failure is counted
  // per plan.
  const auto check_plan = [&](const std::string& what, const Outcome& want,
                              const Outcome& got) {
    if (!report.expect_value(what + " keys scheduled", double(kKeys),
                             double(got.keys_scheduled))) {
      return;
    }
    if (!report.expect_value(what + " utility", want.utility, got.utility)) {
      return;
    }
    report.expect_value(what + " visits", double(want.visits),
                        double(got.visits));
  };
  const auto check_outcomes = [&](const std::vector<std::size_t>& idx,
                                  const std::vector<Outcome>& outs,
                                  std::vector<std::optional<Outcome>>& first) {
    report.ops(outs.size(), 0);
    for (std::size_t i = 0; i < outs.size(); ++i) {
      std::optional<Outcome>& ref = first[idx[i]];
      if (!ref) ref = outs[i];
      check_plan("template " + std::to_string(idx[i]), *ref, outs[i]);
    }
  };
  std::vector<std::optional<Outcome>> first(templates.size());
  check_outcomes(used, outcomes, first);

  double pinned_utility = 0.0, pinned_visits = 0.0;
  for (const Pin& pin : kPins) {
    double ms = 0.0;
    const Outcome got = plan_once(make_template(pin.cls, 42), nullptr, 0, ms);
    pinned_utility += got.utility;
    pinned_visits += double(got.visits);
    check_plan(std::string("pinned ") + kClasses[pin.cls].name,
               {pin.utility, pin.visits, kKeys}, got);
  }

  if (!args.trace) {
    report_setup(report, args, setup_s);
    report.metric("peak_rss_mb", rss, "MB");
    // Too few plans for windows: the p90 is taken over the whole run.
    report_latency(report, op_ms, 0.9, op_ms.size());
    report.metric("ops_per_s", double(op_ms.size()) * 1000.0 / wall_ms, "1/s");
    report.metric("ops_per_cpu_s", double(op_ms.size()) / cpu_s, "1/s");
    return;
  }

  SpanLog log;
  std::vector<std::size_t> traced_used;
  std::vector<Outcome> traced_outcomes;
  const auto traced = run(args.seconds / 2, &log, traced_used, traced_outcomes);
  check_outcomes(traced_used, traced_outcomes, first);
  const std::vector<Span> spans = log.take();
  report_layers(report, layer_table(spans), spans, args,
                "plan-cold-seed" + std::to_string(args.seed) + ".spans.jsonl");
  report.metric("core.plan_utility", pinned_utility, "count");
  report.metric("core.plan_visits", pinned_visits, "count");
  report.metric("obs.trace_overhead_pct",
                100.0 * (median(traced.first) / median(op_ms) - 1.0), "%");
}

}  // namespace perfbench
