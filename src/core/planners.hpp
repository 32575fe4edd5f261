// TIDE planners: the CSA approximation algorithm and the baseline attackers
// it is evaluated against.
//
// CsaPlanner implements the paper's two-phase scheme:
//   Phase 1 (key skeleton): key stops are taken in earliest-deadline order
//     and each is placed at the feasible route position that minimizes the
//     route completion time — the EDF ordering is what makes tight window
//     sets schedulable.
//   Phase 2 (slack filling): genuine charging stops are inserted one at a
//     time by cost-benefit greedy (utility per unit of added route time),
//     never violating a key window.  Utility of a stop set is additive
//     (hence monotone submodular), so cost-benefit greedy inherits the
//     classic 1/2*(1-1/e) guarantee relative to the optimal utility of the
//     residual routing problem; the fig8 bench measures the empirical ratio
//     against an exact solver.
//
// Performance: insertion feasibility is O(1) via the push-forward slack
// suffix array in core/route_state.hpp (so best_insertion is O(route)), all
// travel times come from the rows of route stops in the instance's lazily
// filled TravelMatrix (no sqrt in the inner loops, and no row for a stop
// that never joins the route), and the greedy fill is lazy, CELF-style: a
// round stops rescoring once the remaining utilities (an upper bound on the
// cost-benefit score) drop below the incumbent.
// Plans are bit-identical to the retained naive implementation
// (core/reference_planner.hpp), which the plan-equivalence property test
// enforces on every run.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/celf_fill.hpp"
#include "core/route_state.hpp"
#include "core/tide.hpp"

namespace wrsn::csa {

/// Strategy interface every attacker's route planner implements.
///
/// Thread affinity: plan() is const but implementations may carry mutable
/// arenas (CsaPlanner reuses its route state and candidate table across
/// calls), so one planner instance must only ever be used by one thread at
/// a time.  Code that fans work out across runner threads constructs a
/// planner per trial instead of sharing one instance — run_scenario already
/// does this for its default planner.
class Planner {
 public:
  virtual ~Planner() = default;
  virtual std::string_view name() const = 0;
  /// Plans a route for `instance`; `rng` feeds randomized strategies.
  virtual Plan plan(const TideInstance& instance, Rng& rng) const = 0;
  /// In-place variant for the receding-horizon replan loop: fills `out`
  /// reusing its storage.  The default forwards to plan(); allocation-aware
  /// planners override it to reuse their arenas.
  virtual void plan_into(const TideInstance& instance, Rng& rng,
                         Plan& out) const {
    out = plan(instance, rng);
  }
};

/// The paper's algorithm (EDF key skeleton + cost-benefit greedy filling).
class CsaPlanner final : public Planner {
 public:
  /// Flushes the accumulated planning tallies (insertions tried, candidate
  /// rescores) to the installed obs registry in one shot — plan()
  /// runs every replan, too often for registry writes per call.
  ~CsaPlanner() override;
  std::string_view name() const override { return "CSA"; }
  Plan plan(const TideInstance& instance, Rng& rng) const override;
  /// Zero-allocation after warmup: the route state, key list, and candidate
  /// table are arenas reused across calls, so a steady-state replan performs
  /// no heap allocation at all (sim_alloc_test pins this).
  void plan_into(const TideInstance& instance, Rng& rng,
                 Plan& out) const override;

 private:
  // plan() is const (Planner interface); the arenas hold no cross-call
  // state the next call can observe, and the tallies are observability only.
  mutable RouteState route_;
  mutable std::vector<std::size_t> keys_;
  mutable CelfFill fill_;
  mutable std::uint64_t insertions_tried_ = 0;
  mutable std::uint64_t cache_misses_ = 0;
};

/// Nearest-stop-next attacker: always heads to the closest not-yet-expired
/// stop, ignoring deadlines when choosing.  Misses tight key windows.
class GreedyNearestPlanner final : public Planner {
 public:
  std::string_view name() const override { return "Greedy-nearest"; }
  Plan plan(const TideInstance& instance, Rng& rng) const override;
};

/// Random-order attacker: visits stops in a random order, dropping any whose
/// window has already closed on arrival.
class RandomPlanner final : public Planner {
 public:
  std::string_view name() const override { return "Random"; }
  Plan plan(const TideInstance& instance, Rng& rng) const override;
};

/// Utility-first ablation: runs the greedy utility fill FIRST and only then
/// tries to place key stops in the leftover slack.  Demonstrates why the
/// key-skeleton-first ordering of CSA is necessary.
class UtilityFirstPlanner final : public Planner {
 public:
  std::string_view name() const override { return "Utility-first"; }
  Plan plan(const TideInstance& instance, Rng& rng) const override;
};

}  // namespace wrsn::csa
