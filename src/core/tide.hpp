// TIDE: the charging-uTility optImization problem with key-noDe timE window
// constraints — the formal core of the Charging Spoofing Attack.
//
// Given the mobile charger's position, a set of KEY stops (nodes to be
// spoof-charged; each must have its service START inside a hard time window,
// i.e. after the node's charging request and before the base station's
// escalation deadline) and a set of UTILITY stops (genuine charging jobs,
// each with its own window and a utility equal to the energy it restores),
// find a route and schedule that services every key stop inside its window
// while maximizing the total utility of the genuine stops served.  Waiting
// at a stop until its window opens is allowed.  TIDE contains TSP with time
// windows as the special case of zero utility stops, hence it is NP-hard.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "geom/vec2.hpp"
#include "net/network.hpp"

namespace wrsn::csa {

struct TideInstance;

/// One candidate visit in a TIDE instance.
struct Stop {
  net::NodeId node = net::kInvalidNode;
  geom::Vec2 position;
  /// Earliest allowed service start [s] (the node's request time).
  Seconds window_open = 0.0;
  /// Latest allowed service start [s] (escalation deadline minus margin).
  Seconds window_close = 0.0;
  /// Service duration [s].
  Seconds service_time = 0.0;
  /// Utility of serving this stop (0 for key stops by convention).
  double utility = 0.0;
  /// Key stops are hard constraints (spoof targets); others are optional.
  bool is_key = false;
};

/// Travel times over an instance's stops plus the charger's start position,
/// filled row by row on demand.  The start row is computed eagerly; stop
/// `i`'s row (its travel time to every stop) is computed the first time
/// row(i) asks for it.  A TIDE plan only reads travel times out of stops
/// that are, or are about to be, on the route, so a plan over S stops and a
/// route of R stops pays at most R*S distances instead of the S^2/2 of a
/// dense fill.  A new row copies the cells it shares with rows filled
/// before it, so each pair's distance is still computed once.
///
/// Values are bit-identical to TideInstance::travel_time on the same
/// endpoints: every cell is `distance / speed` with the instance speed, and
/// row(i)[j] == row(j)[i] because hypot is sign-symmetric.
///
/// Rows live in pooled storage: a row pointer stays valid until the next
/// rebuild(), and rebuild() reuses the pool, so refilling for a previously
/// seen size allocates nothing.  Reading a row may fill it, so a matrix (and
/// an instance that owns one) belongs to one thread at a time.  The matrix
/// reads its stops through the instance's stop storage: it is valid while
/// that storage is unchanged (TideInstance::travel_matrix checks coverage).
class TravelMatrix {
 public:
  TravelMatrix() = default;
  /// Move-only: row pointers point into this matrix's pool.
  TravelMatrix(TravelMatrix&&) noexcept = default;
  TravelMatrix& operator=(TravelMatrix&&) noexcept = default;
  TravelMatrix(const TravelMatrix&) = delete;
  TravelMatrix& operator=(const TravelMatrix&) = delete;

  /// A matrix over `instance`.  The start row is computed eagerly.
  static TravelMatrix build(const TideInstance& instance);

  /// In-place variant of build(): retargets this matrix at `instance`,
  /// forgetting every row and keeping the row pool.
  void rebuild(const TideInstance& instance);

  std::size_t size() const { return n_; }
  /// True when this matrix was built over this very stop storage.
  bool covers(const std::vector<Stop>& stops) const {
    return n_ == stops.size() && stops_ == stops.data();
  }
  /// Travel time from the instance start position to stop `i`.
  Seconds from_start(std::size_t i) const { return start_row_[i]; }
  /// Travel time between stops `i` and `j`; fills row `i` if needed.
  Seconds between(std::size_t i, std::size_t j) const { return row(i)[j]; }
  /// Row `i` as a flat lane, row(i)[j] == between(i, j), filled on first
  /// use.  Planners read rows of route stops only.
  const Seconds* row(std::size_t i) const {
    const Seconds* r = rows_[i];
    return r != nullptr ? r : fill_row(i);
  }
  /// Rows filled since the last rebuild().
  std::size_t rows_filled() const { return pool_used_; }

 private:
  const Seconds* fill_row(std::size_t i) const;

  std::size_t n_ = 0;
  const Stop* stops_ = nullptr;
  MetersPerSecond speed_ = 0.0;
  std::vector<Seconds> start_row_;
  /// Per stop, its row in the pool, or nullptr until filled.
  mutable std::vector<const Seconds*> rows_;
  /// Row storage.  The first pool_used_ entries hold this build's rows.
  /// Growing the pool moves the row vectors but not their buffers, so the
  /// pointers in rows_ stay valid.
  mutable std::vector<std::vector<Seconds>> pool_;
  mutable std::size_t pool_used_ = 0;
};

/// A static TIDE planning problem.
struct TideInstance {
  geom::Vec2 start_position;
  Seconds start_time = 0.0;
  MetersPerSecond speed = 3.0;
  std::vector<Stop> stops;

  std::size_t key_count() const;
  /// Travel time between two stop positions at the instance speed.
  Seconds travel_time(geom::Vec2 from, geom::Vec2 to) const;
  /// The instance's travel-time matrix, built on first call (planners call
  /// this once per plan).  Throws PreconditionError when the matrix no
  /// longer covers `stops` (stops were added or removed after it was
  /// built).  Not thread-safe: see TravelMatrix.
  const TravelMatrix& travel_matrix() const;
  /// Installs a pre-built matrix.  Must cover `stops`.
  void set_travel_matrix(TravelMatrix matrix);
  /// Retargets the instance's matrix at the current `stops` in place,
  /// keeping its row pool — the zero-alloc replan path: callers refill
  /// `stops` and call this, and a stop set of a previously seen size
  /// allocates nothing.
  void rebuild_travel_matrix();
  /// Throws ConfigError on inconsistent data (non-positive speed, or a stop
  /// that fails validate_stops).
  void validate() const;

 private:
  /// The matrix slot.  A copy of an instance starts without a matrix: the
  /// matrix reads the original's stop storage and fills rows on read, so a
  /// copy must neither depend on the original nor share its matrix across
  /// threads.  A move keeps the matrix (the stop storage moves with it).
  struct MatrixSlot {
    std::optional<TravelMatrix> matrix;
    MatrixSlot() = default;
    MatrixSlot(const MatrixSlot&) {}
    MatrixSlot& operator=(const MatrixSlot&) {
      matrix.reset();
      return *this;
    }
    MatrixSlot(MatrixSlot&&) noexcept = default;
    MatrixSlot& operator=(MatrixSlot&&) noexcept = default;
  };
  mutable MatrixSlot matrix_;
};

/// The per-stop checks shared by TideInstance::validate and
/// FleetInstance::validate: throws ConfigError on a stop whose window
/// closes before it opens, or with a negative service time or utility.
void validate_stops(std::span<const Stop> stops);

/// Feasibility tolerance on window-close comparisons [s]; shared by the
/// evaluators and the planners' incremental insertion checks so a schedule
/// accepted by one is never rejected by the other over rounding.
inline constexpr Seconds kWindowEpsilon = 1e-9;

/// One scheduled visit of an evaluated plan.
struct Visit {
  std::size_t stop_index = 0;
  Seconds arrival = 0.0;        ///< when the MC reaches the stop
  Seconds service_start = 0.0;  ///< max(arrival, window_open)
  Seconds departure = 0.0;      ///< service_start + service_time
};

/// An evaluated route through a TIDE instance.
struct Plan {
  std::vector<Visit> visits;
  double utility = 0.0;          ///< total utility of non-key stops served
  std::size_t keys_scheduled = 0;
  std::size_t keys_total = 0;
  Seconds completion_time = 0.0;

  bool covers_all_keys() const { return keys_scheduled == keys_total; }
};

/// Walks `order` (stop indices) through the instance: arrivals, in-window
/// waits, departures.  Returns nullopt if any stop's service would start
/// after its window closes.  `keys_total` is filled from the instance (not
/// from the order), so a feasible order that omits keys yields a Plan with
/// covers_all_keys() == false.
std::optional<Plan> evaluate_order(const TideInstance& instance,
                                   std::span<const std::size_t> order);

/// Allocation-free variant: fills `out` in place (reusing its visit storage)
/// and returns false instead of nullopt on an infeasible order.  `out` is
/// cleared in both cases.
bool evaluate_order_into(const TideInstance& instance,
                         std::span<const std::size_t> order, Plan& out);

/// Like evaluate_order but drops infeasible stops instead of failing:
/// greedily keeps each stop whose window can still be met.  Used by the
/// baseline planners that ignore deadlines when choosing their order.
Plan evaluate_order_dropping(const TideInstance& instance,
                             std::span<const std::size_t> order);

}  // namespace wrsn::csa
