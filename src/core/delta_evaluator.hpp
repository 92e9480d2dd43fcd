// Unified incremental cost evaluation for single moves and pairwise swaps.
//
// Every local-search loop in the library (the Burkard iterate polish, the
// V-cycle refinement, ECO repair, the GKL baseline) needs the same two
// primitives: "what does the objective do if component j moves to partition
// i?" and "... if components a and b swap?".  This module is the single
// implementation:
//
//   * delta_detail::{move,swap}_delta_penalized are the one-off penalized
//     deltas -- QhatMatrix::{move,swap}_delta_penalized delegate here, and
//     both are expressed as the plain-objective delta (partition/cost.hpp)
//     plus a timing-violation correction.  They read the assignment only,
//     which makes them the reference the cached paths are checked against.
//   * DeltaEvaluator caches, per component j, the row R_j[i] of j's incident
//     cost if it sat in partition i, everything else fixed.  A row is built
//     once in O((deg_A(j) + deg_Dc(j)) * M) and then kept current: a commit
//     through the evaluator shifts the row of every neighbor and timing
//     partner of the mover in place by the O(M) from -> to difference of its
//     wire and penalty terms.  A row is therefore never stale; only
//     invalidate() drops rows, and the next read rebuilds them.  Move
//     deltas are R_j[i] - R_j[current]; a swap delta is two row differences
//     plus the (a, b) pair's own term, O(1) once both rows exist.
//   * In-place shifts sum the same terms in a different order than a fresh
//     build.  On integer-valued costs (every bench instance) the rows are
//     exact, so shifted and rebuilt rows agree to the bit; on real-valued
//     costs they agree to rounding.
//
// The evaluator is not thread-safe; give each solver run its own instance
// (they are cheap: O(N) bookkeeping plus rows built on demand).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/problem.hpp"

namespace qbp {

namespace delta_detail {

/// Change in the penalized value y^T Qhat y (objective + penalty embedding)
/// if `component` moved to `target`.  Single shared implementation used by
/// QhatMatrix::move_delta_penalized and DeltaEvaluator.
[[nodiscard]] double move_delta_penalized(const PartitionProblem& problem,
                                          double penalty,
                                          const Assignment& assignment,
                                          std::int32_t component,
                                          PartitionId target);

/// Change in the penalized value if the two components exchanged partitions.
[[nodiscard]] double swap_delta_penalized(const PartitionProblem& problem,
                                          double penalty,
                                          const Assignment& assignment,
                                          std::int32_t component_a,
                                          std::int32_t component_b);

}  // namespace delta_detail

class DeltaEvaluator {
 public:
  /// `penalty > 0`: deltas are on the penalized objective y^T Qhat y (the
  /// metric Burkard's polish descends); `penalty == 0`: deltas are on the
  /// true objective (the metric the feasible-region baselines descend).
  /// Holds a reference; `problem` must outlive the evaluator.
  explicit DeltaEvaluator(const PartitionProblem& problem, double penalty = 0.0);

  [[nodiscard]] double penalty() const noexcept { return penalty_; }

  /// Exact one-off move delta (no caching): the reference the rows are
  /// checked against.
  [[nodiscard]] double move_delta(const Assignment& assignment,
                                  std::int32_t component,
                                  PartitionId target) const;

  /// Change if the two (assigned) components exchanged partitions, from
  /// their cached rows plus the (a, b) pair's own term:
  ///   (R_a[p_b] - R_a[p_a]) + (R_b[p_a] - R_b[p_b])
  ///     + 2 g(p_a, p_b) - g(p_a, p_a) - g(p_b, p_b),
  /// where g(x, y) is the pair's term in a's row with a at x and b at y.
  /// Builds either row if missing; O(log degree) afterwards.
  /// Inline: GKL calls it for every candidate pair.
  [[nodiscard]] double swap_delta(const Assignment& assignment,
                                  std::int32_t component_a,
                                  std::int32_t component_b) {
    const auto pa = static_cast<std::size_t>(assignment[component_a]);
    const auto pb = static_cast<std::size_t>(assignment[component_b]);
    if (pa == pb) return 0.0;
    const std::span<const double> row_a = fresh_row(assignment, component_a);
    const std::span<const double> row_b = fresh_row(assignment, component_b);
    const double rows_delta = (row_a[pb] - row_a[pa]) + (row_b[pa] - row_b[pb]);
    const std::int32_t wires = wires_->value_or(component_a, component_b, 0);
    const double bound =
        penalty_ > 0.0 ? bounds_->value_or(component_a, component_b, kNoBound)
                       : kNoBound;
    if (wires == 0 && bound == kNoBound) return rows_delta;  // g == 0
    return rows_delta + pair_correction(static_cast<PartitionId>(pa),
                                        static_cast<PartitionId>(pb),
                                        problem_->beta() * wires, bound);
  }

  /// Deltas for moving `component` to every partition (entry [current] is
  /// 0), read from its cached row in O(M).  The returned span aliases an
  /// internal buffer invalidated by the next move_deltas call.
  [[nodiscard]] std::span<const double> move_deltas(const Assignment& assignment,
                                                    std::int32_t component);

  /// Apply a move/swap *through* the evaluator so the cached rows of the
  /// mover's neighbors and timing partners are shifted in place.  A swap
  /// is two moves applied in order.  Mutating the assignment behind the
  /// evaluator's back requires a subsequent invalidate().
  void commit_move(Assignment& assignment, std::int32_t component,
                   PartitionId target);
  void commit_swap(Assignment& assignment, std::int32_t component_a,
                   std::int32_t component_b);

  /// Build every currently-missing row for `assignment` up front, in
  /// parallel through the shared util/parallel pool.  A row is a pure
  /// function of its component's neighbors'/partners' positions, so
  /// prefetching it produces the same bits lazy building would.  The
  /// builds are profiled as "delta.row_build" events, as lazy builds are.
  /// Safe only while no other call is active on this evaluator.
  void prefetch_rows(const Assignment& assignment, std::int32_t threads);

  /// Drop all cached rows (the assignment changed externally).
  void invalidate();

  [[nodiscard]] std::uint64_t cache_hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t cache_misses() const noexcept { return misses_; }

 private:
  /// Row j: the incident cost of component j by candidate partition --
  /// linear term plus both ordered wire terms per neighbor, with the
  /// penalty replacing a wire term whenever that direction violates its
  /// bound (penalized mode only).
  [[nodiscard]] std::span<double> row(std::int32_t component) noexcept {
    return {incident_.data() + static_cast<std::size_t>(component) * m_, m_};
  }
  void build_row(const Assignment& assignment, std::int32_t component,
                 std::span<double> row) const;
  /// The one freshness path: `component`'s row, built first if missing.
  /// Inline: GKL reads two rows per candidate pair.
  std::span<const double> fresh_row(const Assignment& assignment,
                                    std::int32_t component) {
    if (valid_[static_cast<std::size_t>(component)] != 0) {
      ++hits_;
    } else {
      build_missing_row(assignment, component);
    }
    return row(component);
  }
  void build_missing_row(const Assignment& assignment, std::int32_t component);
  /// 2 g(p_a, p_b) - g(p_a, p_a) - g(p_b, p_b) for a pair joined by
  /// `wire_scale` = beta * wires and constrained by `bound` (kNoBound if
  /// not constrained or not penalized).
  [[nodiscard]] double pair_correction(PartitionId pa, PartitionId pb,
                                       double wire_scale, double bound) const;
  /// Penalized-mode terms of a constrained pair with one end at `i` and
  /// the other at `other`: each direction whose delay exceeds `bound`
  /// swaps its wire term (`wire_scale` * B) for the penalty.
  [[nodiscard]] double violation_terms(PartitionId i, PartitionId other,
                                       double bound, double wire_scale) const;
  /// Shift the rows that depend on `component`'s position (its neighbors'
  /// and timing partners', never its own) for its move from -> to; either
  /// end may be kUnassigned.
  void shift_dependents(std::int32_t component, PartitionId from,
                        PartitionId to);

  static constexpr double kNoBound = std::numeric_limits<double>::infinity();

  const PartitionProblem* problem_;
  const Csr<std::int32_t>* wires_;  // the connection matrix A
  const Csr<double>* bounds_;       // the timing matrix Dc
  double penalty_;
  std::size_t m_;                   // partitions: the row length
  std::vector<double> incident_;    // N x M rows, built lazily
  std::vector<std::uint8_t> valid_; // valid_[j]: row j is built (and current)
  std::vector<double> deltas_;  // scratch returned by move_deltas
  std::vector<double> shift_;   // scratch: one mover's wire shift per partition
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace qbp
