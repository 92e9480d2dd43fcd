#include "core/delta_evaluator.hpp"

#include <algorithm>

#include "partition/cost.hpp"

#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/prof.hpp"

namespace qbp {

namespace delta_detail {

namespace {

/// Sum of (penalty - wire term) over the ordered violating pairs involving
/// `component` if it sat in partition `i`, with the position of one partner
/// optionally overridden (used by the swap variant; pass override = -1 for
/// moves).  Violations only occur on constrained pairs, so only the timing
/// partner list is scanned.
double violation_contribution(const PartitionProblem& problem, double penalty,
                              const Assignment& assignment,
                              std::int32_t component, PartitionId i,
                              std::int32_t override_partner,
                              PartitionId override_at,
                              std::int32_t skip_partner = -1) {
  const auto& topology = problem.topology();
  const auto& adjacency = problem.netlist().connection_matrix();
  const auto partners = problem.timing().partners(component);
  const auto bounds = problem.timing().bounds(component);
  double total = 0.0;
  for (std::size_t k = 0; k < partners.size(); ++k) {
    const std::int32_t partner = partners[k];
    if (partner == skip_partner) continue;
    const PartitionId other =
        partner == override_partner ? override_at : assignment[partner];
    if (other == Assignment::kUnassigned) continue;
    // Constraints hold for almost every pair almost all the time, so the
    // adjacency lookup (a binary search) only happens once a violation
    // actually fires.
    const bool forward = topology.delay(i, other) > bounds[k];
    const bool backward = topology.delay(other, i) > bounds[k];
    if (!forward && !backward) continue;
    const double wire_scale =
        problem.beta() * adjacency.value_or(component, partner, 0);
    if (forward) {
      total += penalty - wire_scale * topology.wire_cost(i, other);
    }
    if (backward) {
      total += penalty - wire_scale * topology.wire_cost(other, i);
    }
  }
  return total;
}

}  // namespace

double move_delta_penalized(const PartitionProblem& problem, double penalty,
                            const Assignment& assignment,
                            std::int32_t component, PartitionId target) {
  const PartitionId source = assignment[component];
  if (source == target) return 0.0;
  return move_delta_objective(problem.netlist(), problem.topology(),
                              problem.linear_cost_matrix(), problem.alpha(),
                              problem.beta(), assignment, component, target) +
         violation_contribution(problem, penalty, assignment, component, target,
                                -1, Assignment::kUnassigned) -
         violation_contribution(problem, penalty, assignment, component, source,
                                -1, Assignment::kUnassigned);
}

double swap_delta_penalized(const PartitionProblem& problem, double penalty,
                            const Assignment& assignment,
                            std::int32_t component_a, std::int32_t component_b) {
  const PartitionId pa = assignment[component_a];
  const PartitionId pb = assignment[component_b];
  if (pa == pb) return 0.0;

  // Penalized delta = objective delta + change in the violation correction
  // over the ordered constrained pairs involving a or b.  Each state's
  // correction counts a's pairs (with b's position overridden) plus b's
  // pairs, skipping the (a, b) pair in b's scan so it is counted once.
  const auto correction = [&](PartitionId at_a, PartitionId at_b) {
    return violation_contribution(problem, penalty, assignment, component_a,
                                  at_a, component_b, at_b) +
           violation_contribution(problem, penalty, assignment, component_b,
                                  at_b, component_a, at_a, component_a);
  };

  return swap_delta_objective(problem.netlist(), problem.topology(),
                              problem.linear_cost_matrix(), problem.alpha(),
                              problem.beta(), assignment, component_a,
                              component_b) +
         correction(pb, pa) - correction(pa, pb);
}

}  // namespace delta_detail

DeltaEvaluator::DeltaEvaluator(const PartitionProblem& problem, double penalty)
    : problem_(&problem),
      wires_(&problem.netlist().connection_matrix()),
      bounds_(&problem.timing().matrix()),
      penalty_(penalty),
      m_(static_cast<std::size_t>(problem.num_partitions())),
      incident_(static_cast<std::size_t>(problem.num_components()) * m_, 0.0),
      valid_(static_cast<std::size_t>(problem.num_components()), 0),
      deltas_(static_cast<std::size_t>(problem.num_partitions()), 0.0),
      shift_(static_cast<std::size_t>(problem.num_partitions()), 0.0) {
  QBP_CHECK_GE(penalty, 0.0);
}

double DeltaEvaluator::move_delta(const Assignment& assignment,
                                  std::int32_t component,
                                  PartitionId target) const {
  if (penalty_ > 0.0) {
    return delta_detail::move_delta_penalized(*problem_, penalty_, assignment,
                                              component, target);
  }
  return move_delta_objective(problem_->netlist(), problem_->topology(),
                              problem_->linear_cost_matrix(), problem_->alpha(),
                              problem_->beta(), assignment, component, target);
}

double DeltaEvaluator::violation_terms(PartitionId i, PartitionId other,
                                       double bound, double wire_scale) const {
  const auto& topology = problem_->topology();
  double total = 0.0;
  if (topology.delay(i, other) > bound) {
    total += penalty_ - wire_scale * topology.wire_cost(i, other);
  }
  if (topology.delay(other, i) > bound) {
    total += penalty_ - wire_scale * topology.wire_cost(other, i);
  }
  return total;
}

double DeltaEvaluator::pair_correction(PartitionId pa, PartitionId pb,
                                       double wire_scale, double bound) const {
  // g(x, y): the (a, b) pair's own term in a's row, a at x and b at y.
  // Both rows price the pair against the other end's *current* position,
  // so the row differences mis-count it; this puts it right.
  const auto& topology = problem_->topology();
  const auto g = [&](PartitionId x, PartitionId y) {
    double term =
        wire_scale * (topology.wire_cost(x, y) + topology.wire_cost(y, x));
    if (bound != kNoBound) term += violation_terms(x, y, bound, wire_scale);
    return term;
  };
  return 2.0 * g(pa, pb) - g(pa, pa) - g(pb, pb);
}

void DeltaEvaluator::build_row(const Assignment& assignment,
                               std::int32_t component,
                               std::span<double> row) const {
  const std::int32_t m = problem_->num_partitions();
  const auto& topology = problem_->topology();
  const Csr<std::int32_t>& adjacency = *wires_;
  const double beta = problem_->beta();

  std::fill(row.begin(), row.end(), 0.0);

  // Linear term.
  if (!problem_->linear_cost_matrix().empty()) {
    for (PartitionId i = 0; i < m; ++i) {
      row[static_cast<std::size_t>(i)] =
          problem_->alpha() * problem_->linear_cost(i, component);
    }
  }

  // Wire terms: both ordered directions per neighbor.
  const auto neighbors = adjacency.row_indices(component);
  const auto wires = adjacency.row_values(component);
  for (std::size_t k = 0; k < neighbors.size(); ++k) {
    const PartitionId other = assignment[neighbors[k]];
    if (other == Assignment::kUnassigned) continue;
    const double scale = beta * wires[k];
    for (PartitionId i = 0; i < m; ++i) {
      row[static_cast<std::size_t>(i)] +=
          scale *
          (topology.wire_cost(i, other) + topology.wire_cost(other, i));
    }
  }

  // Penalized mode: for each constrained partner, a violating direction's
  // wire term is replaced by the flat penalty.
  if (penalty_ > 0.0) {
    const auto partners = bounds_->row_indices(component);
    const auto bounds = bounds_->row_values(component);
    for (std::size_t k = 0; k < partners.size(); ++k) {
      const PartitionId other = assignment[partners[k]];
      if (other == Assignment::kUnassigned) continue;
      const double wire_scale =
          beta * adjacency.value_or(component, partners[k], 0);
      for (PartitionId i = 0; i < m; ++i) {
        row[static_cast<std::size_t>(i)] +=
            violation_terms(i, other, bounds[k], wire_scale);
      }
    }
  }
}

void DeltaEvaluator::build_missing_row(const Assignment& assignment,
                                       std::int32_t component) {
  QBP_PROF_SCOPE("delta.row_build");
  ++misses_;
  build_row(assignment, component, row(component));
  valid_[static_cast<std::size_t>(component)] = 1;
}

std::span<const double> DeltaEvaluator::move_deltas(const Assignment& assignment,
                                                    std::int32_t component) {
  const std::span<const double> incident = fresh_row(assignment, component);
  const double baseline =
      incident[static_cast<std::size_t>(assignment[component])];
  for (std::size_t i = 0; i < deltas_.size(); ++i) {
    deltas_[i] = incident[i] - baseline;
  }
  return deltas_;
}

void DeltaEvaluator::shift_dependents(std::int32_t component, PartitionId from,
                                      PartitionId to) {
  if (from == to) return;
  const std::int32_t m = problem_->num_partitions();
  const auto& topology = problem_->topology();
  const Csr<std::int32_t>& adjacency = *wires_;
  const double beta = problem_->beta();

  // Wire terms: a neighbor row's entry i holds w * (B(i, from) + B(from, i))
  // for this mover; it becomes w * (B(i, to) + B(to, i)).
  const auto wire_pair = [&](PartitionId i, PartitionId at) {
    if (at == Assignment::kUnassigned) return 0.0;
    return topology.wire_cost(i, at) + topology.wire_cost(at, i);
  };
  for (PartitionId i = 0; i < m; ++i) {
    shift_[static_cast<std::size_t>(i)] = wire_pair(i, to) - wire_pair(i, from);
  }
  const auto neighbors = adjacency.row_indices(component);
  const auto wires = adjacency.row_values(component);
  for (std::size_t k = 0; k < neighbors.size(); ++k) {
    if (valid_[static_cast<std::size_t>(neighbors[k])] == 0) continue;
    const std::span<double> incident = row(neighbors[k]);
    const double scale = beta * wires[k];
    for (std::size_t i = 0; i < m_; ++i) incident[i] += scale * shift_[i];
  }

  // Penalty terms: the partner's violation terms against this mover move
  // from `from` to `to` (Dc is symmetric, so the mover's bound is the
  // partner's).
  if (penalty_ <= 0.0) return;
  const auto partners = bounds_->row_indices(component);
  const auto bounds = bounds_->row_values(component);
  for (std::size_t k = 0; k < partners.size(); ++k) {
    if (valid_[static_cast<std::size_t>(partners[k])] == 0) continue;
    const std::span<double> incident = row(partners[k]);
    const double wire_scale =
        beta * adjacency.value_or(component, partners[k], 0);
    for (PartitionId i = 0; i < m; ++i) {
      double shift = 0.0;
      if (to != Assignment::kUnassigned) {
        shift += violation_terms(i, to, bounds[k], wire_scale);
      }
      if (from != Assignment::kUnassigned) {
        shift -= violation_terms(i, from, bounds[k], wire_scale);
      }
      incident[static_cast<std::size_t>(i)] += shift;
    }
  }
}

void DeltaEvaluator::commit_move(Assignment& assignment, std::int32_t component,
                                 PartitionId target) {
  const PartitionId from = assignment[component];
  assignment.set(component, target);
  shift_dependents(component, from, target);
}

void DeltaEvaluator::commit_swap(Assignment& assignment,
                                 std::int32_t component_a,
                                 std::int32_t component_b) {
  const PartitionId pa = assignment[component_a];
  commit_move(assignment, component_a, assignment[component_b]);
  commit_move(assignment, component_b, pa);
}

void DeltaEvaluator::prefetch_rows(const Assignment& assignment,
                                   std::int32_t threads) {
  QBP_PROF_SCOPE("delta.prefetch");
  static const prof::PhaseId kRowBuild = prof::register_phase("delta.row_build");
  const auto n = static_cast<std::int64_t>(valid_.size());
  // Each chunk owns a disjoint slice of rows, and build_row writes only
  // its own row, so the parallel build is race-free.  The miss counter is
  // summed from per-chunk partials afterwards (no atomics on results).
  const std::int64_t built = par::parallel_reduce(
      n, /*grain=*/32, threads, std::int64_t{0},
      [&](std::int64_t begin, std::int64_t end) {
        std::int64_t count = 0;
        for (std::int64_t j = begin; j < end; ++j) {
          std::uint8_t& valid = valid_[static_cast<std::size_t>(j)];
          if (valid != 0) continue;
          const auto component = static_cast<std::int32_t>(j);
          build_row(assignment, component, row(component));
          valid = 1;
          ++count;
        }
        return count;
      },
      [](std::int64_t acc, std::int64_t part) { return acc + part; });
  misses_ += static_cast<std::uint64_t>(built);
  prof::record_events(kRowBuild, built);
}

void DeltaEvaluator::invalidate() {
  std::fill(valid_.begin(), valid_.end(), std::uint8_t{0});
}

}  // namespace qbp
