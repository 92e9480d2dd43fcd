#include "baselines/gkl.hpp"

#include <vector>

#include "core/delta_evaluator.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace qbp {

namespace {

struct Swap {
  std::int32_t a;
  std::int32_t b;
};

}  // namespace

GklResult solve_gkl(const PartitionProblem& problem, const Assignment& initial,
                    const GklOptions& options) {
  QBP_CHECK(initial.is_complete());
  QBP_CHECK(problem.is_feasible(initial))
      << "GKL requires a feasible starting solution (Section 5)";

  const Timer timer;
  const std::int32_t n = problem.num_components();
  const auto& sizes = problem.netlist().sizes();
  const auto& topology = problem.topology();

  GklResult result;
  result.assignment = initial;
  Assignment& assignment = result.assignment;
  CapacityLedger ledger(assignment, sizes, problem.topology().capacities());
  // Swap deltas on the true objective, O(1) from the evaluator's rows,
  // which commit_swap keeps current for applied and rolled-back swaps.
  DeltaEvaluator evaluator(problem, /*penalty=*/0.0);

  const auto swap_feasible = [&](std::int32_t j1, std::int32_t j2) {
    const PartitionId p1 = assignment[j1];
    const PartitionId p2 = assignment[j2];
    const double s1 = sizes[static_cast<std::size_t>(j1)];
    const double s2 = sizes[static_cast<std::size_t>(j2)];
    if (ledger.usage(p1) - s1 + s2 > ledger.capacity(p1) + CapacityLedger::kTolerance)
      return false;
    if (ledger.usage(p2) - s2 + s1 > ledger.capacity(p2) + CapacityLedger::kTolerance)
      return false;
    return problem.timing().component_feasible_at(assignment, topology, j1, p2,
                                                  j2, p1) &&
           problem.timing().component_feasible_at(assignment, topology, j2, p1,
                                                  j1, p2);
  };

  const auto apply_swap = [&](std::int32_t j1, std::int32_t j2) {
    const PartitionId p1 = assignment[j1];
    const PartitionId p2 = assignment[j2];
    const double s1 = sizes[static_cast<std::size_t>(j1)];
    const double s2 = sizes[static_cast<std::size_t>(j2)];
    ledger.remove(p1, s1);
    ledger.add(p2, s1);
    ledger.remove(p2, s2);
    ledger.add(p1, s2);
    evaluator.commit_swap(assignment, j1, j2);
  };

  std::vector<bool> locked(static_cast<std::size_t>(n), false);

  for (std::int32_t outer = 0; outer < options.max_outer_loops; ++outer) {
    if (options.should_stop && options.should_stop()) break;
    std::fill(locked.begin(), locked.end(), false);
    std::vector<Swap> applied;
    double cumulative = 0.0;
    double best_prefix_gain = 0.0;
    std::size_t best_prefix_length = 0;
    std::int64_t stale = 0;

    const std::int64_t swap_cap = options.max_swaps_per_pass >= 0
                                      ? options.max_swaps_per_pass
                                      : static_cast<std::int64_t>(n);
    while (static_cast<std::int64_t>(applied.size()) < swap_cap) {
      // Best feasible swap over all unlocked pairs in different partitions.
      std::int32_t best_a = -1;
      std::int32_t best_b = -1;
      double best_delta = 0.0;
      bool have_best = false;
      for (std::int32_t a = 0; a < n; ++a) {
        if (locked[static_cast<std::size_t>(a)]) continue;
        for (std::int32_t b = a + 1; b < n; ++b) {
          if (locked[static_cast<std::size_t>(b)]) continue;
          if (assignment[a] == assignment[b]) continue;
          const double delta = evaluator.swap_delta(assignment, a, b);
          if (have_best && delta >= best_delta) continue;
          if (!swap_feasible(a, b)) continue;
          best_delta = delta;
          best_a = a;
          best_b = b;
          have_best = true;
        }
      }
      if (!have_best) break;

      apply_swap(best_a, best_b);
      locked[static_cast<std::size_t>(best_a)] = true;
      locked[static_cast<std::size_t>(best_b)] = true;
      applied.push_back({best_a, best_b});
      ++result.swaps_applied;
      cumulative += -best_delta;
      if (cumulative > best_prefix_gain) {
        best_prefix_gain = cumulative;
        best_prefix_length = applied.size();
        stale = 0;
      } else if (options.stale_window >= 0 && ++stale > options.stale_window) {
        break;
      }
    }

    // Roll back to the best prefix (swaps are involutions).
    for (std::size_t k = applied.size(); k-- > best_prefix_length;) {
      apply_swap(applied[k].a, applied[k].b);
    }
    result.swaps_kept += static_cast<std::int64_t>(best_prefix_length);
    result.outer_loops = outer + 1;
    if (best_prefix_gain <= options.min_improvement) break;
  }

  result.objective = problem.objective(result.assignment);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace qbp
