// DeltaEvaluator: the unified incremental evaluation layer.  Every delta it
// reports -- one-off or from cached rows -- must equal the brute difference
// of the full evaluation (penalized_value / objective), and rows shifted in
// place by commits must stay exact across arbitrary commit sequences.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/delta_evaluator.hpp"
#include "core/qhat.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace qbp {
namespace {

constexpr double kPenalty = 50.0;

TEST(DeltaEvaluator, MoveDeltaMatchesPenalizedValueDifference) {
  const PartitionProblem problem = test::make_tiny_problem({.seed = 7});
  const QhatMatrix qhat(problem, kPenalty);
  DeltaEvaluator evaluator(problem, kPenalty);
  Rng rng(3);

  for (std::int32_t trial = 0; trial < 40; ++trial) {
    const Assignment assignment = test::random_complete(
        problem.num_components(), problem.num_partitions(), rng);
    const auto j = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(problem.num_components())));
    const auto target = static_cast<PartitionId>(
        rng.next_below(static_cast<std::uint64_t>(problem.num_partitions())));

    const double before = qhat.penalized_value(assignment);
    Assignment moved = assignment;
    moved.set(j, target);
    const double exact = qhat.penalized_value(moved) - before;

    EXPECT_NEAR(evaluator.move_delta(assignment, j, target), exact, 1e-9);
    // The QhatMatrix methods delegate to the same implementation.
    EXPECT_DOUBLE_EQ(evaluator.move_delta(assignment, j, target),
                     qhat.move_delta_penalized(assignment, j, target));

    evaluator.invalidate();
    const auto deltas = evaluator.move_deltas(assignment, j);
    EXPECT_NEAR(deltas[static_cast<std::size_t>(target)], exact, 1e-9);
    EXPECT_DOUBLE_EQ(deltas[static_cast<std::size_t>(assignment[j])], 0.0);
  }
}

// swap_delta reads cached rows, so every unrelated assignment needs an
// invalidate() first -- the same contract move_deltas has.  On the
// real-valued instance (linear term) the row arithmetic and the one-off
// QhatMatrix delta sum in different orders, so they agree to rounding only.
TEST(DeltaEvaluator, SwapDeltaMatchesPenalizedValueDifference) {
  const PartitionProblem problem =
      test::make_tiny_problem({.with_linear_term = true, .seed = 11});
  const QhatMatrix qhat(problem, kPenalty);
  DeltaEvaluator evaluator(problem, kPenalty);
  Rng rng(5);

  for (std::int32_t trial = 0; trial < 40; ++trial) {
    const Assignment assignment = test::random_complete(
        problem.num_components(), problem.num_partitions(), rng);
    const auto a = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(problem.num_components())));
    const auto b = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(problem.num_components())));

    const double before = qhat.penalized_value(assignment);
    Assignment swapped = assignment;
    swapped.set(a, assignment[b]);
    swapped.set(b, assignment[a]);
    const double exact = qhat.penalized_value(swapped) - before;

    evaluator.invalidate();
    EXPECT_NEAR(evaluator.swap_delta(assignment, a, b), exact, 1e-9);
    EXPECT_NEAR(evaluator.swap_delta(assignment, a, b),
                qhat.swap_delta_penalized(assignment, a, b), 1e-9);
  }
}

// On integer-valued costs every summation order is exact: the row-based
// swap delta, the one-off QhatMatrix delta and the full recompute agree to
// the bit.  This is what keeps solver trajectories bit-identical.
TEST(DeltaEvaluator, SwapDeltaBitIdenticalOnIntegerCosts) {
  const PartitionProblem problem = test::make_tiny_problem(
      {.num_components = 8, .num_partitions = 4, .seed = 11});
  const QhatMatrix qhat(problem, kPenalty);
  DeltaEvaluator evaluator(problem, kPenalty);
  Rng rng(5);

  for (std::int32_t trial = 0; trial < 40; ++trial) {
    const Assignment assignment = test::random_complete(
        problem.num_components(), problem.num_partitions(), rng);
    evaluator.invalidate();
    const double before = qhat.penalized_value(assignment);
    for (std::int32_t a = 0; a < problem.num_components(); ++a) {
      for (std::int32_t b = a + 1; b < problem.num_components(); ++b) {
        Assignment swapped = assignment;
        swapped.set(a, assignment[b]);
        swapped.set(b, assignment[a]);
        const double delta = evaluator.swap_delta(assignment, a, b);
        EXPECT_EQ(delta, qhat.penalized_value(swapped) - before);
        EXPECT_EQ(delta, qhat.swap_delta_penalized(assignment, a, b));
      }
    }
  }
}

TEST(DeltaEvaluator, ObjectiveModeMatchesObjectiveDifference) {
  const PartitionProblem problem =
      test::make_tiny_problem({.with_linear_term = true, .seed = 13});
  DeltaEvaluator evaluator(problem, 0.0);
  Rng rng(9);

  for (std::int32_t trial = 0; trial < 40; ++trial) {
    const Assignment assignment = test::random_complete(
        problem.num_components(), problem.num_partitions(), rng);
    const auto j = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(problem.num_components())));
    const auto target = static_cast<PartitionId>(
        rng.next_below(static_cast<std::uint64_t>(problem.num_partitions())));
    Assignment moved = assignment;
    moved.set(j, target);
    const double exact = problem.objective(moved) - problem.objective(assignment);
    EXPECT_NEAR(evaluator.move_delta(assignment, j, target), exact, 1e-9);

    evaluator.invalidate();
    const auto deltas = evaluator.move_deltas(assignment, j);
    EXPECT_NEAR(deltas[static_cast<std::size_t>(target)], exact, 1e-9);
  }
}

TEST(DeltaEvaluator, CacheStaysExactAcrossCommits) {
  const PartitionProblem problem = test::make_tiny_problem(
      {.num_components = 10, .wire_probability = 0.4, .seed = 17});
  const QhatMatrix qhat(problem, kPenalty);
  DeltaEvaluator evaluator(problem, kPenalty);
  Rng rng(21);

  Assignment assignment = test::random_complete(
      problem.num_components(), problem.num_partitions(), rng);

  for (std::int32_t step = 0; step < 120; ++step) {
    const auto j = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(problem.num_components())));

    // Every cached row entry must equal the brute difference.
    const auto deltas = evaluator.move_deltas(assignment, j);
    const double before = qhat.penalized_value(assignment);
    for (PartitionId i = 0; i < problem.num_partitions(); ++i) {
      Assignment moved = assignment;
      moved.set(j, i);
      ASSERT_NEAR(deltas[static_cast<std::size_t>(i)],
                  qhat.penalized_value(moved) - before, 1e-9)
          << "step " << step << " component " << j << " target " << i;
    }

    // Mutate through the evaluator: alternate moves and swaps.
    if (step % 3 == 2) {
      const auto b = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(problem.num_components())));
      evaluator.commit_swap(assignment, j, b);
    } else {
      const auto target = static_cast<PartitionId>(
          rng.next_below(static_cast<std::uint64_t>(problem.num_partitions())));
      evaluator.commit_move(assignment, j, target);
    }
  }

  // The sequence revisits components whose neighborhood did not change in
  // between, so the cache must actually get hits.
  EXPECT_GT(evaluator.cache_hits(), 0u);
  EXPECT_GT(evaluator.cache_misses(), 0u);
}

TEST(DeltaEvaluator, SameComponentRepeatedQueriesHitCache) {
  const PartitionProblem problem = test::make_tiny_problem({.seed = 23});
  DeltaEvaluator evaluator(problem, kPenalty);
  Rng rng(1);
  const Assignment assignment = test::random_complete(
      problem.num_components(), problem.num_partitions(), rng);

  (void)evaluator.move_deltas(assignment, 0);
  EXPECT_EQ(evaluator.cache_misses(), 1u);
  for (int k = 0; k < 5; ++k) (void)evaluator.move_deltas(assignment, 0);
  EXPECT_EQ(evaluator.cache_misses(), 1u);
  EXPECT_EQ(evaluator.cache_hits(), 5u);

  // A component's *own* move keeps its row hot (the row depends only on the
  // positions of its neighbors and timing partners).
  Assignment mutated = assignment;
  const PartitionId target = (assignment[0] + 1) % problem.num_partitions();
  evaluator.commit_move(mutated, 0, target);
  (void)evaluator.move_deltas(mutated, 0);
  EXPECT_EQ(evaluator.cache_hits(), 6u);
}

// prefetch_rows builds the same rows lazy evaluation would, just earlier
// and in parallel: every subsequent move_deltas must return the same
// values as a fresh lazily-filled evaluator, and hit the cache.
TEST(DeltaEvaluator, PrefetchMatchesLazyBuildAtEveryThreadCount) {
  const PartitionProblem problem =
      test::make_tiny_problem({.num_components = 200, .num_partitions = 6,
                               .with_linear_term = true, .seed = 31});
  Rng rng(9);
  const Assignment assignment = test::random_complete(
      problem.num_components(), problem.num_partitions(), rng);

  DeltaEvaluator lazy(problem, kPenalty);
  std::vector<std::vector<double>> expected;
  for (std::int32_t j = 0; j < problem.num_components(); ++j) {
    const auto deltas = lazy.move_deltas(assignment, j);
    expected.emplace_back(deltas.begin(), deltas.end());
  }

  for (const std::int32_t threads : {1, 2, 8}) {
    DeltaEvaluator prefetched(problem, kPenalty);
    prefetched.prefetch_rows(assignment, threads);
    const auto n = static_cast<std::uint64_t>(problem.num_components());
    EXPECT_EQ(prefetched.cache_misses(), n) << "threads " << threads;
    for (std::int32_t j = 0; j < problem.num_components(); ++j) {
      const auto deltas = prefetched.move_deltas(assignment, j);
      const std::vector<double> got(deltas.begin(), deltas.end());
      ASSERT_EQ(got, expected[static_cast<std::size_t>(j)])
          << "component " << j << " threads " << threads;
    }
    EXPECT_EQ(prefetched.cache_hits(), n);  // every read was a prefetch hit
  }
}

// --- rows kept current on commit -------------------------------------------

/// Integer-valued asymmetric instance: B and D unrelated, asymmetric and
/// with nonzero diagonals, so both ordered penalty directions and every
/// term of the swap's pair correction (g(x, x) included) carry weight.
PartitionProblem make_asymmetric_problem(std::uint64_t seed) {
  Rng rng(seed);
  const std::int32_t n = 9;
  const std::int32_t m = 4;
  Netlist netlist("asym");
  for (std::int32_t j = 0; j < n; ++j) {
    netlist.add_component("c" + std::to_string(j), rng.next_double(0.5, 2.0));
  }
  for (std::int32_t a = 0; a < n; ++a) {
    for (std::int32_t b = a + 1; b < n; ++b) {
      if (rng.next_bool(0.5)) {
        netlist.add_wires(a, b, static_cast<std::int32_t>(rng.next_int(1, 4)));
      }
    }
  }
  Matrix<double> wire_cost(m, m, 0.0);
  Matrix<double> delay(m, m, 0.0);
  for (std::int32_t i1 = 0; i1 < m; ++i1) {
    for (std::int32_t i2 = 0; i2 < m; ++i2) {
      wire_cost(i1, i2) = static_cast<double>(rng.next_int(i1 == i2 ? 0 : 1, 9));
      delay(i1, i2) = static_cast<double>(rng.next_int(i1 == i2 ? 0 : 1, 4));
    }
  }
  const double capacity = netlist.total_size() / m * 1.7;
  PartitionTopology topology = PartitionTopology::custom(
      std::move(wire_cost), std::move(delay),
      std::vector<double>(static_cast<std::size_t>(m), capacity));
  TimingConstraints timing(n);
  for (std::int32_t a = 0; a < n; ++a) {
    for (std::int32_t b = a + 1; b < n; ++b) {
      if (rng.next_bool(0.4)) {
        timing.add(a, b, static_cast<double>(rng.next_int(1, 3)));
      }
    }
  }
  return PartitionProblem(std::move(netlist), std::move(topology),
                          std::move(timing));
}

/// The metric an evaluator with `penalty` descends, evaluated from scratch.
double full_value(const PartitionProblem& problem, double penalty,
                  const Assignment& assignment) {
  return penalty > 0.0 ? QhatMatrix(problem, penalty).penalized_value(assignment)
                       : problem.objective(assignment);
}

struct CommitCase {
  const char* name;
  PartitionProblem problem;
  /// Integer-valued costs: shifted rows must equal rebuilt ones bitwise.
  bool integer_costs;
};

std::vector<CommitCase> commit_cases() {
  std::vector<CommitCase> cases;
  cases.push_back({"integer", test::make_tiny_problem(
                                  {.num_components = 12, .num_partitions = 4,
                                   .seed = 41}),
                   true});
  cases.push_back({"real-valued",
                   test::make_tiny_problem({.num_components = 12,
                                            .num_partitions = 4,
                                            .with_linear_term = true,
                                            .seed = 43}),
                   false});
  cases.push_back({"asymmetric", make_asymmetric_problem(47), true});
  return cases;
}

// Every row is built once up front and then only ever shifted in place by
// commits.  After a random walk of moves and swaps, every move_deltas row
// and a sample of swap deltas must match a freshly built evaluator (bitwise
// on integer costs) and the full recompute.
TEST(DeltaEvaluator, RowsShiftedOnCommitMatchFreshRows) {
  for (const CommitCase& test_case : commit_cases()) {
    const PartitionProblem& problem = test_case.problem;
    const std::int32_t n = problem.num_components();
    const std::int32_t m = problem.num_partitions();
    for (const double penalty : {kPenalty, 0.0}) {
      SCOPED_TRACE(std::string(test_case.name) + " penalty " +
                   std::to_string(penalty));
      Rng rng(61);
      Assignment assignment = test::random_complete(n, m, rng);
      DeltaEvaluator evaluator(problem, penalty);
      evaluator.prefetch_rows(assignment, 1);

      for (std::int32_t step = 0; step < 200; ++step) {
        const auto a = static_cast<std::int32_t>(
            rng.next_below(static_cast<std::uint64_t>(n)));
        if (step % 2 == 0) {
          const auto b = static_cast<std::int32_t>(
              rng.next_below(static_cast<std::uint64_t>(n)));
          evaluator.commit_swap(assignment, a, b);
        } else {
          const auto target = static_cast<PartitionId>(
              rng.next_below(static_cast<std::uint64_t>(m)));
          evaluator.commit_move(assignment, a, target);
        }
      }

      DeltaEvaluator fresh(problem, penalty);
      const double before = full_value(problem, penalty, assignment);
      for (std::int32_t j = 0; j < n; ++j) {
        const auto shifted = evaluator.move_deltas(assignment, j);
        const std::vector<double> got(shifted.begin(), shifted.end());
        const auto rebuilt = fresh.move_deltas(assignment, j);
        for (PartitionId i = 0; i < m; ++i) {
          const auto k = static_cast<std::size_t>(i);
          Assignment moved = assignment;
          moved.set(j, i);
          const double exact = full_value(problem, penalty, moved) - before;
          if (test_case.integer_costs) {
            EXPECT_EQ(got[k], rebuilt[k]) << "component " << j << " -> " << i;
            EXPECT_EQ(got[k], exact) << "component " << j << " -> " << i;
          } else {
            EXPECT_NEAR(got[k], exact, 1e-9) << "component " << j << " -> " << i;
          }
        }
      }
      for (std::int32_t sample = 0; sample < 40; ++sample) {
        const auto a = static_cast<std::int32_t>(
            rng.next_below(static_cast<std::uint64_t>(n)));
        const auto b = static_cast<std::int32_t>(
            rng.next_below(static_cast<std::uint64_t>(n)));
        Assignment swapped = assignment;
        swapped.set(a, assignment[b]);
        swapped.set(b, assignment[a]);
        const double exact = full_value(problem, penalty, swapped) - before;
        const double delta = evaluator.swap_delta(assignment, a, b);
        if (test_case.integer_costs) {
          EXPECT_EQ(delta, fresh.swap_delta(assignment, a, b))
              << "pair " << a << ", " << b;
          EXPECT_EQ(delta, exact) << "pair " << a << ", " << b;
        } else {
          EXPECT_NEAR(delta, exact, 1e-9) << "pair " << a << ", " << b;
        }
      }
      // No row was ever rebuilt: commits shift rows, they do not drop them.
      EXPECT_EQ(evaluator.cache_misses(), static_cast<std::uint64_t>(n));
    }
  }
}

// The V-cycle's coarse levels: components that are both neighbors (wire
// multiplicity > 1) and timing partners, swapped and moved through one
// evaluator.  Every pair's swap delta must equal the full recompute at
// every step of the walk, violated bounds included.
TEST(DeltaEvaluator, SwapOfWiredTimingPartnersStaysExact) {
  Netlist netlist("coarse");
  for (std::int32_t j = 0; j < 5; ++j) {
    netlist.add_component("k" + std::to_string(j), 1.0);
  }
  netlist.add_wires(0, 1, 3);
  netlist.add_wires(0, 2, 2);
  netlist.add_wires(1, 2, 5);
  netlist.add_wires(1, 3, 4);
  netlist.add_wires(2, 4, 1);
  TimingConstraints timing(5);
  timing.add(0, 1, 1.0);
  timing.add(1, 2, 1.0);
  timing.add(1, 3, 2.0);
  timing.add(0, 4, 1.0);
  const PartitionProblem problem(
      std::move(netlist),
      PartitionTopology::grid(1, 4, CostKind::kManhattan, 5.0),
      std::move(timing));
  const std::int32_t n = problem.num_components();

  for (const double penalty : {kPenalty, 0.0}) {
    SCOPED_TRACE("penalty " + std::to_string(penalty));
    Rng rng(71);
    Assignment assignment =
        test::random_complete(n, problem.num_partitions(), rng);
    DeltaEvaluator evaluator(problem, penalty);
    evaluator.prefetch_rows(assignment, 1);
    for (std::int32_t step = 0; step < 60; ++step) {
      const double before = full_value(problem, penalty, assignment);
      for (std::int32_t a = 0; a < n; ++a) {
        for (std::int32_t b = a + 1; b < n; ++b) {
          Assignment swapped = assignment;
          swapped.set(a, assignment[b]);
          swapped.set(b, assignment[a]);
          ASSERT_EQ(evaluator.swap_delta(assignment, a, b),
                    full_value(problem, penalty, swapped) - before)
              << "step " << step << " pair " << a << ", " << b;
        }
      }
      // Mostly swap the wired partner pairs; sometimes move one of them.
      const std::int32_t a = step % 3 == 0 ? 0 : 1;
      const std::int32_t b = step % 3 == 0 ? 1 : 2;
      if (step % 4 == 3) {
        evaluator.commit_move(assignment, a,
                              static_cast<PartitionId>(rng.next_below(4)));
      } else {
        evaluator.commit_swap(assignment, a, b);
        if (assignment[a] == assignment[b]) {
          evaluator.commit_move(assignment, b, (assignment[b] + 1) % 4);
        }
      }
    }
    EXPECT_EQ(evaluator.cache_misses(), static_cast<std::uint64_t>(n));
  }
}

}  // namespace
}  // namespace qbp
