#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "bench_support/circuits.hpp"
#include "core/brute_force.hpp"
#include "core/burkard.hpp"
#include "core/embedding.hpp"
#include "core/initial.hpp"
#include "core/multilevel.hpp"
#include "core/qhat.hpp"
#include "core/repair.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace qbp {
namespace {

// -------------------------------------------------------- brute force ----

TEST(BruteForce, EnumeratesAllAssignments) {
  std::int64_t count = 0;
  enumerate_assignments(4, 3, [&](const Assignment& assignment) {
    EXPECT_TRUE(assignment.is_complete());
    ++count;
  });
  EXPECT_EQ(count, 81);  // 3^4
}

TEST(BruteForce, ConstrainedOptimumOfPaperExample) {
  const auto problem = test::make_paper_example(/*capacity=*/1.0);
  const auto result = brute_force_constrained(problem);
  ASSERT_TRUE(result.found);
  // One component per partition, a-b adjacent, b-c adjacent:
  // cost = 2*(5*1 + 2*1) = 14.
  EXPECT_DOUBLE_EQ(result.value, 14.0);
  EXPECT_TRUE(problem.is_feasible(result.best));
}

TEST(BruteForce, UnconstrainedCapacityExampleIsZero) {
  // With capacity 3 everything can co-locate: zero wirelength is optimal
  // and timing-trivial.
  const auto problem = test::make_paper_example(/*capacity=*/3.0);
  const auto result = brute_force_constrained(problem);
  ASSERT_TRUE(result.found);
  EXPECT_DOUBLE_EQ(result.value, 0.0);
}

TEST(BruteForce, ReportsInfeasibleInstance) {
  // Two size-2 components, two size-1 partitions.
  Netlist netlist;
  netlist.add_component("a", 2.0);
  netlist.add_component("b", 2.0);
  auto topo = PartitionTopology::grid(1, 2, CostKind::kManhattan, 1.0);
  const PartitionProblem problem(std::move(netlist), std::move(topo),
                                 TimingConstraints(2));
  const auto result = brute_force_constrained(problem);
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.feasible_count, 0);
}

// --------------------------------------- embedding theorems (exactness) ----

class EmbeddingTheoremSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EmbeddingTheoremSweep, Theorem1PenaltyGivesExactEquivalence) {
  // QBP(Q') with U above the Theorem 1 threshold has the same optimum value
  // as the constrained problem, and its minimizer is feasible.
  auto spec = test::TinySpec{};
  spec.num_components = 5;
  spec.num_partitions = 3;
  spec.seed = GetParam();
  const auto problem = test::make_tiny_problem(spec);
  const auto constrained = brute_force_constrained(problem);
  if (!constrained.found) GTEST_SKIP() << "instance infeasible";

  const double u = theorem1_penalty(problem);
  const auto penalized = brute_force_penalized(problem, u);
  ASSERT_TRUE(penalized.found);
  EXPECT_NEAR(penalized.value, constrained.value, 1e-6);
  EXPECT_TRUE(problem.satisfies_timing(penalized.best));
  EXPECT_NEAR(problem.objective(penalized.best), constrained.value, 1e-6);
}

TEST_P(EmbeddingTheoremSweep, Theorem2CertifiesFeasibleMinimizers) {
  // With the paper's small penalty (50), *if* the penalized minimizer is
  // timing-feasible then it is a minimizer of the constrained problem.
  auto spec = test::TinySpec{};
  spec.num_components = 5;
  spec.num_partitions = 3;
  spec.seed = GetParam();
  const auto problem = test::make_tiny_problem(spec);
  const auto constrained = brute_force_constrained(problem);
  if (!constrained.found) GTEST_SKIP() << "instance infeasible";

  const auto penalized = brute_force_penalized(problem, kPaperPenalty);
  ASSERT_TRUE(penalized.found);
  if (problem.satisfies_timing(penalized.best)) {
    EXPECT_NEAR(problem.objective(penalized.best), constrained.value, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EmbeddingTheoremSweep,
                         ::testing::Range<std::uint64_t>(1, 13));

// ------------------------------------------------------------ Burkard ----

class BurkardTinySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BurkardTinySweep, ReachesOptimumOnTinyInstances) {
  auto spec = test::TinySpec{};
  spec.num_components = 6;
  spec.num_partitions = 3;
  spec.seed = GetParam();
  const auto problem = test::make_tiny_problem(spec);
  const auto exact = brute_force_constrained(problem);
  if (!exact.found) GTEST_SKIP() << "instance infeasible";

  const auto initial =
      test::round_robin(problem.num_components(), problem.num_partitions());
  BurkardOptions options;
  options.iterations = 60;
  const auto result = solve_qbp(problem, initial, options);
  ASSERT_TRUE(result.found_feasible);
  EXPECT_TRUE(problem.is_feasible(result.best_feasible));
  EXPECT_NEAR(result.best_feasible_objective,
              problem.objective(result.best_feasible), 1e-9);
  // The heuristic should find the optimum on these tiny instances.
  EXPECT_NEAR(result.best_feasible_objective, exact.value, 1e-6);
}

TEST_P(BurkardTinySweep, LiteralListingStaysSound) {
  // polish_sweeps = 0, restart_period = 0: the paper's literal STEP 1-8.
  // It must remain sound (feasible output when it reports one, incumbent
  // values consistent), though it may be further from the optimum.
  auto spec = test::TinySpec{};
  spec.seed = GetParam();
  const auto problem = test::make_tiny_problem(spec);
  const auto initial =
      test::round_robin(problem.num_components(), problem.num_partitions());
  BurkardOptions options;
  options.iterations = 40;
  options.polish_sweeps = 0;
  options.restart_period = 0;
  const auto result = solve_qbp(problem, initial, options);
  const QhatMatrix qhat(problem, options.penalty);
  EXPECT_NEAR(result.best_penalized, qhat.penalized_value(result.best), 1e-9);
  if (result.found_feasible) {
    EXPECT_TRUE(problem.is_feasible(result.best_feasible));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BurkardTinySweep,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(Burkard, IncumbentNeverWorsens) {
  const auto problem = test::make_tiny_problem({.seed = 3});
  const auto initial =
      test::round_robin(problem.num_components(), problem.num_partitions());
  BurkardOptions options;
  options.iterations = 30;
  const auto result = solve_qbp(problem, initial, options);
  ASSERT_FALSE(result.history.empty());
  for (std::size_t k = 1; k < result.history.size(); ++k) {
    EXPECT_LE(result.history[k], result.history[k - 1] + 1e-12);
  }
  EXPECT_EQ(result.iterations_run, 30);
  EXPECT_EQ(result.history.size(), 30u);
}

TEST(Burkard, DeterministicAcrossRuns) {
  const auto problem = test::make_tiny_problem({.seed = 4});
  const auto initial =
      test::round_robin(problem.num_components(), problem.num_partitions());
  BurkardOptions options;
  options.iterations = 25;
  const auto a = solve_qbp(problem, initial, options);
  const auto b = solve_qbp(problem, initial, options);
  EXPECT_EQ(a.best.raw().size(), b.best.raw().size());
  EXPECT_EQ(a.best, b.best);
  EXPECT_DOUBLE_EQ(a.best_penalized, b.best_penalized);
}

TEST(Burkard, SolvesPaperExampleToOptimum) {
  const auto problem = test::make_paper_example(/*capacity=*/1.0);
  Assignment start(3, 4);
  for (std::int32_t j = 0; j < 3; ++j) start.set(j, j);  // arbitrary
  BurkardOptions options;
  options.iterations = 30;
  const auto result = solve_qbp(problem, start, options);
  ASSERT_TRUE(result.found_feasible);
  EXPECT_DOUBLE_EQ(result.best_feasible_objective, 14.0);
}

TEST(Burkard, PureLinearTermSpecialCase) {
  // PP(1, 0): objective is the linear term only (the MCM deviation
  // problem); the solver must still do real work through the diagonal.
  auto spec = test::TinySpec{};
  spec.with_linear_term = true;
  spec.seed = 7;
  const auto base = test::make_tiny_problem(spec);
  const PartitionProblem problem(base.netlist(), base.topology(), base.timing(),
                                 base.linear_cost_matrix(), 1.0, 0.0);
  const auto exact = brute_force_constrained(problem);
  if (!exact.found) GTEST_SKIP();
  const auto initial =
      test::round_robin(problem.num_components(), problem.num_partitions());
  BurkardOptions options;
  options.iterations = 60;
  const auto result = solve_qbp(problem, initial, options);
  ASSERT_TRUE(result.found_feasible);
  EXPECT_NEAR(result.best_feasible_objective, exact.value, 1e-6);
}

TEST(Burkard, RespectsIterationBudget) {
  const auto problem = test::make_tiny_problem({.seed = 5});
  const auto initial =
      test::round_robin(problem.num_components(), problem.num_partitions());
  BurkardOptions options;
  options.iterations = 7;
  const auto result = solve_qbp(problem, initial, options);
  EXPECT_EQ(result.iterations_run, 7);
}

// ------------------------------------------------------------- initial ----

class InitialSweep
    : public ::testing::TestWithParam<std::tuple<InitialStrategy, std::uint64_t>> {
};

TEST_P(InitialSweep, ProducesCompleteAssignments) {
  const auto [strategy, seed] = GetParam();
  const auto problem = test::make_tiny_problem({.seed = seed});
  const auto result = make_initial(problem, strategy, seed);
  EXPECT_TRUE(result.assignment.is_complete());
  EXPECT_EQ(result.feasible, problem.is_feasible(result.assignment));
}

TEST_P(InitialSweep, DeterministicInSeed) {
  const auto [strategy, seed] = GetParam();
  const auto problem = test::make_tiny_problem({.seed = seed});
  const auto a = make_initial(problem, strategy, seed);
  const auto b = make_initial(problem, strategy, seed);
  EXPECT_EQ(a.assignment, b.assignment);
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndSeeds, InitialSweep,
    ::testing::Combine(::testing::Values(InitialStrategy::kRandom,
                                         InitialStrategy::kRandomFeasible,
                                         InitialStrategy::kGreedyBalanced,
                                         InitialStrategy::kQbpZeroWireCost),
                       ::testing::Values(1u, 2u, 3u)));

TEST(Initial, QbpZeroWireCostFindsFeasibleStartOnGenerousInstance) {
  auto spec = test::TinySpec{};
  spec.capacity_factor = 2.0;
  spec.constraint_probability = 0.2;
  spec.seed = 11;
  const auto problem = test::make_tiny_problem(spec);
  if (!brute_force_constrained(problem).found) GTEST_SKIP();
  const auto result =
      make_initial(problem, InitialStrategy::kQbpZeroWireCost, 11);
  EXPECT_TRUE(result.feasible);
}

// -------------------------------------------------------------- repair ----

TEST(Repair, FixesViolationsWhilePreservingCapacity) {
  auto spec = test::TinySpec{};
  spec.capacity_factor = 2.0;
  spec.seed = 13;
  const auto problem = test::make_tiny_problem(spec);
  if (!brute_force_constrained(problem).found) GTEST_SKIP();

  // Start from a capacity-feasible but timing-unaware assignment.
  const auto start =
      make_initial(problem, InitialStrategy::kGreedyBalanced, 13).assignment;
  if (!problem.satisfies_capacity(start)) GTEST_SKIP();

  const auto result = repair_timing(problem, start);
  EXPECT_TRUE(problem.satisfies_capacity(result.assignment));
  if (result.feasible) {
    EXPECT_TRUE(problem.satisfies_timing(result.assignment));
  }
  EXPECT_LE(problem.timing().violations(result.assignment, problem.topology()),
            problem.timing().violations(start, problem.topology()));
}

TEST(Repair, NoOpOnAlreadyFeasibleAssignment) {
  const auto problem = test::make_paper_example(/*capacity=*/1.0);
  Assignment feasible(3, 4);
  feasible.set(0, 0);
  feasible.set(1, 1);
  feasible.set(2, 3);
  ASSERT_TRUE(problem.is_feasible(feasible));
  const auto result = repair_timing(problem, feasible);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.moves, 0);
  EXPECT_EQ(result.assignment, feasible);
}

TEST(Repair, RespectsMoveBudget) {
  const auto problem = test::make_tiny_problem({.seed = 17});
  Assignment start =
      test::round_robin(problem.num_components(), problem.num_partitions());
  if (!problem.satisfies_capacity(start)) GTEST_SKIP();
  RepairOptions options;
  options.max_moves = 3;
  const auto result = repair_timing(problem, start, options);
  EXPECT_LE(result.moves, 3);
}

/// The min-conflicts walk with every count taken from scratch: after each
/// move the mover and each of its timing partners are recounted over their
/// whole Dc rows with two delay lookups per constraint, each target is
/// scored by its own recount, and the conflicted component is drawn by an
/// ascending scan.  repair_timing keeps its counts incrementally and must
/// make exactly this walk: the same RNG draws, targets and counts.
RepairResult full_recount_repair(const PartitionProblem& problem,
                                 const Assignment& start,
                                 const RepairOptions& options) {
  const std::int32_t n = problem.num_components();
  const std::int32_t m = problem.num_partitions();
  const auto& sizes = problem.netlist().sizes();
  const auto conflicts_at = [&](const Assignment& assignment,
                                std::int32_t component, PartitionId target) {
    const auto partners = problem.timing().partners(component);
    const auto bounds = problem.timing().bounds(component);
    std::int32_t conflicts = 0;
    for (std::size_t k = 0; k < partners.size(); ++k) {
      const PartitionId other = assignment[partners[k]];
      if (problem.topology().delay(target, other) > bounds[k] ||
          problem.topology().delay(other, target) > bounds[k]) {
        ++conflicts;
      }
    }
    return conflicts;
  };

  RepairResult result;
  result.assignment = start;
  Assignment& assignment = result.assignment;
  CapacityLedger ledger(assignment, sizes, problem.topology().capacities());
  Rng rng(options.seed);
  const std::int64_t budget = options.max_moves >= 0
                                  ? options.max_moves
                                  : 200 * static_cast<std::int64_t>(n);
  std::vector<std::int32_t> count(static_cast<std::size_t>(n));
  for (std::int32_t j = 0; j < n; ++j) {
    count[static_cast<std::size_t>(j)] = conflicts_at(assignment, j, assignment[j]);
  }
  std::vector<std::int32_t> conflicted;
  std::vector<PartitionId> best_targets;
  while (result.moves < budget) {
    conflicted.clear();
    for (std::int32_t j = 0; j < n; ++j) {
      if (count[static_cast<std::size_t>(j)] > 0) conflicted.push_back(j);
    }
    if (conflicted.empty()) break;
    const std::int32_t j = conflicted[rng.pick_index(conflicted)];
    const double size = sizes[static_cast<std::size_t>(j)];

    best_targets.clear();
    if (rng.next_bool(options.noise)) {
      for (PartitionId i = 0; i < m; ++i) {
        if (i != assignment[j] && ledger.fits(i, size)) best_targets.push_back(i);
      }
    } else {
      std::int32_t best_conflicts = count[static_cast<std::size_t>(j)];
      for (PartitionId i = 0; i < m; ++i) {
        if (i == assignment[j] || !ledger.fits(i, size)) continue;
        const std::int32_t conflicts = conflicts_at(assignment, j, i);
        if (conflicts < best_conflicts) {
          best_conflicts = conflicts;
          best_targets.assign(1, i);
        } else if (conflicts == best_conflicts) {
          best_targets.push_back(i);
        }
      }
    }
    if (best_targets.empty()) {
      ++result.moves;
      continue;
    }
    const PartitionId target = best_targets[rng.pick_index(best_targets)];
    ledger.remove(assignment[j], size);
    ledger.add(target, size);
    assignment.set(j, target);
    ++result.moves;
    count[static_cast<std::size_t>(j)] = conflicts_at(assignment, j, target);
    for (const std::int32_t partner : problem.timing().partners(j)) {
      count[static_cast<std::size_t>(partner)] =
          conflicts_at(assignment, partner, assignment[partner]);
    }
  }
  result.feasible = problem.satisfies_capacity(assignment) &&
                    problem.satisfies_timing(assignment);
  return result;
}

/// 60 components on 6 partitions with random D(a, b) != D(b, a), so a
/// constraint can hold one way round and fail the other.  Bounds are the
/// worse direction's delay at a hidden placement, so the instance is
/// timing-feasible.
PartitionProblem make_asymmetric_delay_problem(std::uint64_t seed) {
  Rng rng(seed);
  const std::int32_t n = 60;
  const std::int32_t m = 6;
  Netlist netlist("asym-delay");
  for (std::int32_t j = 0; j < n; ++j) {
    netlist.add_component("c" + std::to_string(j), rng.next_double(0.5, 2.0));
  }
  Matrix<double> wire_cost(m, m, 0.0);
  Matrix<double> delay(m, m, 0.0);
  for (PartitionId a = 0; a < m; ++a) {
    for (PartitionId b = 0; b < m; ++b) {
      if (a == b) continue;
      wire_cost(a, b) = 1.0;
      delay(a, b) = static_cast<double>(rng.next_int(1, 6));
    }
  }
  const double capacity = netlist.total_size() / m * 1.5;
  PartitionTopology topology = PartitionTopology::custom(
      std::move(wire_cost), std::move(delay),
      std::vector<double>(static_cast<std::size_t>(m), capacity));
  const Assignment hidden = test::random_complete(n, m, rng);
  TimingConstraints timing(n);
  for (std::int32_t a = 0; a < n; ++a) {
    for (std::int32_t b = a + 1; b < n; ++b) {
      if (rng.next_bool(0.08)) {
        timing.add(a, b, std::max(topology.delay(hidden[a], hidden[b]),
                                  topology.delay(hidden[b], hidden[a])));
      }
    }
  }
  return PartitionProblem(std::move(netlist), std::move(topology),
                          std::move(timing));
}

TEST(Repair, WalkMatchesFullRecountReference) {
  struct Case {
    const char* name;
    PartitionProblem problem;
    Assignment start;
  };
  std::vector<Case> cases;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    test::TinySpec spec;
    spec.num_components = 8;
    spec.num_partitions = 4;
    spec.constraint_probability = 0.4;
    spec.seed = seed;
    auto problem = test::make_tiny_problem(spec);
    auto start =
        make_initial(problem, InitialStrategy::kRandomFeasible, seed).assignment;
    cases.push_back({"tiny", std::move(problem), std::move(start)});
  }
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    auto problem = make_asymmetric_delay_problem(seed);
    ASSERT_NE(problem.topology().delay(0, 1), problem.topology().delay(1, 0))
        << "seed " << seed;
    auto start =
        make_initial(problem, InitialStrategy::kRandomFeasible, seed).assignment;
    cases.push_back({"asymmetric", std::move(problem), std::move(start)});
  }
  {
    // Coarsen until the Dc rows are dense, as on the V-cycle's coarse levels.
    CoarseProblem level = coarsen(make_scaling_problem(2000, 7));
    while (level.problem.num_components() > 150) level = coarsen(level.problem);
    ASSERT_GT(level.problem.timing().count() * 2,
              30 * static_cast<std::int64_t>(level.problem.num_components()))
        << "average Dc degree of the coarse level";
    auto start = make_initial(level.problem, InitialStrategy::kRandomFeasible, 7)
                     .assignment;
    cases.push_back({"coarse", std::move(level.problem), std::move(start)});
  }

  // Every noise level must see both a walk that converges and one that
  // exhausts its budget.
  for (const double noise : {0.0, RepairOptions{}.noise, 1.0}) {
    std::int32_t converged = 0;
    std::int32_t exhausted = 0;
    for (const Case& c : cases) {
      ASSERT_TRUE(c.start.is_complete() && c.problem.satisfies_capacity(c.start))
          << c.name;
      const std::int32_t n = c.problem.num_components();
      for (const std::int64_t max_moves :
           {std::int64_t{-1}, std::int64_t{10} * n, std::int64_t{3}}) {
        RepairOptions options;
        options.noise = noise;
        options.max_moves = max_moves;
        options.seed = static_cast<std::uint64_t>(n) * 31 + 5;
        const RepairResult expected =
            full_recount_repair(c.problem, c.start, options);
        const RepairResult actual = repair_timing(c.problem, c.start, options);
        SCOPED_TRACE(::testing::Message()
                     << c.name << " n=" << n << " noise=" << noise
                     << " max_moves=" << max_moves);
        EXPECT_EQ(actual.assignment, expected.assignment);
        EXPECT_EQ(actual.moves, expected.moves);
        EXPECT_EQ(actual.feasible, expected.feasible);
        ++(expected.feasible ? converged : exhausted);
      }
    }
    EXPECT_GT(converged, 0) << "noise " << noise;
    EXPECT_GT(exhausted, 0) << "noise " << noise;
  }
}

}  // namespace
}  // namespace qbp
