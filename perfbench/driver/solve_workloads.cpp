// The three solver workloads: the paper's Tables II/III QBP legs, the
// multilevel V-cycle at N = 10k, and the flat solve at inner_threads 4
// against its T = 1 reference.  Each measures whole entry-point solves
// (presolve on, as qbpart_cli runs them) and re-validates every result from
// scratch on the original problem.
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_support/circuits.hpp"
#include "core/burkard.hpp"
#include "core/initial.hpp"
#include "core/multilevel.hpp"
#include "core/validate.hpp"
#include "trace.hpp"
#include "util/parallel.hpp"
#include "util/prof.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using qbp::json::Value;

constexpr int kSetupRepeats = 3;

/// The solver workloads run fixed instances -- the paper's seven circuits,
/// and the N = 3200 / 10k scaling instances of bench_runner's suites --
/// and draw only the start solution from the workload seed.  Solve time
/// follows instance structure (the V-cycle's coarsest-level density moves
/// it by about 8% from one generated instance to the next), so a fresh
/// instance per seed would swamp the bound a change is judged by.
constexpr std::uint64_t kInstanceSeed = 7;

/// Time `make` kSetupRepeats times and keep the last product: setup_s is
/// reported as the median, so work moved into set-up shows.
template <class Make>
auto timed_setup(Run& run, Make&& make) {
  std::vector<double> seconds;
  decltype(make()) product;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const qbp::Timer timer;
    product = make();
    seconds.push_back(timer.seconds());
  }
  run.out.set("setup_s", to_json_array(seconds));
  return product;
}

/// Draw the start solution(s) once, after the timed set-up, and record the
/// wall as start_s.  make_initial does seed-dependent work (QBP attempts,
/// timing repair, redraws), so its wall spreads across seeds far more than
/// the bound setup_s is judged by; it is reported as a per-layer figure.
template <class Draw>
void timed_start(Run& run, Draw&& draw) {
  const qbp::Timer timer;
  draw();
  run.out.set("start_s", timer.seconds());
}

/// Run `op` -- one unit of solver work returning its wall seconds -- until
/// the window closes (at least once).  A traced run spends the
/// first half of the window untraced and the second half traced, and
/// reads the program's instruments around the traced half only, so the
/// tracing overhead is measured within the run.
template <class Op>
void measure(Run& run, Op&& op) {
  std::vector<double> plain;
  std::vector<double> traced;
  run.tracer.set_enabled(false);
  const qbp::Timer window;
  const double plain_until = run.trace ? run.seconds / 2.0 : run.seconds;
  do {
    plain.push_back(op());
  } while (window.seconds() < plain_until);
  if (run.trace) {
    const Value pool_before = pool_counters();
    qbp::prof::reset();
    qbp::prof::set_enabled(true);
    run.tracer.set_enabled(true);
    do {
      traced.push_back(op());
    } while (window.seconds() < run.seconds);
    run.tracer.set_enabled(false);
    qbp::prof::set_enabled(false);
    Value layers = run.out.find("layers") != nullptr
                       ? *run.out.find("layers")
                       : Value::object();
    layers.set("prof", prof_table());
    layers.set("pool_before", pool_before);
    layers.set("pool_after", pool_counters());
    layers.set("ops", static_cast<std::int64_t>(traced.size()));
    run.out.set("layers", std::move(layers));
  }
  run.out.set("op_s", to_json_array(plain));
  run.out.set("traced_op_s", to_json_array(traced));
}

void set_layer(Run& run, std::string_view key, Value value) {
  Value layers = run.out.find("layers") != nullptr ? *run.out.find("layers")
                                                   : Value::object();
  layers.set(key, std::move(value));
  run.out.set("layers", std::move(layers));
}

/// Check one solver answer from scratch on `problem`.  Returns the
/// wirelength of the feasible incumbent, or a negative value after filing
/// the failure.
double check_answer(Run& run, const qbp::PartitionProblem& problem,
                    const qbp::BurkardResult& result, double penalty,
                    const std::string& what) {
  const Tracer::Scope span(run.tracer, "validate_outcome");
  if (!result.found_feasible) {
    run.outcomes.fail(&Outcomes::infeasible, what + ": no feasible answer");
    return -1.0;
  }
  qbp::ReportedOutcome reported;
  reported.best = &result.best;
  reported.best_penalized = result.best_penalized;
  reported.best_feasible = &result.best_feasible;
  reported.best_feasible_objective = result.best_feasible_objective;
  qbp::ValidateOptions options;
  options.penalty = penalty;
  const qbp::ValidationReport report =
      qbp::validate_outcome(problem, reported, options);
  if (!report.ok() || !problem.is_feasible(result.best_feasible)) {
    run.outcomes.fail(&Outcomes::invalid, what + ": " + report.to_string());
    return -1.0;
  }
  return problem.wirelength(result.best_feasible);
}

/// The fields two runs of a deterministic solve must share bit for bit.
struct Answer {
  std::uint64_t objective_bits = 0;
  qbp::Assignment assignment;

  static Answer of(const qbp::BurkardResult& result) {
    Answer answer;
    std::memcpy(&answer.objective_bits, &result.best_feasible_objective,
                sizeof answer.objective_bits);
    answer.assignment = result.best_feasible;
    return answer;
  }
  friend bool operator==(const Answer&, const Answer&) = default;
};

/// Record the answer as `reference` on first sight; afterwards every
/// repeat must match it exactly.
void check_repeat(Run& run, std::optional<Answer>& reference,
                  const qbp::BurkardResult& result, const std::string& what) {
  const Answer answer = Answer::of(result);
  if (!reference) {
    reference = answer;
    run.outcomes.ok++;
  } else if (*reference == answer) {
    run.outcomes.ok++;
  } else {
    run.outcomes.fail(&Outcomes::wrong, what + ": differs from first run");
  }
}

qbp::BurkardOptions entry_point_options(std::int32_t iterations,
                                        std::int32_t inner_threads) {
  qbp::BurkardOptions options;
  options.iterations = iterations;
  options.inner_threads = inner_threads;
  options.presolve.enabled = true;
  return options;
}

}  // namespace

// --------------------------------------------------------------- tables

void run_tables(Run& run) {
  constexpr std::uint64_t kStartDraws = 8;
  struct Leg {
    std::string name;
    qbp::PartitionProblem problem;
    qbp::Assignment start;
  };
  std::vector<Leg> legs = timed_setup(run, [&] {
    std::vector<Leg> made;
    for (const qbp::CircuitPreset& preset : qbp::shihkuh_presets()) {
      qbp::CircuitInstance instance;
      {
        const Tracer::Scope span(run.tracer, "gen.instance");
        instance = qbp::make_circuit(preset);
      }
      made.push_back({preset.name + "/II", instance.problem.without_timing(),
                      {}});
      made.push_back({preset.name + "/III", std::move(instance.problem), {}});
    }
    return made;
  });
  timed_start(run, [&] {
    for (std::size_t k = 0; k < legs.size(); k += 2) {
      // The paper's shared start: QBP with B = 0 on the timing-constrained
      // instance, used by both the Table II and the Table III leg.  The
      // protocol needs it feasible; on cktc about one draw in five is not
      // (and the Table III solve from one of those found no feasible
      // answer), so draw again.
      qbp::InitialResult initial;
      for (std::uint64_t draw = 0; draw < kStartDraws && !initial.feasible;
           ++draw) {
        const Tracer::Scope span(run.tracer, "make_initial");
        initial = qbp::make_initial(legs[k + 1].problem,
                                    qbp::InitialStrategy::kQbpZeroWireCost,
                                    derive(run.seed, 1993 + draw));
      }
      legs[k].start = initial.assignment;
      legs[k + 1].start = std::move(initial.assignment);
    }
  });

  const qbp::BurkardOptions options = entry_point_options(100, 1);
  std::vector<std::optional<Answer>> reference(legs.size());
  Samples leg_ms;
  double wire_cost = 0.0;
  std::int64_t passes = 0;
  std::int64_t iterations = 0;
  std::int64_t infeasible_inner = 0;
  std::int64_t request = 0;
  measure(run, [&] {
    double pass_s = 0.0;
    const bool first_pass = passes++ == 0;
    for (std::size_t k = 0; k < legs.size(); ++k) {
      const Leg& leg = legs[k];
      const Tracer::Scope span(run.tracer, "tables.leg", request++);
      qbp::BurkardResult result;
      {
        const Tracer::Scope call(run.tracer, "solve_qbp");
        const qbp::Timer timer;
        result = qbp::solve_qbp(leg.problem, leg.start, options);
        const double seconds = timer.seconds();
        pass_s += seconds;
        leg_ms.add(run.tracer.enabled(), seconds * 1e3);
      }
      if (run.tracer.enabled()) {
        iterations += result.iterations_run;
        infeasible_inner += result.infeasible_inner_solves;
      }
      const double wire =
          check_answer(run, leg.problem, result, options.penalty, leg.name);
      if (wire < 0.0) continue;
      if (first_pass) wire_cost += wire;
      check_repeat(run, reference[k], result, leg.name);
    }
    return pass_s;
  });
  run.out.set("wire_cost", wire_cost);
  leg_ms.write(run.out, "latency_ms");
  set_layer(run, "burkard_iterations", iterations);
  set_layer(run, "burkard_infeasible_inner", infeasible_inner);
}

// --------------------------------------------------------------- vcycle

void run_vcycle(Run& run) {
  constexpr std::int32_t kN = 10000;
  const qbp::PartitionProblem problem = timed_setup(run, [&] {
    const Tracer::Scope span(run.tracer, "gen.instance");
    return qbp::make_scaling_problem(kN, kInstanceSeed);
  });
  qbp::Assignment start;
  // A random start, as the V-cycle suite uses: at this scale the hierarchy
  // owns solution quality.
  timed_start(run, [&] {
    const Tracer::Scope span(run.tracer, "make_initial");
    start = qbp::make_initial(problem, qbp::InitialStrategy::kRandom,
                              derive(run.seed, 7))
                .assignment;
  });

  qbp::MultilevelOptions options;
  options.presolve.enabled = true;
  const double penalty = options.refine_solver.penalty;
  std::optional<Answer> reference;
  Samples solve_ms;
  double wire_cost = -1.0;
  qbp::MultilevelResult last;
  std::int64_t request = 0;
  measure(run, [&] {
    const Tracer::Scope span(run.tracer, "vcycle.solve", request++);
    const qbp::Timer timer;
    {
      const Tracer::Scope call(run.tracer, "solve_qbp_multilevel");
      last = qbp::solve_qbp_multilevel(problem, start, options);
    }
    const double seconds = timer.seconds();
    solve_ms.add(run.tracer.enabled(), seconds * 1e3);
    const double wire = check_answer(run, problem, last.finest,
                                     penalty, "vcycle");
    if (wire >= 0.0) {
      if (wire_cost < 0.0) wire_cost = wire;
      check_repeat(run, reference, last.finest, "vcycle");
    }
    return seconds;
  });
  run.out.set("wire_cost", wire_cost);
  solve_ms.write(run.out, "latency_ms");

  if (!run.trace) return;
  // The coarsest level's density, rebuilt with the public coarsen() under
  // the V-cycle's own stopping rules; reported only when the rebuilt
  // hierarchy matches the one the solve reported.
  set_layer(run, "levels", last.levels_used);
  set_layer(run, "coarsest_n", last.level_sizes.back());
  std::vector<std::int32_t> sizes{problem.num_components()};
  std::vector<qbp::CoarseProblem> hierarchy;
  const qbp::PartitionProblem* level = &problem;
  while (static_cast<std::int32_t>(sizes.size()) < options.max_levels &&
         level->num_components() > options.coarsest_target) {
    qbp::CoarsenOptions coarsen = options.coarsen;
    coarsen.seed = options.coarsen.seed + hierarchy.size();
    qbp::CoarseProblem next = qbp::coarsen(*level, coarsen);
    if (next.num_clusters >= static_cast<std::int32_t>(
                                 options.min_shrink * level->num_components())) {
      break;
    }
    sizes.push_back(next.num_clusters);
    hierarchy.push_back(std::move(next));
    level = &hierarchy.back().problem;
  }
  set_layer(run, "coarsest_pairs",
            sizes == last.level_sizes ? level->netlist().num_connected_pairs()
                                      : std::int64_t{-1});
}

// -------------------------------------------------------------- threads

void run_threads(Run& run) {
  constexpr std::int32_t kN = 3200;
  constexpr std::int32_t kThreads = 4;
  constexpr std::int32_t kIterations = 30;
  const qbp::PartitionProblem problem = timed_setup(run, [&] {
    const Tracer::Scope span(run.tracer, "gen.instance");
    return qbp::make_scaling_problem(kN, kInstanceSeed);
  });
  qbp::Assignment start;
  timed_start(run, [&] {
    const Tracer::Scope span(run.tracer, "make_initial");
    start = qbp::make_initial(problem, qbp::InitialStrategy::kQbpZeroWireCost,
                              derive(run.seed, 7))
                .assignment;
  });

  const qbp::BurkardOptions parallel =
      entry_point_options(kIterations, kThreads);
  const qbp::BurkardOptions serial = entry_point_options(kIterations, 1);
  std::optional<Answer> reference;
  Samples t4_ms;
  Samples t1_s;
  double wire_cost = -1.0;
  std::int64_t iterations = 0;
  std::int64_t infeasible_inner = 0;
  std::uint64_t t1_regions = 0;  // inline regions of the untraced reference
  std::int64_t request = 0;
  measure(run, [&] {
    const auto solve = [&](const qbp::BurkardOptions& options,
                           const char* name, double& seconds) {
      const Tracer::Scope call(run.tracer, name);
      const qbp::Timer timer;
      qbp::BurkardResult result = qbp::solve_qbp(problem, start, options);
      seconds = timer.seconds();
      return result;
    };
    const bool traced = run.tracer.enabled();
    double t4 = 0.0;
    qbp::BurkardResult wide;
    {
      const Tracer::Scope span(run.tracer, "threads.t4", request);
      wide = solve(parallel, "solve_qbp", t4);
    }
    t4_ms.add(traced, t4 * 1e3);
    request++;
    // The T = 1 reference: the traced layers describe the T = 4 solve, so
    // the instruments pause around it.
    run.tracer.set_enabled(false);
    qbp::prof::set_enabled(false);
    const std::uint64_t regions_before =
        qbp::par::Pool::instance().regions_run();
    double t1 = 0.0;
    const qbp::BurkardResult narrow = solve(serial, "solve_qbp.t1", t1);
    if (traced) {
      t1_regions += qbp::par::Pool::instance().regions_run() - regions_before;
    }
    run.tracer.set_enabled(traced);
    qbp::prof::set_enabled(traced);
    t1_s.add(traced, t1);
    // The determinism contract: T = 1 and T = 4 agree bit for bit.
    if (Answer::of(narrow) == Answer::of(wide) &&
        narrow.found_feasible == wide.found_feasible) {
      run.outcomes.ok++;
    } else {
      run.outcomes.fail(&Outcomes::wrong, "threads: T=1 and T=4 differ");
    }
    if (traced) {
      iterations += wide.iterations_run;
      infeasible_inner += wide.infeasible_inner_solves;
    }
    const double wire = check_answer(run, problem, wide,
                                     parallel.penalty, "threads T=4");
    if (wire >= 0.0) {
      if (wire_cost < 0.0) wire_cost = wire;
      check_repeat(run, reference, wide, "threads T=4");
    }
    return t4;
  });
  run.out.set("wire_cost", wire_cost);
  t4_ms.write(run.out, "latency_ms");
  t1_s.write(run.out, "t1_s");
  set_layer(run, "reference_regions", static_cast<std::int64_t>(t1_regions));
  set_layer(run, "burkard_iterations", iterations);
  set_layer(run, "burkard_infeasible_inner", infeasible_inner);
}

}  // namespace perfbench
