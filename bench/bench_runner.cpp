// Unified benchmark driver: runs every table, scaling, ablation and
// extension experiment with one machine-readable output format, and doubles
// as the CI bench-regression gate via --check.
//
//   bench_runner --suite all --json out.json          # full local baseline
//   bench_runner --smoke --json out.json --check bench/BENCH_smoke.json
//                                                    # ^ the CI gate
//   bench_runner --smoke --profile                    # phase breakdown
//
// Every suite is one kSuites[] entry: a run function that returns its rows
// as JSON objects, the key fields that find a row's baseline twin, the
// fields gated exactly, the fields gated as wall clock, and an optional
// extra check for gates that are not "row against baseline row".  One
// printer, one baseline lookup and one gate serve them all.
//
// JSON schema (schema = 1):
//   { "schema": 1, "mode": "smoke"|"full", "inner_threads": K,
//     "suites": { "<suite>": [ {row}, ... ], ... },
//     "phases": { "<phase>": {"seconds","count"}, ... } }     (--profile)
//
// --check BASELINE compares the current run against a baseline produced by
// the same mode.  Exact fields (objectives, counters, hashes, feasibility)
// must match EXACTLY -- the solvers are deterministic, so any drift means
// the algorithm changed -- and wall-clock fields must satisfy
//   new <= old * (1 + time_tolerance) + 0.1 s
// (the absolute slack keeps sub-100ms smoke timings from tripping on noise).
// The extra checks: serve results agree across framings and binary keeps a
// 3x edge over NDJSON; a full-scale eco warm re-solve costs <= 10% of cold;
// with --inner-threads above 1 on a host with at least 4 hardware threads,
// a full-mode scaling row may take at most 1.15x its T=1 wall + 0.1 s; and
// the ablation and extensions suites check the paper's prose claims (see
// check_ablation / check_extensions).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/gfm.hpp"
#include "baselines/gkl.hpp"
#include "baselines/sa.hpp"
#include "bench_support/circuits.hpp"
#include "bench_support/eco_stream.hpp"
#include "bench_support/experiment.hpp"
#include "bench_support/serve_bench.hpp"
#include "core/burkard.hpp"
#include "core/embedding.hpp"
#include "core/exact.hpp"
#include "core/initial.hpp"
#include "core/multilevel.hpp"
#include "core/problem_io.hpp"
#include "core/qhat.hpp"
#include "engine/engine.hpp"
#include "netlist/generator.hpp"
#include "netlist/stats.hpp"
#include "service/cache.hpp"
#include "service/job.hpp"
#include "timing/constraints.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/prof.hpp"
#include "util/simd.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using qbp::json::Value;

struct RunnerConfig {
  bool smoke = false;
  double time_tolerance = 0.25;
  std::int64_t inner_threads = 1;
  /// Presolve before the QBP legs.  The standard circuits have no reducible
  /// structure, so on/off runs are bit-identical there and --check works
  /// against one shared baseline in both modes.
  bool presolve = true;
  /// --check was given: the scaling suite times its T=1 reference solves
  /// only when the speedup-ratio gate will read them.
  bool checking = false;
};

std::int32_t inner_threads(const RunnerConfig& config) {
  return static_cast<std::int32_t>(config.inner_threads);
}

std::vector<std::string> circuits_or(const RunnerConfig& config,
                                     std::vector<std::string> full) {
  return config.smoke ? std::vector<std::string>{"cktb"} : std::move(full);
}

std::vector<std::string> all_circuits() {
  std::vector<std::string> names;
  for (const auto& preset : qbp::shihkuh_presets()) names.push_back(preset.name);
  return names;
}

/// Feasible wirelength when the solve found a feasible point, else its
/// penalized value.
double final_of(const qbp::PartitionProblem& problem,
                const qbp::BurkardResult& result) {
  return result.found_feasible ? problem.wirelength(result.best_feasible)
                               : result.best_penalized;
}

Value array_of(const std::vector<double>& values) {
  Value out = Value::array();
  for (const double value : values) out.push_back(value);
  return out;
}

// --- the paper's tables ------------------------------------------------------

// Table I rows: structural circuit descriptions (no solving).  The counts
// are gated like objectives -- generation is deterministic, so any drift
// means the synthesis changed -- and the generation time like wall clock.
Value run_table1_suite(const RunnerConfig& config) {
  Value rows = Value::array();
  for (const auto& name : circuits_or(config, all_circuits())) {
    const qbp::Timer timer;
    const auto instance = qbp::make_circuit(*qbp::find_preset(name));
    const double gen_seconds = timer.seconds();
    const auto stats = qbp::compute_stats(instance.problem.netlist());

    Value row = Value::object();
    row.set("circuit", name);
    row.set("components", stats.num_components);
    row.set("wires", static_cast<std::int64_t>(stats.total_wires));
    row.set("timing_constraints",
            static_cast<std::int64_t>(instance.problem.timing().count()));
    row.set("size_ratio", stats.size_ratio);
    row.set("avg_degree", stats.avg_degree);
    row.set("gen_seconds", gen_seconds);
    rows.push_back(std::move(row));
    std::fprintf(stderr, "  %s done\n", name.c_str());
  }
  return rows;
}

// Tables II / III (bench_support/experiment): QBP, GFM and GKL from the
// shared start, without and with the timing constraints.
Value run_table_suite(bool with_timing, const RunnerConfig& config) {
  qbp::ExperimentConfig experiment;
  experiment.inner_threads = inner_threads(config);
  experiment.presolve.enabled = config.presolve;
  if (config.smoke) {
    experiment.qbp_iterations = 30;
    experiment.gkl_outer_loops = 3;
  }

  std::vector<qbp::ExperimentRow> rows;
  for (const auto& name : circuits_or(config, all_circuits())) {
    const auto instance = qbp::make_circuit(*qbp::find_preset(name));
    // Shared start computed on the timing-constrained problem (Section 5);
    // Table II then drops the constraints from the problem it solves.
    const auto initial = qbp::make_initial(
        instance.problem, qbp::InitialStrategy::kQbpZeroWireCost,
        experiment.seed);
    rows.push_back(qbp::run_experiment_from(
        name,
        with_timing ? instance.problem : instance.problem.without_timing(),
        initial.assignment, initial.feasible, experiment));
    std::fprintf(stderr, "  %s done\n", name.c_str());
  }
  return qbp::rows_to_json(rows);
}

// --- solver scaling ----------------------------------------------------------

/// The scaling suite's speedup-ratio gate: with more than one inner thread
/// on a host with at least kMinHardwareThreadsForSpeedupGate hardware
/// threads, each full-mode row's wall may be at most this multiple of the
/// same solve at T=1, plus the wall-clock gate's absolute slack.
constexpr double kMaxSlowdownVsT1 = 1.15;
constexpr unsigned kMinHardwareThreadsForSpeedupGate = 4;

/// When the speedup-ratio gate applies, every row is solved a second time
/// at one thread right after its timed solve (`t1_seconds`, `t1_final`), so
/// the gate compares runs taken under the same host conditions.
Value run_scaling_suite(const RunnerConfig& config) {
  // The gate needs several hardware threads and rows long enough to time
  // (smoke rows last milliseconds).
  bool time_t1 = false;
  if (config.checking && !config.smoke &&
      qbp::par::resolve_threads(inner_threads(config)) > 1) {
    const unsigned hardware = std::thread::hardware_concurrency();
    time_t1 = hardware >= kMinHardwareThreadsForSpeedupGate;
    if (!time_t1) {
      std::printf("scaling: speedup-ratio gate skipped (%u hardware "
                  "threads, needs %u)\n",
                  hardware, kMinHardwareThreadsForSpeedupGate);
    }
  }
  const std::vector<std::int32_t> sizes =
      config.smoke ? std::vector<std::int32_t>{200, 400}
                   : std::vector<std::int32_t>{200, 400, 800, 1600, 3200};
  const std::int32_t iterations = config.smoke ? 10 : 30;

  Value rows = Value::array();
  for (const std::int32_t n : sizes) {
    const auto problem = qbp::make_scaling_problem(n, 7);
    const auto initial = qbp::make_initial(
        problem, qbp::InitialStrategy::kQbpZeroWireCost, 7);
    const double start = problem.wirelength(initial.assignment);

    qbp::BurkardOptions options;
    options.iterations = iterations;
    options.inner_threads = inner_threads(config);
    options.presolve.enabled = config.presolve;
    const auto final_cost = [&](const qbp::BurkardResult& result) {
      return result.found_feasible ? problem.wirelength(result.best_feasible)
                                   : start;
    };
    const qbp::Timer timer;
    const auto result = qbp::solve_qbp(problem, initial.assignment, options);
    const double seconds = timer.seconds();

    Value row = Value::object();
    row.set("n", n);
    row.set("wires", problem.netlist().total_wires());
    row.set("constraints", problem.timing().count());
    row.set("iterations", result.iterations_run);
    row.set("threads", inner_threads(config));
    row.set("seconds", seconds);
    row.set("ms_per_iter", result.iterations_run > 0
                               ? seconds * 1000.0 / result.iterations_run
                               : 0.0);
    row.set("final", final_cost(result));
    row.set("feasible", result.found_feasible);
    if (time_t1) {
      options.inner_threads = 1;
      const qbp::Timer t1_timer;
      const auto t1_result =
          qbp::solve_qbp(problem, initial.assignment, options);
      row.set("t1_seconds", t1_timer.seconds());
      row.set("t1_final", final_cost(t1_result));
    }
    rows.push_back(std::move(row));
    std::fprintf(stderr, "  N=%d done (%.2fs)\n", n, seconds);
  }
  return rows;
}

// Presolve suite: reducible scaling instances (make_presolve_problem),
// solved once with presolve off and once with presolve on.  Rows report the
// reduction-rule counters (exact-gated: the reducer is deterministic) plus
// both solve times, so the baseline pins the speedup presolve buys.
Value run_presolve_suite(const RunnerConfig& config) {
  const std::vector<std::int32_t> sizes =
      config.smoke ? std::vector<std::int32_t>{200, 400}
                   : std::vector<std::int32_t>{200, 400, 800, 1600, 3200};
  const std::int32_t iterations = config.smoke ? 10 : 30;

  Value rows = Value::array();
  for (const std::int32_t n : sizes) {
    const auto problem = qbp::make_presolve_problem(n, 7);
    const auto initial = qbp::make_initial(
        problem, qbp::InitialStrategy::kQbpZeroWireCost, 7);
    const qbp::PresolveStats stats = qbp::presolve(problem).stats;

    qbp::BurkardOptions options;
    options.iterations = iterations;
    options.inner_threads = inner_threads(config);
    struct Leg {
      double seconds = 0.0;
      double final_cost = 0.0;  // feasible objective, or penalized value
      bool feasible = false;
    };
    const auto leg = [&] {
      const qbp::Timer timer;
      const auto result = qbp::solve_qbp(problem, initial.assignment, options);
      return Leg{timer.seconds(),
                 result.found_feasible ? result.best_feasible_objective
                                       : result.best_penalized,
                 result.found_feasible};
    };
    const Leg off = leg();
    options.presolve.enabled = true;
    const Leg on = leg();

    Value row = Value::object();
    row.set("n", n);
    row.set("r0", stats.r0);
    row.set("r1", stats.r1);
    row.set("r2", stats.r2);
    row.set("rn", stats.rn);
    row.set("components_removed", stats.components_removed);
    row.set("reduction_pct", 100.0 * stats.components_removed / n);
    row.set("presolve_seconds", stats.seconds);
    row.set("seconds_off", off.seconds);
    row.set("seconds_on", on.seconds);
    row.set("final_off", off.final_cost);
    row.set("final_on", on.final_cost);
    row.set("feasible_off", off.feasible);
    row.set("feasible_on", on.feasible);
    rows.push_back(std::move(row));
    std::fprintf(stderr, "  N=%d done (off %.2fs, on %.2fs, -%d comps)\n", n,
                 off.seconds, on.seconds, stats.components_removed);
  }
  return rows;
}

// --- serving -----------------------------------------------------------------

// Eco suite: warm-start serving latency.  Each N runs the service job layer
// against a private SolutionCache: one cold solve (inserted), one exact
// re-submission (must come back as a bit-identical cache hit), then a short
// stream of ECO-perturbed variants (bench_support/eco_stream) that should
// be answered by the warm re-solve path.  Everything here is deterministic
// -- the cache is driven by a scripted sequence -- so finals are
// exact-gated; the headline number is warm_p50 / cold.
Value run_eco_suite(const RunnerConfig& config) {
  const std::vector<std::int32_t> sizes =
      config.smoke ? std::vector<std::int32_t>{200, 400}
                   : std::vector<std::int32_t>{800, 3200};
  // Enough work that the single-start cold solve lands feasible at every
  // size (the suite's exact-hit and warm-start checks need an "ok" cold);
  // smoke leans on extra starts instead of iterations to stay quick.
  const std::int32_t iterations = config.smoke ? 10 : 100;
  const std::int32_t starts = config.smoke ? 4 : 1;
  constexpr std::int32_t kVariants = 5;

  Value rows = Value::array();
  for (const std::int32_t n : sizes) {
    const auto base = qbp::make_scaling_problem(n, 7);
    qbp::service::SolutionCache cache(16);

    qbp::service::Job job;
    job.solver.method = "qbp";
    job.solver.starts = starts;
    job.solver.iterations = iterations;
    job.solver.seed = 7;
    job.solver.inner_threads = inner_threads(config);
    // Explicit so the spec fingerprint is independent of the build's
    // validation default; the warm path re-validates on its own anyway.
    job.solver.validate = false;
    {
      std::ostringstream out;
      qbp::write_problem(out, base);
      job.problem_text = out.str();
    }

    job.id = "cold";
    const qbp::Timer cold_timer;
    const auto cold = qbp::service::run_job(job, &cache);
    const double cold_seconds = cold_timer.seconds();

    job.id = "exact";
    const auto exact = qbp::service::run_job(job, &cache);
    const bool exact_hit = exact.cache_hit && exact.status == cold.status &&
                           exact.objective == cold.objective &&
                           exact.assignment == cold.assignment;

    std::vector<double> warm_finals;
    std::vector<double> warm_times;
    for (std::int32_t v = 1; v <= kVariants; ++v) {
      const auto variant = qbp::make_eco_variant(base, 7, v);
      std::ostringstream out;
      qbp::write_problem(out, variant);
      job.problem_text = out.str();
      job.id = "eco-" + std::to_string(v);
      const qbp::Timer warm_timer;
      const auto warm = qbp::service::run_job(job, &cache);
      const double seconds = warm_timer.seconds();
      warm_finals.push_back(warm.objective);
      if (warm.warm_start) warm_times.push_back(seconds);
    }
    double warm_p50 = 0.0;
    if (!warm_times.empty()) {
      std::sort(warm_times.begin(), warm_times.end());
      warm_p50 = warm_times[warm_times.size() / 2];
    }
    const double warm_ratio = cold_seconds > 0.0 ? warm_p50 / cold_seconds : 0.0;

    Value row = Value::object();
    row.set("n", n);
    row.set("cold_seconds", cold_seconds);
    row.set("cold_final", cold.objective);
    row.set("exact_hit", exact_hit);
    row.set("variants", kVariants);
    row.set("warm_hits", static_cast<std::int64_t>(warm_times.size()));
    row.set("warm_finals", array_of(warm_finals));
    row.set("warm_p50_seconds", warm_p50);
    row.set("warm_ratio", warm_ratio);
    rows.push_back(std::move(row));
    std::fprintf(stderr,
                 "  N=%d done (cold %.2fs, warm p50 %.3fs, ratio %.3f, "
                 "%zu/%d warm)\n",
                 n, cold_seconds, warm_p50, warm_ratio, warm_times.size(),
                 kVariants);
  }
  return rows;
}

// V-cycle suite: the multilevel solver at sizes the flat heuristic cannot
// touch (N up to 100k).  Everything is deterministic -- the hierarchy, the
// coarsest solve and every refinement pass are bit-identical at any
// inner-thread count and with the SIMD kernels on or off -- so the final
// objective, feasibility, level count and per-level sizes are all
// exact-gated; "kernel" records which SIMD path ran and is not gated.
// "row_builds" counts the DeltaEvaluator rows built during the solve
// (counted work, which unlike wall clock does not drift with the host);
// the profiler is on for the solve so the count reads the same with or
// without --profile.  "repair_moves" sums the moves of the per-level
// min-conflicts timing repairs, also counted work.  This is the CI scaling
// gate: a re-run with --inner-threads 2 or --simd off must pass --check
// against the same baseline.
Value run_vcycle_suite(const RunnerConfig& config) {
  const std::vector<std::int32_t> sizes =
      config.smoke ? std::vector<std::int32_t>{10000}
                   : std::vector<std::int32_t>{10000, 30000, 100000};

  Value rows = Value::array();
  for (const std::int32_t n : sizes) {
    const auto problem = qbp::make_scaling_problem(n, 7);
    // A plain random seed: at V-cycle scale the hierarchy owns solution
    // quality, and the QBP zero-wire-cost start would cost more than the
    // whole solve.
    const auto initial =
        qbp::make_initial(problem, qbp::InitialStrategy::kRandom, 7);

    qbp::MultilevelOptions options;
    options.coarsen.inner_threads = inner_threads(config);
    options.coarse_solver.inner_threads = inner_threads(config);
    options.refine_solver.inner_threads = inner_threads(config);
    options.presolve.enabled = config.presolve;

    const bool profiling = qbp::prof::enabled();
    qbp::prof::set_enabled(true);
    const qbp::prof::PhaseReport before = qbp::prof::snapshot();
    const qbp::Timer timer;
    const auto result =
        qbp::solve_qbp_multilevel(problem, initial.assignment, options);
    const double seconds = timer.seconds();
    const qbp::prof::PhaseReport solve = qbp::prof::snapshot().since(before);
    qbp::prof::set_enabled(profiling);
    const qbp::prof::PhaseStat* row_builds = solve.find("delta.row_build");

    Value sizes_json = Value::array();
    for (const std::int32_t size : result.level_sizes) {
      sizes_json.push_back(size);
    }
    Value row = Value::object();
    row.set("n", n);
    row.set("wires", problem.netlist().total_wires());
    row.set("constraints", problem.timing().count());
    row.set("levels", result.levels_used);
    row.set("level_sizes", std::move(sizes_json));
    row.set("threads", inner_threads(config));
    row.set("kernel", qbp::simd::active_kernel());
    row.set("coarsen_seconds", result.coarsen_seconds);
    row.set("seconds", seconds);
    row.set("final", final_of(problem, result.finest));
    row.set("feasible", result.finest.found_feasible);
    row.set("row_builds", row_builds != nullptr ? row_builds->count : 0);
    row.set("repair_moves", result.repair_moves);
    rows.push_back(std::move(row));
    std::fprintf(stderr,
                 "  N=%d done (%.2fs, coarsen %.2fs, %d levels, kernel %s)\n",
                 n, seconds, result.coarsen_seconds, result.levels_used,
                 qbp::simd::active_kernel());
  }
  return rows;
}

// Serve suite (bench_support/serve_bench): saturated qbpartd throughput
// under both edge framings.  Smoke shrinks the problem and batch sizes.
Value run_serve_suite(const RunnerConfig& config) {
  qbp::ServeBenchConfig serve;
  serve.inner_threads = inner_threads(config);
  if (config.smoke) {
    serve.n = 200;
    serve.jobs = 24;
    serve.warm_jobs = 8;
  }
  Value rows = Value::array();
  for (const auto& result : qbp::run_serve_bench(serve)) {
    Value row = Value::object();
    row.set("scenario", result.scenario);
    row.set("framing", result.framing);
    row.set("workers", result.workers);
    row.set("jobs", result.jobs);
    row.set("seconds", result.seconds);
    row.set("jobs_per_sec", result.jobs_per_sec);
    row.set("results_hash", result.results_hash);
    row.set("cache_hits", result.cache_hits);
    row.set("warm_hits", result.warm_hits);
    row.set("ok", result.ok);
    rows.push_back(std::move(row));
  }
  return rows;
}

// --- ablations: the paper's prose claims -------------------------------------

/// Start seed of every ablation and extension row that solves a paper
/// circuit (the year of the paper, as in Tables II/III).
constexpr std::uint64_t kStudySeed = 1993;

Value study_row(const char* study, const std::string& circuit,
                const std::string& variant) {
  Value row = Value::object();
  row.set("study", study);
  row.set("circuit", circuit);
  if (!variant.empty()) row.set("variant", variant);
  return row;
}

void set_solve(Value& row, const qbp::PartitionProblem& problem,
               const qbp::BurkardResult& result) {
  row.set("final", final_of(problem, result));
  row.set("feasible", result.found_feasible);
  row.set("seconds", result.seconds);
}

/// Random instance with the hidden placement's usage plus `slack` as
/// capacity, for the sparse-eta sweep and the exact-gap instances.
qbp::PartitionProblem make_hidden_instance(const std::string& name,
                                           std::int32_t n,
                                           std::int32_t grid_width,
                                           std::int64_t wires_per_component,
                                           std::int64_t constraints,
                                           double slack, std::uint64_t seed) {
  const std::int32_t slots = grid_width * grid_width;
  qbp::RandomNetlistSpec spec;
  spec.name = name;
  spec.num_components = n;
  spec.total_wires = wires_per_component * n;
  spec.num_slots = slots;
  spec.grid_width = grid_width;
  spec.seed = seed;
  auto generated = qbp::generate_netlist(spec);
  auto topology = qbp::PartitionTopology::grid(grid_width, grid_width,
                                               qbp::CostKind::kManhattan);
  std::vector<double> usage(static_cast<std::size_t>(slots), 0.0);
  for (std::int32_t j = 0; j < n; ++j) {
    usage[generated.hidden_slot[j]] += generated.netlist.component_size(j);
  }
  for (qbp::PartitionId i = 0; i < slots; ++i) {
    topology.set_capacity(i, usage[i] * slack);
  }
  qbp::TimingSpec timing_spec;
  timing_spec.target_count = constraints;
  timing_spec.seed = seed;
  auto timing = qbp::generate_timing_constraints(
      generated.netlist, generated.hidden_slot, topology, timing_spec);
  return qbp::PartitionProblem(std::move(generated.netlist),
                               std::move(topology), std::move(timing));
}

// Section 5: "QBP maintained the same kind of good results from any
// arbitrary initial solution" -- QBP from four starts, timing active.
void ablate_init(const RunnerConfig& config, Value& rows) {
  const struct {
    qbp::InitialStrategy strategy;
    const char* name;
  } strategies[] = {
      {qbp::InitialStrategy::kRandom, "uniform random"},
      {qbp::InitialStrategy::kRandomFeasible, "random feasible"},
      {qbp::InitialStrategy::kGreedyBalanced, "greedy balanced"},
      {qbp::InitialStrategy::kQbpZeroWireCost, "QBP(B=0), paper"},
  };
  qbp::BurkardOptions options;
  if (config.smoke) options.iterations = 20;
  for (const auto& name : circuits_or(config, {"cktb", "ckte", "cktg"})) {
    const auto instance = qbp::make_circuit(*qbp::find_preset(name));
    const auto& problem = instance.problem;
    for (const auto& [strategy, label] : strategies) {
      const auto initial = qbp::make_initial(problem, strategy, kStudySeed);
      const auto result = qbp::solve_qbp(problem, initial.assignment, options);
      Value row = study_row("init", name, label);
      row.set("start", problem.wirelength(initial.assignment));
      row.set("start_feasible", initial.feasible);
      set_solve(row, problem, result);
      rows.push_back(std::move(row));
    }
    std::fprintf(stderr, "  init %s done\n", name.c_str());
  }
}

// Section 5: "the more CPU time spent, the better the results" -- the
// incumbent against the iteration budget.  The 200-iteration row keeps its
// per-iteration `history` (the convergence curve; not gated).
void ablate_iters(const RunnerConfig& config, Value& rows) {
  const std::vector<std::int32_t> budgets =
      config.smoke ? std::vector<std::int32_t>{10, 25, 50}
                   : std::vector<std::int32_t>{10, 25, 50, 100, 200, 400};
  for (const auto& name : circuits_or(config, {"cktb", "ckte"})) {
    const auto instance = qbp::make_circuit(*qbp::find_preset(name));
    const auto& problem = instance.problem;
    const auto initial = qbp::make_initial(
        problem, qbp::InitialStrategy::kQbpZeroWireCost, kStudySeed);
    for (const std::int32_t budget : budgets) {
      qbp::BurkardOptions options;
      options.iterations = budget;
      const auto result = qbp::solve_qbp(problem, initial.assignment, options);
      Value row = study_row("iters", name, "it=" + std::to_string(budget));
      row.set("iterations", budget);
      row.set("start", problem.wirelength(initial.assignment));
      set_solve(row, problem, result);
      if (budget == 200) row.set("history", array_of(result.history));
      rows.push_back(std::move(row));
    }
    std::fprintf(stderr, "  iters %s done\n", name.c_str());
  }
}

// Section 3.2: penalty 50 "is high enough to reject any timing violating
// assignments", where Theorem 1 proves only a ~10^6 bound; tiny penalties
// fail.  Also the eta-includes-omega variant of equation (3).
void ablate_penalty(const RunnerConfig& config, Value& rows) {
  const std::string name = config.smoke ? "cktb" : "ckte";
  const auto instance = qbp::make_circuit(*qbp::find_preset(name));
  const auto& problem = instance.problem;
  const auto initial = qbp::make_initial(
      problem, qbp::InitialStrategy::kQbpZeroWireCost, kStudySeed);
  qbp::BurkardOptions base;
  if (config.smoke) base.iterations = 20;

  const struct {
    const char* label;
    double penalty;
  } penalties[] = {{"2", 2.0},
                   {"10", 10.0},
                   {"50", qbp::kPaperPenalty},
                   {"500", 500.0},
                   {"theorem 1", qbp::theorem1_penalty(problem)}};
  for (const auto& [label, penalty] : penalties) {
    qbp::BurkardOptions options = base;
    options.penalty = penalty;
    const auto result = qbp::solve_qbp(problem, initial.assignment, options);
    const qbp::QhatMatrix qhat(problem, penalty);
    Value row = study_row("penalty", name, label);
    row.set("penalty", penalty);
    row.set("provably_exact",
            qbp::analyze_embedding(problem, penalty).provably_exact);
    row.set("violations", qhat.ordered_violations(result.best));
    set_solve(row, problem, result);
    rows.push_back(std::move(row));
  }
  for (const bool with_omega : {false, true}) {
    qbp::BurkardOptions options = base;
    options.eta_includes_omega = with_omega;
    const auto result = qbp::solve_qbp(problem, initial.assignment, options);
    Value row = study_row(
        "eta", name,
        with_omega ? "eq. (3) with omega" : "listed STEP 3 (default)");
    set_solve(row, problem, result);
    rows.push_back(std::move(row));
  }
  std::fprintf(stderr, "  penalty %s done\n", name.c_str());
}

// DESIGN.md section 5: iterate polishing and perturbed restarts against the
// literal STEP 1-8 listing.
void ablate_polish(const RunnerConfig& config, Value& rows) {
  const struct {
    const char* name;
    std::int32_t polish;
    std::int32_t restart;
  } variants[] = {
      {"literal STEP 1-8", 0, 0},
      {"+ polish", 3, 0},
      {"+ restart only", 0, 12},
      {"+ polish + restart (default)", 3, 12},
  };
  for (const auto& name : circuits_or(config, {"cktb", "ckte", "cktg"})) {
    const auto instance = qbp::make_circuit(*qbp::find_preset(name));
    const auto& problem = instance.problem;
    const auto initial = qbp::make_initial(
        problem, qbp::InitialStrategy::kQbpZeroWireCost, kStudySeed);
    for (const auto& variant : variants) {
      qbp::BurkardOptions options;
      if (config.smoke) options.iterations = 20;
      options.polish_sweeps = variant.polish;
      options.restart_period = variant.restart;
      const auto result = qbp::solve_qbp(problem, initial.assignment, options);
      Value row = study_row("polish", name, variant.name);
      row.set("best_penalized", result.best_penalized);
      set_solve(row, problem, result);
      rows.push_back(std::move(row));
    }
    std::fprintf(stderr, "  polish %s done\n", name.c_str());
  }
}

// Section 4.3: "We never explicitly generate the Q-hat matrix."  Times the
// STEP 3 eta gather through the solver's sparse implicit path against a
// dense O((MN)^2) reference that reads Q-hat entry by entry, M = 16.
void ablate_sparse(const RunnerConfig& config, Value& rows) {
  const std::vector<std::int32_t> sizes =
      config.smoke ? std::vector<std::int32_t>{100, 200}
                   : std::vector<std::int32_t>{100, 200, 400, 800, 1600};
  for (const std::int32_t n : sizes) {
    const auto problem = make_hidden_instance(
        "sweep" + std::to_string(n), n, 4, 6, 3 * std::int64_t{n}, 1.15, 42);
    const qbp::QhatMatrix qhat(problem, qbp::kPaperPenalty);
    const auto initial =
        qbp::make_initial(problem, qbp::InitialStrategy::kGreedyBalanced, 1);
    const auto& u = initial.assignment;
    const auto size = static_cast<std::size_t>(problem.flat_size());

    constexpr int kRepeats = 20;  // the sparse gather is the fast one
    std::vector<double> sparse(size);
    const qbp::Timer sparse_timer;
    for (int repeat = 0; repeat < kRepeats; ++repeat) qhat.eta(u, sparse);
    const double sparse_seconds = sparse_timer.seconds() / kRepeats;

    std::vector<double> dense(size);
    const qbp::Timer dense_timer;
    for (std::size_t s = 0; s < size; ++s) {
      double total = 0.0;
      for (std::int32_t j = 0; j < problem.num_components(); ++j) {
        total += qhat.entry(problem.flat_index(u[j], j),
                            static_cast<std::int64_t>(s));
      }
      dense[s] = total;
    }
    const double dense_seconds = dense_timer.seconds();

    const double mn = static_cast<double>(size);
    Value row = study_row("sparse", problem.netlist().name(), "");
    row.set("n", n);
    row.set("mn", static_cast<std::int64_t>(size));
    row.set("dense_mib", mn * mn * 8.0 / (1024.0 * 1024.0));
    row.set("nominal_nonzeros", qhat.nominal_nonzeros());
    row.set("eta_equal", sparse == dense);
    row.set("speedup", sparse_seconds > 0.0 ? dense_seconds / sparse_seconds
                                            : 0.0);
    row.set("sparse_seconds", sparse_seconds);
    row.set("dense_seconds", dense_seconds);
    rows.push_back(std::move(row));
    std::fprintf(stderr, "  sparse N=%d done\n", n);
  }
}

Value run_ablation_suite(const RunnerConfig& config) {
  Value rows = Value::array();
  ablate_init(config, rows);
  ablate_iters(config, rows);
  ablate_penalty(config, rows);
  ablate_polish(config, rows);
  ablate_sparse(config, rows);
  return rows;
}

/// The sparse eta gather must beat the dense reference by at least this
/// factor at every N (Section 4.3's "cheap STEP 3").
constexpr double kMinSparseSpeedup = 10.0;

// --- extensions: what the paper did not run ----------------------------------

// Simulated annealing, the other 1990s comparator, against QBP under the
// Table III protocol (shared start, timing active).
void extend_sa(const RunnerConfig& config, Value& rows) {
  for (const auto& name : circuits_or(config, {"cktb", "ckte", "cktg"})) {
    const auto instance = qbp::make_circuit(*qbp::find_preset(name));
    const auto& problem = instance.problem;
    const auto initial = qbp::make_initial(
        problem, qbp::InitialStrategy::kQbpZeroWireCost, kStudySeed);
    const double start = problem.wirelength(initial.assignment);

    qbp::BurkardOptions qbp_options;
    if (config.smoke) qbp_options.iterations = 20;
    const auto qbp_result =
        qbp::solve_qbp(problem, initial.assignment, qbp_options);
    Value qbp_row = study_row("sa", name, "qbp");
    qbp_row.set("start", start);
    qbp_row.set("final", qbp_result.found_feasible
                             ? problem.wirelength(qbp_result.best_feasible)
                             : start);
    qbp_row.set("seconds", qbp_result.seconds);
    rows.push_back(std::move(qbp_row));

    qbp::SaOptions sa_options;
    sa_options.seed = kStudySeed;
    if (config.smoke) sa_options.moves_per_component = 2;
    const auto sa_result =
        qbp::solve_sa(problem, initial.assignment, sa_options);
    Value sa_row = study_row("sa", name, "sa");
    sa_row.set("start", start);
    sa_row.set("final", problem.wirelength(sa_result.assignment));
    sa_row.set("accepted", sa_result.accepted);
    sa_row.set("seconds", sa_result.seconds);
    rows.push_back(std::move(sa_row));
    std::fprintf(stderr, "  sa %s done\n", name.c_str());
  }
}

// Optimality gaps against branch-and-bound optima on 18-component,
// 4-partition instances with timing constraints: the absolute yardstick the
// paper could not run.  Seeds without a feasible start or a proof are
// skipped (and said so on stderr).
void extend_exact_gap(const RunnerConfig& config, Value& rows) {
  constexpr std::int32_t kN = 18;
  const std::vector<std::uint64_t> seeds =
      config.smoke ? std::vector<std::uint64_t>{21}
                   : std::vector<std::uint64_t>{21, 22, 23, 24};
  for (const std::uint64_t seed : seeds) {
    const auto problem = make_hidden_instance(
        "x" + std::to_string(seed), kN, 2, 4, kN, 1.25, seed);
    const auto initial = qbp::make_initial(
        problem, qbp::InitialStrategy::kQbpZeroWireCost, seed);
    if (!initial.feasible) {
      std::fprintf(stderr, "  exact gap seed %llu skipped (no feasible start)\n",
                   static_cast<unsigned long long>(seed));
      continue;
    }
    qbp::BurkardOptions qbp_options;
    qbp_options.iterations = 60;
    const auto heuristic =
        qbp::solve_qbp(problem, initial.assignment, qbp_options);
    qbp::ExactOptions exact_options;
    if (heuristic.found_feasible) {
      exact_options.warm_start = &heuristic.best_feasible;
    }
    const auto exact = qbp::solve_exact(problem, exact_options);
    if (!exact.found || !exact.proven_optimal) {
      std::fprintf(stderr, "  exact gap seed %llu skipped (not proven)\n",
                   static_cast<unsigned long long>(seed));
      continue;
    }
    Value row = study_row("exact_gap", problem.netlist().name(), "");
    row.set("n", kN);
    row.set("optimum", exact.objective);
    row.set("nodes", exact.nodes);
    if (heuristic.found_feasible) {
      row.set("qbp", heuristic.best_feasible_objective);
    }
    row.set("gfm", qbp::solve_gfm(problem, initial.assignment).objective);
    row.set("gkl", qbp::solve_gkl(problem, initial.assignment).objective);
    rows.push_back(std::move(row));
    std::fprintf(stderr, "  exact gap seed %llu done\n",
                 static_cast<unsigned long long>(seed));
  }
}

// Section 5's start-insensitivity makes multistart the natural outer loop:
// a 16-start engine Portfolio at T = 1, 2 and 4 workers.  Deterministic
// per-start RNG streams make the winner identical at every worker count.
void extend_portfolio(const RunnerConfig& config, Value& rows) {
  const std::int32_t starts = config.smoke ? 4 : 16;
  qbp::BurkardOptions options;
  options.iterations = config.smoke ? 10 : 40;
  const qbp::engine::BurkardSolver solver(options);
  for (const auto& name :
       config.smoke ? std::vector<std::string>{"ckta"}
                    : std::vector<std::string>{"ckta", "cktb"}) {
    const auto instance = qbp::make_circuit(*qbp::find_preset(name));
    for (const std::int32_t threads : {1, 2, 4}) {
      qbp::engine::PortfolioOptions portfolio_options;
      portfolio_options.seed = kStudySeed;
      portfolio_options.threads = threads;
      portfolio_options.keep_start_results = false;
      const auto result = qbp::engine::Portfolio(portfolio_options)
                              .run(instance.problem, solver, starts);
      Value row = study_row("portfolio", name, "T=" + std::to_string(threads));
      row.set("starts", starts);
      row.set("objective", result.best.found_feasible
                               ? result.best.best_feasible_objective
                               : result.best.best_penalized);
      row.set("feasible", result.best.found_feasible);
      row.set("best_start", result.best_start);
      row.set("seconds_total", result.seconds_total);
      row.set("seconds", result.seconds);
      rows.push_back(std::move(row));
    }
    std::fprintf(stderr, "  portfolio %s done\n", name.c_str());
  }
}

Value run_extensions_suite(const RunnerConfig& config) {
  Value rows = Value::array();
  extend_sa(config, rows);
  extend_exact_gap(config, rows);
  extend_portfolio(config, rows);
  return rows;
}

// --- baseline comparison -----------------------------------------------------

/// Absolute slack on every wall-clock gate, so sub-100ms timings do not trip
/// on noise.
constexpr double kWallClockSlack = 0.1;

struct Gate {
  double time_tolerance = 0.25;
  int failures = 0;

  void fail(const std::string& where, const std::string& what) {
    std::fprintf(stderr, "GATE FAIL %s: %s\n", where.c_str(), what.c_str());
    ++failures;
  }
  void missing(const std::string& what) {
    std::fprintf(stderr, "GATE FAIL baseline is missing %s\n", what.c_str());
    ++failures;
  }
  void exact(const std::string& where, const Value& baseline,
             const Value* current) {
    if (current != nullptr && *current == baseline) return;
    fail(where, "value changed (baseline " + baseline.dump() + ", now " +
                    (current != nullptr ? current->dump() : "absent") + ")");
  }
  void wall_clock(const std::string& where, double baseline, double current) {
    const double limit = baseline * (1.0 + time_tolerance) + kWallClockSlack;
    if (current <= limit) return;
    fail(where, "time regressed (baseline " + qbp::format_double(baseline, 3) +
                    "s, limit " + qbp::format_double(limit, 3) + "s, now " +
                    qbp::format_double(current, 3) + "s)");
  }
};

/// A row member by dotted path ("qbp.final"); nullptr when absent.
const Value* field(const Value& row, std::string_view path) {
  const Value* value = &row;
  while (value != nullptr) {
    const std::size_t dot = path.find('.');
    value = value->find(path.substr(0, dot));
    if (dot == std::string_view::npos) break;
    path.remove_prefix(dot + 1);
  }
  return value;
}

bool same(const Value* a, const Value* b) {
  return a == nullptr || b == nullptr ? a == b : *a == *b;
}

std::string cell(const Value* value) {
  if (value == nullptr) return "";
  switch (value->kind()) {
    case Value::Kind::kBool:
      return value->as_bool() ? "yes" : "no";
    case Value::Kind::kNumber: {
      const double number = value->as_number();
      if (std::abs(number) < 1e15 && number == std::floor(number)) {
        return std::to_string(static_cast<long long>(number));
      }
      char text[32];
      std::snprintf(text, sizeof text, "%.4g", number);
      return text;
    }
    case Value::Kind::kString:
      return value->as_string();
    case Value::Kind::kArray: {
      std::string joined;
      for (std::size_t i = 0; i < value->size(); ++i) {
        if (i > 0) joined += ' ';
        joined += cell(&value->at(i));
      }
      return joined;
    }
    default:
      return value->dump();
  }
}

struct Suite {
  const char* name;
  const char* title;
  /// Run by `--suite all`.  serve, ablation and extensions run only when
  /// named: serve saturates the machine with worker pools, and the studies
  /// are nightly-sized.
  bool in_all;
  /// Fields whose values together identify a row; a key absent from both
  /// rows matches.
  std::vector<const char*> keys;
  /// Gated exactly against the baseline row.
  std::vector<const char*> exact;
  /// Gated as wall clock against the baseline row.
  std::vector<const char*> timed;
  /// Printed, never gated.
  std::vector<const char*> info;
  /// Print one table per value of this field (nullptr: one table).
  const char* group_by;
  Value (*run)(const RunnerConfig&);
  /// Gates that read the current rows alone.
  void (*check)(Gate&, const Suite&, const Value& rows, const RunnerConfig&);
};

std::string row_label(const Suite& suite, const Value& row) {
  std::string label = suite.name;
  for (const char* key : suite.keys) {
    const Value* value = row.find(key);
    if (value == nullptr) continue;
    label += '/';
    if (!value->is_string()) label += std::string(key) + "=";
    label += cell(value);
  }
  return label;
}

const Value* find_base_row(const Suite& suite, const Value& baseline,
                           const Value& row) {
  for (std::size_t i = 0; i < baseline.size(); ++i) {
    const Value& candidate = baseline.at(i);
    if (std::all_of(suite.keys.begin(), suite.keys.end(),
                    [&](const char* key) {
                      return same(candidate.find(key), row.find(key));
                    })) {
      return &candidate;
    }
  }
  return nullptr;
}

/// Every row against its baseline twin: exact fields must be equal, timed
/// fields within the wall-clock tolerance.  A field absent from both rows
/// is skipped (suites with several studies carry different fields per
/// row); absent from one of them, it fails.
void check_rows(Gate& gate, const Suite& suite, const Value& baseline,
                const Value& rows) {
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Value& row = rows.at(r);
    const std::string where = row_label(suite, row);
    const Value* base = find_base_row(suite, baseline, row);
    if (base == nullptr) {
      gate.missing(where);
      continue;
    }
    for (const char* name : suite.exact) {
      const Value* expected = field(*base, name);
      const Value* current = field(row, name);
      if (expected == nullptr && current == nullptr) continue;
      if (expected == nullptr) {
        gate.missing(where + "/" + name);
        continue;
      }
      gate.exact(where + "/" + name, *expected, current);
    }
    for (const char* name : suite.timed) {
      const Value* expected = field(*base, name);
      const Value* current = field(row, name);
      if (expected == nullptr && current == nullptr) continue;
      if (expected == nullptr || current == nullptr) {
        gate.missing(where + "/" + name);
        continue;
      }
      gate.wall_clock(where + "/" + name, expected->as_number(),
                      current->as_number());
    }
  }
}

/// First row matching every (field, value) pair.
const Value* find_row(
    const Value& rows,
    std::initializer_list<std::pair<const char*, Value>> match) {
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Value& row = rows.at(r);
    if (std::all_of(match.begin(), match.end(), [&](const auto& pair) {
          return same(row.find(pair.first), &pair.second);
        })) {
      return &row;
    }
  }
  return nullptr;
}

// With the speedup-ratio gate active (t1_seconds present), the threaded
// solve must reach the T=1 objective and may not be slower than T=1.
void check_scaling(Gate& gate, const Suite& suite, const Value& rows,
                   const RunnerConfig&) {
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Value& row = rows.at(r);
    const Value* t1_seconds = row.find("t1_seconds");
    if (t1_seconds == nullptr) continue;
    const std::string where = row_label(suite, row);
    gate.exact(where + "/final at T=1", *row.find("t1_final"),
               row.find("final"));
    const double seconds = row.get_number("seconds", 0.0);
    const double limit =
        kMaxSlowdownVsT1 * t1_seconds->as_number() + kWallClockSlack;
    if (seconds > limit) {
      gate.fail(where, "T=" + cell(row.find("threads")) + " took " +
                           qbp::format_double(seconds, 3) + "s, over " +
                           qbp::format_double(kMaxSlowdownVsT1, 2) +
                           "x the T=1 solve (" + cell(t1_seconds) + "s) + " +
                           qbp::format_double(kWallClockSlack, 1) + "s");
    }
  }
}

// The headline acceptance bound: at full scale a warm re-solve must land at
// <= 10% of the cold solve's latency.
void check_eco(Gate& gate, const Suite& suite, const Value& rows,
               const RunnerConfig& config) {
  if (config.smoke) return;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Value& row = rows.at(r);
    const double ratio = row.get_number("warm_ratio", 0.0);
    if (row.get_number("n", 0.0) >= 3200 && ratio > 0.10) {
      gate.fail(row_label(suite, row),
                "warm/cold ratio " + qbp::format_double(ratio, 3) +
                    " exceeds 0.10");
    }
  }
}

// `results_hash` must agree between the NDJSON and binary rows of every
// (scenario, workers) pair -- bit-identical results across framings -- and
// the binary framing must hold its throughput edge on the saturated
// exact-hit row (>= 3x NDJSON jobs/sec at one worker), measured from the
// current run so a stale baseline cannot satisfy it.
void check_serve(Gate& gate, const Suite& suite, const Value& rows,
                 const RunnerConfig&) {
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Value& row = rows.at(r);
    const std::string where = row_label(suite, row);
    if (!row.get_bool("ok", false)) {
      gate.fail(where, "replies were not all results");
    }
    if (row.get_string("framing") != "binary") continue;
    const Value* ndjson = find_row(rows, {{"scenario", *row.find("scenario")},
                                          {"framing", "ndjson"},
                                          {"workers", *row.find("workers")}});
    if (ndjson != nullptr &&
        !same(ndjson->find("results_hash"), row.find("results_hash"))) {
      gate.fail(where, "results diverge from the NDJSON row");
    }
  }
  const Value* exact_ndjson = find_row(
      rows, {{"scenario", "exact"}, {"framing", "ndjson"}, {"workers", 1}});
  const Value* exact_binary = find_row(
      rows, {{"scenario", "exact"}, {"framing", "binary"}, {"workers", 1}});
  if (exact_ndjson == nullptr || exact_binary == nullptr) {
    gate.missing("serve/exact w1 rows for the framing ratio");
    return;
  }
  const double ndjson_rate = exact_ndjson->get_number("jobs_per_sec", 0.0);
  const double binary_rate = exact_binary->get_number("jobs_per_sec", 0.0);
  if (binary_rate < 3.0 * ndjson_rate) {
    gate.fail("serve/exact/w1", "binary " + qbp::format_double(binary_rate, 0) +
                                    " jobs/s < 3x NDJSON " +
                                    qbp::format_double(ndjson_rate, 0) +
                                    " jobs/s");
  }
}

// The paper's prose claims, each checked on the current run:
//   penalty -- every penalty >= the paper's 50 leaves 0 violations (§3.2);
//   iters   -- the final is monotone non-increasing in the budget (§5);
//   init    -- every start strategy reaches a feasible solution (§5);
//   sparse  -- the implicit eta gather equals the dense reference and beats
//              it by >= kMinSparseSpeedup at every N (§4.3).
void check_ablation(Gate& gate, const Suite& suite, const Value& rows,
                    const RunnerConfig&) {
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Value& row = rows.at(r);
    const std::string study = row.get_string("study");
    const std::string where = row_label(suite, row);
    if (study == "penalty" &&
        row.get_number("penalty", 0.0) >= qbp::kPaperPenalty &&
        row.get_number("violations", -1.0) != 0.0) {
      gate.fail(where, "penalty left " + cell(row.find("violations")) +
                           " timing violations");
    }
    if (study == "init" && !row.get_bool("feasible", false)) {
      gate.fail(where, "start strategy never reached feasibility");
    }
    if (study == "sparse" && !row.get_bool("eta_equal", false)) {
      gate.fail(where, "sparse eta differs from the dense reference");
    }
    if (study == "sparse" &&
        row.get_number("speedup", 0.0) < kMinSparseSpeedup) {
      gate.fail(where, "sparse eta only " + cell(row.find("speedup")) +
                           "x faster than dense (needs " +
                           qbp::format_double(kMinSparseSpeedup, 0) + "x)");
    }
  }
  const Value* previous = nullptr;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Value* row = &rows.at(r);
    if (row->get_string("study") != "iters") continue;
    if (previous != nullptr &&
        previous->get_string("circuit") == row->get_string("circuit") &&
        row->get_number("final", 0.0) > previous->get_number("final", 0.0)) {
      gate.fail(row_label(suite, *row),
                "final " + cell(row->find("final")) + " is worse than " +
                    cell(previous->find("final")) + " at " +
                    previous->get_string("variant"));
    }
    previous = row;
  }
}

//   exact_gap -- no heuristic reports an objective below the proven optimum;
//   portfolio -- every thread count returns the T=1 objective and winning
//                start (the determinism contract).
void check_extensions(Gate& gate, const Suite& suite, const Value& rows,
                      const RunnerConfig&) {
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const Value& row = rows.at(r);
    const std::string study = row.get_string("study");
    const std::string where = row_label(suite, row);
    if (study == "exact_gap") {
      const double optimum = row.get_number("optimum", 0.0);
      for (const char* method : {"qbp", "gfm", "gkl"}) {
        const Value* objective = row.find(method);
        if (objective != nullptr && objective->as_number() < optimum) {
          gate.fail(where, std::string(method) + " reports " +
                               cell(objective) + ", below the proven optimum " +
                               cell(row.find("optimum")));
        }
      }
    }
    if (study == "portfolio") {
      const Value* t1 = find_row(rows, {{"study", "portfolio"},
                                        {"circuit", *row.find("circuit")},
                                        {"variant", "T=1"}});
      if (t1 == nullptr) {
        gate.fail(where, "no T=1 row to compare with");
      } else if (!same(t1->find("objective"), row.find("objective")) ||
                 !same(t1->find("best_start"), row.find("best_start"))) {
        gate.fail(where, "winner differs from T=1");
      }
    }
  }
}

const Suite kSuites[] = {
    {"table1", "circuit descriptions", true, {"circuit"},
     {"components", "wires", "timing_constraints"}, {"gen_seconds"}, {},
     nullptr, run_table1_suite, nullptr},
    {"table2", "Table II, no timing", true, {"circuit"},
     {"start", "qbp.final", "gfm.final", "gkl.final"},
     {"qbp.cpu_s", "gfm.cpu_s", "gkl.cpu_s"},
     {"qbp.improvement_pct", "gfm.improvement_pct", "gkl.improvement_pct"},
     nullptr,
     [](const RunnerConfig& config) { return run_table_suite(false, config); },
     nullptr},
    {"table3", "Table III, with timing", true, {"circuit"},
     {"start", "qbp.final", "gfm.final", "gkl.final"},
     {"qbp.cpu_s", "gfm.cpu_s", "gkl.cpu_s"},
     {"qbp.improvement_pct", "gfm.improvement_pct", "gkl.improvement_pct"},
     nullptr,
     [](const RunnerConfig& config) { return run_table_suite(true, config); },
     nullptr},
    {"scaling", "flat solve scaling", true, {"n"}, {"final"}, {"seconds"},
     {"iterations", "feasible", "t1_seconds"}, nullptr, run_scaling_suite,
     check_scaling},
    {"presolve", "reducible instances", true, {"n"},
     {"r0", "r1", "r2", "rn", "components_removed", "final_off", "final_on"},
     {"seconds_off", "seconds_on"}, {"reduction_pct", "presolve_seconds"},
     nullptr, run_presolve_suite, nullptr},
    {"eco", "warm-start serving", true, {"n"},
     {"cold_final", "exact_hit", "warm_hits", "warm_finals"},
     {"cold_seconds", "warm_p50_seconds"}, {"variants", "warm_ratio"}, nullptr,
     run_eco_suite, check_eco},
    {"vcycle", "multilevel", true, {"n"},
     {"final", "feasible", "levels", "level_sizes", "row_builds",
      "repair_moves"},
     {"seconds", "coarsen_seconds"}, {"kernel"}, nullptr, run_vcycle_suite,
     nullptr},
    {"serve", "wire framing throughput", false,
     {"scenario", "framing", "workers"},
     {"results_hash", "cache_hits", "warm_hits"}, {"seconds"},
     {"jobs", "jobs_per_sec", "ok"}, nullptr, run_serve_suite, check_serve},
    {"ablation", "the paper's prose claims", false,
     {"study", "circuit", "variant"},
     {"penalty", "provably_exact", "start", "start_feasible", "final",
      "feasible", "violations", "best_penalized", "mn", "nominal_nonzeros",
      "eta_equal"},
     {"seconds", "sparse_seconds", "dense_seconds"},
     {"dense_mib", "speedup"}, "study", run_ablation_suite, check_ablation},
    {"extensions", "SA, exact gaps, portfolio", false,
     {"study", "circuit", "variant"},
     {"start", "final", "accepted", "optimum", "nodes", "qbp", "gfm", "gkl",
      "objective", "feasible", "best_start"},
     {"seconds"}, {"starts", "seconds_total"}, "study", run_extensions_suite,
     check_extensions},
};

/// One table per `group_by` value (or one for the suite), with the key,
/// exact, info and timed fields that any of its rows carry.
void print_rows(const Suite& suite, const Value& rows) {
  std::vector<const char*> columns;
  for (const auto* list : {&suite.keys, &suite.exact, &suite.info,
                           &suite.timed}) {
    columns.insert(columns.end(), list->begin(), list->end());
  }
  std::vector<std::string> groups;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::string group =
        suite.group_by != nullptr ? rows.at(r).get_string(suite.group_by) : "";
    if (std::find(groups.begin(), groups.end(), group) == groups.end()) {
      groups.push_back(group);
    }
  }
  for (const std::string& group : groups) {
    std::vector<const Value*> members;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (suite.group_by == nullptr ||
          rows.at(r).get_string(suite.group_by) == group) {
        members.push_back(&rows.at(r));
      }
    }
    std::vector<const char*> shown;
    for (const char* column : columns) {
      const bool carried =
          std::any_of(members.begin(), members.end(), [&](const Value* row) {
            return field(*row, column) != nullptr;
          });
      if (carried && (suite.group_by == nullptr ||
                      std::strcmp(column, suite.group_by) != 0)) {
        shown.push_back(column);
      }
    }
    qbp::TextTable table(std::vector<std::string>(shown.begin(), shown.end()));
    std::vector<qbp::TextTable::Align> alignment;
    for (const char* column : shown) {
      const bool key = std::find(suite.keys.begin(), suite.keys.end(),
                                 column) != suite.keys.end();
      alignment.push_back(key ? qbp::TextTable::Align::kLeft
                              : qbp::TextTable::Align::kRight);
    }
    table.set_alignment(std::move(alignment));
    for (const Value* row : members) {
      std::vector<std::string> cells;
      for (const char* column : shown) cells.push_back(cell(field(*row, column)));
      table.add_row(std::move(cells));
    }
    std::printf("%s%s%s\n%s\n", suite.name, group.empty() ? "" : " / ",
                group.c_str(), table.render().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunnerConfig config;
  std::string json_path;
  std::string check_path;
  std::string suite_name = "all";
  std::string presolve_mode = "on";
  std::string simd_mode = "on";
  bool profile = false;
  bool list_suites = false;

  std::string suite_names;
  for (const Suite& suite : kSuites) suite_names += std::string(suite.name) + "|";
  suite_names += "all";

  qbp::CliParser cli("bench_runner",
                     "unified bench driver + CI regression gate");
  cli.add_flag("smoke", config.smoke,
               "reduced sizes/iterations for the CI gate");
  const std::string suite_help =
      suite_names +
      " (all = every solver suite; serve, ablation and extensions run only "
      "when named)";
  cli.add_string("suite", suite_name, suite_help);
  cli.add_flag("list-suites", list_suites,
               "print the valid --suite values and exit");
  cli.add_int("inner-threads", config.inner_threads,
              "threads inside each QBP solve (0 = all hardware); objectives "
              "are bit-identical at every value, so --check still applies");
  cli.add_string("presolve", presolve_mode,
                 "on | off: presolve before the QBP legs; bit-identical on "
                 "the standard suites, so --check holds in both modes");
  cli.add_string("simd", simd_mode,
                 "on | off: runtime-dispatched vector kernels; results are "
                 "bit-identical either way, so --check still applies");
  cli.add_string("json", json_path, "write machine-readable results here");
  cli.add_string("check", check_path,
                 "compare against this baseline JSON; exit 1 on regression");
  cli.add_double("time-tolerance", config.time_tolerance,
                 "relative wall-clock regression allowed by --check");
  cli.add_flag("profile", profile,
               "enable the phase profiler and report the breakdown");
  if (const auto exit_code = cli.run(argc, argv)) return *exit_code;

  if (list_suites) {
    for (const Suite& suite : kSuites) std::printf("%s\n", suite.name);
    std::printf("all\n");
    return 0;
  }
  if (presolve_mode != "on" && presolve_mode != "off") {
    std::fprintf(stderr, "--presolve must be on|off\n");
    return 2;
  }
  config.presolve = presolve_mode == "on";
  if (simd_mode != "on" && simd_mode != "off") {
    std::fprintf(stderr, "--simd must be on|off\n");
    return 2;
  }
  qbp::simd::set_enabled(simd_mode == "on");
  config.checking = !check_path.empty();

  std::vector<const Suite*> selected;
  for (const Suite& suite : kSuites) {
    if (suite_name == "all" ? suite.in_all : suite_name == suite.name) {
      selected.push_back(&suite);
    }
  }
  if (selected.empty()) {
    std::fprintf(stderr, "unknown --suite '%s' (valid suites: %s)\n",
                 suite_name.c_str(), suite_names.c_str());
    return 2;
  }

  if (profile) qbp::prof::set_enabled(true);

  std::printf("bench_runner: mode=%s suite=%s\n",
              config.smoke ? "smoke" : "full", suite_name.c_str());
  Value suites = Value::object();
  for (const Suite* suite : selected) {
    std::fprintf(stderr, "suite %s (%s)\n", suite->name, suite->title);
    Value rows = suite->run(config);
    print_rows(*suite, rows);
    suites.set(suite->name, std::move(rows));
  }

  Value out = Value::object();
  out.set("schema", 1);
  out.set("mode", config.smoke ? "smoke" : "full");
  out.set("inner_threads", config.inner_threads);
  out.set("suites", suites);
  if (profile) {
    const qbp::prof::PhaseReport phases = qbp::prof::snapshot();
    std::printf("%s\n", qbp::prof::to_string(phases).c_str());
    out.set("phases", qbp::prof::to_json(phases));
  }
  if (!qbp::write_bench_json(json_path, out)) return 1;

  if (check_path.empty()) return 0;

  Value baseline;
  std::string error;
  if (!qbp::json::read_json_file(check_path, baseline, &error)) {
    std::fprintf(stderr, "cannot read baseline: %s\n", error.c_str());
    return 1;
  }
  const Value* base_suites = baseline.find("suites");
  if (base_suites == nullptr) {
    std::fprintf(stderr, "baseline has no \"suites\" member\n");
    return 1;
  }
  if (baseline.get_string("mode") != (config.smoke ? "smoke" : "full")) {
    std::fprintf(stderr, "baseline mode '%s' does not match this run\n",
                 baseline.get_string("mode").c_str());
    return 1;
  }

  Gate gate;
  gate.time_tolerance = config.time_tolerance;
  for (const Suite* suite : selected) {
    const Value& rows = *suites.find(suite->name);
    if (const Value* base = base_suites->find(suite->name)) {
      check_rows(gate, *suite, *base, rows);
    } else {
      gate.missing(std::string("suite ") + suite->name);
    }
    if (suite->check != nullptr) suite->check(gate, *suite, rows, config);
  }

  if (gate.failures > 0) {
    std::fprintf(stderr, "bench gate: %d failure(s) vs %s\n", gate.failures,
                 check_path.c_str());
    return 1;
  }
  std::printf("bench gate: OK vs %s (time tolerance %.0f%% + 0.1s)\n",
              check_path.c_str(), gate.time_tolerance * 100.0);
  return 0;
}
