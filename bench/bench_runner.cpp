// Unified benchmark driver: runs every table/scaling experiment through
// bench_support/experiment with one machine-readable output format, and
// doubles as the CI bench-regression gate via --check.
//
//   bench_runner --suite all --json out.json          # full local baseline
//   bench_runner --smoke --json out.json --check bench/BENCH_smoke.json
//                                                    # ^ the CI gate
//   bench_runner --smoke --profile                    # phase breakdown
//
// JSON schema (schema = 1):
//   { "schema": 1, "mode": "smoke"|"full", "inner_threads": K,
//     "suites": { "table1": [{"circuit","components","wires",
//                             "timing_constraints","gen_seconds",...}...],
//                 "table2": [row...], "table3": [row...],
//                 "scaling": [{"n","wires","constraints","iterations",
//                              "threads","seconds","ms_per_iter",
//                              "final","feasible"}...] },
//     "phases": { "<phase>": {"seconds","count"}, ... } }     (--profile)
//
// --check BASELINE compares the current run against a baseline produced by
// the same mode: objective values (start / per-method final / scaling final)
// must match EXACTLY -- the solver is deterministic, so any drift means the
// algorithm changed -- and wall-clock must satisfy
//   new <= old * (1 + time_tolerance) + 0.1 s
// (the absolute slack keeps sub-100ms smoke timings from tripping on noise).
// With --inner-threads above 1 on a host with at least 4 hardware threads,
// a full-mode --check of the scaling suite also solves each row at T=1 and
// fails when the threaded wall exceeds 1.15x the T=1 wall + 0.1 s (a
// speedup-ratio gate: threading must not cost time); on smaller hosts it
// prints a skip line.
#include <algorithm>
#include <cstdio>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_support/circuits.hpp"
#include "bench_support/eco_stream.hpp"
#include "bench_support/experiment.hpp"
#include "bench_support/serve_bench.hpp"
#include "core/burkard.hpp"
#include "core/initial.hpp"
#include "core/multilevel.hpp"
#include "core/problem_io.hpp"
#include "service/cache.hpp"
#include "service/job.hpp"
#include "netlist/stats.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"
#include "util/prof.hpp"
#include "util/simd.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

struct RunnerConfig {
  bool smoke = false;
  double time_tolerance = 0.25;
  std::int64_t inner_threads = 1;
  /// Presolve before the QBP legs.  The standard circuits have no reducible
  /// structure, so on/off runs are bit-identical there and --check works
  /// against one shared baseline in both modes.
  bool presolve = true;
};

// "serve" is deliberately NOT part of "all": it spins up multi-worker
// servers and measures saturated throughput, which would perturb (and be
// perturbed by) the solver suites sharing the machine.  CI runs it as its
// own bench-gate step against bench/BENCH_serve.json.
constexpr const char* kSuiteNames[] = {"table1",   "table2", "table3",
                                       "scaling",  "presolve", "eco",
                                       "vcycle",   "serve",  "all"};

struct ScalingRow {
  std::int32_t n = 0;
  std::int64_t wires = 0;
  std::int64_t constraints = 0;
  std::int32_t iterations = 0;
  std::int32_t threads = 1;
  double seconds = 0.0;
  double ms_per_iter = 0.0;
  double final_cost = 0.0;
  bool feasible = false;
  /// The same solve at one thread (timed only for the speedup-ratio gate;
  /// t1_seconds < 0 when not run).
  double t1_seconds = -1.0;
  double t1_final_cost = 0.0;
};

std::vector<qbp::ExperimentRow> run_table_suite(bool with_timing,
                                                const RunnerConfig& config) {
  qbp::ExperimentConfig experiment;
  std::vector<std::string> circuits;
  experiment.inner_threads = static_cast<std::int32_t>(config.inner_threads);
  experiment.presolve.enabled = config.presolve;
  if (config.smoke) {
    experiment.qbp_iterations = 30;
    experiment.gkl_outer_loops = 3;
    circuits = {"cktb"};
  } else {
    for (const auto& preset : qbp::shihkuh_presets())
      circuits.push_back(preset.name);
  }

  std::vector<qbp::ExperimentRow> rows;
  for (const auto& name : circuits) {
    const qbp::CircuitPreset* preset = qbp::find_preset(name);
    const auto instance = qbp::make_circuit(*preset);
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
  return rows;
}

/// With `time_t1`, every row is solved a second time at one thread right
/// after its timed solve, so the speedup-ratio gate compares runs taken
/// under the same host conditions.
std::vector<ScalingRow> run_scaling_suite(const RunnerConfig& config,
                                          bool time_t1) {
  const std::vector<std::int32_t> sizes =
      config.smoke ? std::vector<std::int32_t>{200, 400}
                   : std::vector<std::int32_t>{200, 400, 800, 1600, 3200};
  const std::int32_t iterations = config.smoke ? 10 : 30;

  std::vector<ScalingRow> rows;
  for (const std::int32_t n : sizes) {
    const auto problem = qbp::make_scaling_problem(n, 7);
    const auto initial = qbp::make_initial(
        problem, qbp::InitialStrategy::kQbpZeroWireCost, 7);
    const double start = problem.wirelength(initial.assignment);

    qbp::BurkardOptions options;
    options.iterations = iterations;
    options.inner_threads = static_cast<std::int32_t>(config.inner_threads);
    options.presolve.enabled = config.presolve;
    const auto final_cost = [&](const qbp::BurkardResult& result) {
      return result.found_feasible ? problem.wirelength(result.best_feasible)
                                   : start;
    };
    const qbp::Timer timer;
    const auto result = qbp::solve_qbp(problem, initial.assignment, options);

    ScalingRow row;
    row.n = n;
    row.wires = problem.netlist().total_wires();
    row.constraints = problem.timing().count();
    row.iterations = result.iterations_run;
    row.threads = static_cast<std::int32_t>(config.inner_threads);
    row.seconds = timer.seconds();
    row.ms_per_iter = result.iterations_run > 0
                          ? row.seconds * 1000.0 / result.iterations_run
                          : 0.0;
    row.feasible = result.found_feasible;
    row.final_cost = final_cost(result);
    if (time_t1) {
      options.inner_threads = 1;
      const qbp::Timer t1_timer;
      const auto t1_result =
          qbp::solve_qbp(problem, initial.assignment, options);
      row.t1_seconds = t1_timer.seconds();
      row.t1_final_cost = final_cost(t1_result);
    }
    rows.push_back(row);
    std::fprintf(stderr, "  N=%d done (%.2fs)\n", n, row.seconds);
  }
  return rows;
}

// Presolve suite: reducible scaling instances (make_presolve_problem),
// solved once with presolve off and once with presolve on.  Rows report the
// reduction-rule counters (exact-gated: the reducer is deterministic) plus
// both solve times, so the baseline pins the speedup presolve buys.
struct PresolveRow {
  std::int32_t n = 0;
  qbp::PresolveStats stats;
  double reduction_pct = 0.0;
  double seconds_off = 0.0;
  double seconds_on = 0.0;
  double final_off = 0.0;  // feasible objective, or penalized value
  double final_on = 0.0;
  bool feasible_off = false;
  bool feasible_on = false;
};

std::vector<PresolveRow> run_presolve_suite(const RunnerConfig& config) {
  const std::vector<std::int32_t> sizes =
      config.smoke ? std::vector<std::int32_t>{200, 400}
                   : std::vector<std::int32_t>{200, 400, 800, 1600, 3200};
  const std::int32_t iterations = config.smoke ? 10 : 30;

  std::vector<PresolveRow> rows;
  for (const std::int32_t n : sizes) {
    const auto problem = qbp::make_presolve_problem(n, 7);
    const auto initial = qbp::make_initial(
        problem, qbp::InitialStrategy::kQbpZeroWireCost, 7);

    PresolveRow row;
    row.n = n;
    row.stats = qbp::presolve(problem).stats;
    row.reduction_pct = 100.0 * row.stats.components_removed / n;

    qbp::BurkardOptions options;
    options.iterations = iterations;
    options.inner_threads = static_cast<std::int32_t>(config.inner_threads);
    const auto record = [&](double& seconds, double& final_cost,
                            bool& feasible) {
      const qbp::Timer timer;
      const auto result = qbp::solve_qbp(problem, initial.assignment, options);
      seconds = timer.seconds();
      feasible = result.found_feasible;
      final_cost = result.found_feasible ? result.best_feasible_objective
                                         : result.best_penalized;
    };
    record(row.seconds_off, row.final_off, row.feasible_off);
    options.presolve.enabled = true;
    record(row.seconds_on, row.final_on, row.feasible_on);

    rows.push_back(row);
    std::fprintf(stderr, "  N=%d done (off %.2fs, on %.2fs, -%d comps)\n", n,
                 row.seconds_off, row.seconds_on,
                 row.stats.components_removed);
  }
  return rows;
}

// Eco suite: warm-start serving latency.  Each N runs the service job layer
// against a private SolutionCache: one cold solve (inserted), one exact
// re-submission (must come back as a bit-identical cache hit), then a short
// stream of ECO-perturbed variants (bench_support/eco_stream) that should
// be answered by the warm re-solve path.  Everything here is deterministic
// -- the cache is driven by a scripted sequence -- so finals are
// exact-gated; the headline number is warm_p50 / cold.
struct EcoRow {
  std::int32_t n = 0;
  double cold_seconds = 0.0;
  double cold_final = 0.0;
  bool exact_hit = false;     // exact re-submit hit + bit-identical payload
  std::int32_t variants = 0;  // perturbed re-submissions issued
  std::int32_t warm_hits = 0;  // of those, answered via the warm path
  std::vector<double> warm_finals;  // per-variant objective, exact-gated
  double warm_p50_seconds = 0.0;
  double warm_ratio = 0.0;  // warm_p50 / cold_seconds
};

std::vector<EcoRow> run_eco_suite(const RunnerConfig& config) {
  const std::vector<std::int32_t> sizes =
      config.smoke ? std::vector<std::int32_t>{200, 400}
                   : std::vector<std::int32_t>{800, 3200};
  // Enough work that the single-start cold solve lands feasible at every
  // size (the suite's exact-hit and warm-start checks need an "ok" cold);
  // smoke leans on extra starts instead of iterations to stay quick.
  const std::int32_t iterations = config.smoke ? 10 : 100;
  const std::int32_t starts = config.smoke ? 4 : 1;
  constexpr std::int32_t kVariants = 5;

  std::vector<EcoRow> rows;
  for (const std::int32_t n : sizes) {
    const auto base = qbp::make_scaling_problem(n, 7);
    qbp::service::SolutionCache cache(16);

    qbp::service::Job job;
    job.solver.method = "qbp";
    job.solver.starts = starts;
    job.solver.iterations = iterations;
    job.solver.seed = 7;
    job.solver.inner_threads =
        static_cast<std::int32_t>(config.inner_threads);
    // Explicit so the spec fingerprint is independent of the build's
    // validation default; the warm path re-validates on its own anyway.
    job.solver.validate = false;
    {
      std::ostringstream out;
      qbp::write_problem(out, base);
      job.problem_text = out.str();
    }

    EcoRow row;
    row.n = n;

    job.id = "cold";
    const qbp::Timer cold_timer;
    const auto cold = qbp::service::run_job(job, &cache);
    row.cold_seconds = cold_timer.seconds();
    row.cold_final = cold.objective;

    job.id = "exact";
    const auto exact = qbp::service::run_job(job, &cache);
    row.exact_hit = exact.cache_hit && exact.status == cold.status &&
                    exact.objective == cold.objective &&
                    exact.assignment == cold.assignment;

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
      ++row.variants;
      row.warm_finals.push_back(warm.objective);
      if (warm.warm_start) {
        ++row.warm_hits;
        warm_times.push_back(seconds);
      }
    }
    if (!warm_times.empty()) {
      std::sort(warm_times.begin(), warm_times.end());
      row.warm_p50_seconds = warm_times[warm_times.size() / 2];
    }
    row.warm_ratio = row.cold_seconds > 0.0
                         ? row.warm_p50_seconds / row.cold_seconds
                         : 0.0;
    rows.push_back(row);
    std::fprintf(stderr,
                 "  N=%d done (cold %.2fs, warm p50 %.3fs, ratio %.3f, "
                 "%d/%d warm)\n",
                 n, row.cold_seconds, row.warm_p50_seconds, row.warm_ratio,
                 row.warm_hits, row.variants);
  }
  return rows;
}

// V-cycle suite: the multilevel solver at sizes the flat heuristic cannot
// touch (N up to 100k).  Everything is deterministic -- the hierarchy, the
// coarsest solve and every refinement pass are bit-identical at any
// inner-thread count and with the SIMD kernels on or off -- so the final
// objective, feasibility, level count and per-level sizes are all
// exact-gated; wall clock (total and the coarsening share) gets the usual
// tolerance.  This is the CI scaling gate: a re-run with --inner-threads 2
// or --simd off must pass --check against the same baseline.
struct VcycleRow {
  std::int32_t n = 0;
  std::int64_t wires = 0;
  std::int64_t constraints = 0;
  std::int32_t levels = 0;
  std::vector<std::int32_t> level_sizes;
  std::int32_t threads = 1;
  double coarsen_seconds = 0.0;
  double seconds = 0.0;
  double final_cost = 0.0;  // feasible wirelength, or penalized value
  bool feasible = false;
};

std::vector<VcycleRow> run_vcycle_suite(const RunnerConfig& config) {
  const std::vector<std::int32_t> sizes =
      config.smoke ? std::vector<std::int32_t>{10000}
                   : std::vector<std::int32_t>{10000, 30000, 100000};

  std::vector<VcycleRow> rows;
  for (const std::int32_t n : sizes) {
    const auto problem = qbp::make_scaling_problem(n, 7);
    // A plain random seed: at V-cycle scale the hierarchy owns solution
    // quality, and the QBP zero-wire-cost start would cost more than the
    // whole solve.
    const auto initial =
        qbp::make_initial(problem, qbp::InitialStrategy::kRandom, 7);

    qbp::MultilevelOptions options;
    options.coarsen.inner_threads =
        static_cast<std::int32_t>(config.inner_threads);
    options.coarse_solver.inner_threads =
        static_cast<std::int32_t>(config.inner_threads);
    options.refine_solver.inner_threads =
        static_cast<std::int32_t>(config.inner_threads);
    options.presolve.enabled = config.presolve;

    const qbp::Timer timer;
    const auto result =
        qbp::solve_qbp_multilevel(problem, initial.assignment, options);

    VcycleRow row;
    row.n = n;
    row.wires = problem.netlist().total_wires();
    row.constraints = problem.timing().count();
    row.levels = result.levels_used;
    row.level_sizes = result.level_sizes;
    row.threads = static_cast<std::int32_t>(config.inner_threads);
    row.coarsen_seconds = result.coarsen_seconds;
    row.seconds = timer.seconds();
    row.feasible = result.finest.found_feasible;
    row.final_cost = result.finest.found_feasible
                         ? problem.wirelength(result.finest.best_feasible)
                         : result.finest.best_penalized;
    rows.push_back(row);
    std::fprintf(stderr,
                 "  N=%d done (%.2fs, coarsen %.2fs, %d levels, kernel %s)\n",
                 n, row.seconds, row.coarsen_seconds, row.levels,
                 qbp::simd::active_kernel());
  }
  return rows;
}

qbp::json::Value vcycle_to_json(const std::vector<VcycleRow>& rows) {
  qbp::json::Value out = qbp::json::Value::array();
  for (const auto& row : rows) {
    qbp::json::Value entry = qbp::json::Value::object();
    entry.set("n", static_cast<std::int64_t>(row.n));
    entry.set("wires", row.wires);
    entry.set("constraints", row.constraints);
    entry.set("levels", static_cast<std::int64_t>(row.levels));
    qbp::json::Value sizes = qbp::json::Value::array();
    for (const std::int32_t size : row.level_sizes) {
      sizes.push_back(static_cast<std::int64_t>(size));
    }
    entry.set("level_sizes", std::move(sizes));
    entry.set("threads", static_cast<std::int64_t>(row.threads));
    entry.set("kernel", std::string(qbp::simd::active_kernel()));
    entry.set("coarsen_seconds", row.coarsen_seconds);
    entry.set("seconds", row.seconds);
    entry.set("final", row.final_cost);
    entry.set("feasible", row.feasible);
    out.push_back(std::move(entry));
  }
  return out;
}

qbp::json::Value eco_to_json(const std::vector<EcoRow>& rows) {
  qbp::json::Value out = qbp::json::Value::array();
  for (const auto& row : rows) {
    qbp::json::Value entry = qbp::json::Value::object();
    entry.set("n", static_cast<std::int64_t>(row.n));
    entry.set("cold_seconds", row.cold_seconds);
    entry.set("cold_final", row.cold_final);
    entry.set("exact_hit", row.exact_hit);
    entry.set("variants", static_cast<std::int64_t>(row.variants));
    entry.set("warm_hits", static_cast<std::int64_t>(row.warm_hits));
    qbp::json::Value finals = qbp::json::Value::array();
    for (const double final_cost : row.warm_finals) {
      finals.push_back(final_cost);
    }
    entry.set("warm_finals", std::move(finals));
    entry.set("warm_p50_seconds", row.warm_p50_seconds);
    entry.set("warm_ratio", row.warm_ratio);
    out.push_back(std::move(entry));
  }
  return out;
}

qbp::json::Value presolve_to_json(const std::vector<PresolveRow>& rows) {
  qbp::json::Value out = qbp::json::Value::array();
  for (const auto& row : rows) {
    qbp::json::Value entry = qbp::json::Value::object();
    entry.set("n", static_cast<std::int64_t>(row.n));
    entry.set("r0", static_cast<std::int64_t>(row.stats.r0));
    entry.set("r1", static_cast<std::int64_t>(row.stats.r1));
    entry.set("r2", static_cast<std::int64_t>(row.stats.r2));
    entry.set("rn", static_cast<std::int64_t>(row.stats.rn));
    entry.set("components_removed",
              static_cast<std::int64_t>(row.stats.components_removed));
    entry.set("reduction_pct", row.reduction_pct);
    entry.set("presolve_seconds", row.stats.seconds);
    entry.set("seconds_off", row.seconds_off);
    entry.set("seconds_on", row.seconds_on);
    entry.set("final_off", row.final_off);
    entry.set("final_on", row.final_on);
    entry.set("feasible_off", row.feasible_off);
    entry.set("feasible_on", row.feasible_on);
    out.push_back(std::move(entry));
  }
  return out;
}

// Table I rows: structural circuit descriptions (no solving).  The gate
// treats the counts like objectives -- generation is deterministic, so any
// drift means the synthesis changed -- and the generation time like
// wall-clock.
qbp::json::Value run_table1_suite(const RunnerConfig& config) {
  std::vector<std::string> circuits;
  if (config.smoke) {
    circuits = {"cktb"};
  } else {
    for (const auto& preset : qbp::shihkuh_presets())
      circuits.push_back(preset.name);
  }

  qbp::json::Value rows = qbp::json::Value::array();
  qbp::TextTable table({"ckt", "components", "wires", "timing constraints",
                        "gen time (s)"});
  for (const auto& name : circuits) {
    const qbp::Timer timer;
    const auto instance = qbp::make_circuit(*qbp::find_preset(name));
    const double gen_seconds = timer.seconds();
    const auto stats = qbp::compute_stats(instance.problem.netlist());

    table.add_row({name, std::to_string(stats.num_components),
                   std::to_string(stats.total_wires),
                   std::to_string(instance.problem.timing().count()),
                   qbp::format_double(gen_seconds, 2)});
    qbp::json::Value entry = qbp::json::Value::object();
    entry.set("circuit", name);
    entry.set("components", stats.num_components);
    entry.set("wires", static_cast<std::int64_t>(stats.total_wires));
    entry.set("timing_constraints",
              static_cast<std::int64_t>(instance.problem.timing().count()));
    entry.set("size_ratio", stats.size_ratio);
    entry.set("avg_degree", stats.avg_degree);
    entry.set("gen_seconds", gen_seconds);
    rows.push_back(std::move(entry));
    std::fprintf(stderr, "  %s done\n", name.c_str());
  }
  std::printf("%s\n", table.render().c_str());
  return rows;
}

// Serve suite (bench_support/serve_bench): saturated qbpartd throughput
// under both edge framings.  Smoke shrinks the problem and batch sizes.
std::vector<qbp::ServeRow> run_serve_suite(const RunnerConfig& config) {
  qbp::ServeBenchConfig serve;
  serve.inner_threads = static_cast<std::int32_t>(config.inner_threads);
  if (config.smoke) {
    serve.n = 200;
    serve.jobs = 24;
    serve.warm_jobs = 8;
  }
  return qbp::run_serve_bench(serve);
}

qbp::json::Value serve_to_json(const std::vector<qbp::ServeRow>& rows) {
  qbp::json::Value out = qbp::json::Value::array();
  for (const auto& row : rows) {
    qbp::json::Value entry = qbp::json::Value::object();
    entry.set("scenario", row.scenario);
    entry.set("framing", row.framing);
    entry.set("workers", static_cast<std::int64_t>(row.workers));
    entry.set("jobs", static_cast<std::int64_t>(row.jobs));
    entry.set("seconds", row.seconds);
    entry.set("jobs_per_sec", row.jobs_per_sec);
    entry.set("results_hash", row.results_hash);
    entry.set("cache_hits", static_cast<std::int64_t>(row.cache_hits));
    entry.set("warm_hits", static_cast<std::int64_t>(row.warm_hits));
    entry.set("ok", row.ok);
    out.push_back(std::move(entry));
  }
  return out;
}

qbp::json::Value scaling_to_json(const std::vector<ScalingRow>& rows) {
  qbp::json::Value out = qbp::json::Value::array();
  for (const auto& row : rows) {
    qbp::json::Value entry = qbp::json::Value::object();
    entry.set("n", static_cast<std::int64_t>(row.n));
    entry.set("wires", row.wires);
    entry.set("constraints", row.constraints);
    entry.set("iterations", static_cast<std::int64_t>(row.iterations));
    entry.set("threads", static_cast<std::int64_t>(row.threads));
    entry.set("seconds", row.seconds);
    entry.set("ms_per_iter", row.ms_per_iter);
    entry.set("final", row.final_cost);
    entry.set("feasible", row.feasible);
    out.push_back(std::move(entry));
  }
  return out;
}

// --- baseline comparison ---------------------------------------------------

/// Absolute slack on every wall-clock gate, so sub-100ms timings do not trip
/// on noise.
constexpr double kWallClockSlack = 0.1;

struct Gate {
  double time_tolerance = 0.25;
  int failures = 0;

  void objective(const std::string& where, double baseline, double current) {
    if (baseline == current) return;
    std::fprintf(stderr,
                 "GATE FAIL %s: objective changed (baseline %.6f, now %.6f)\n",
                 where.c_str(), baseline, current);
    ++failures;
  }
  void wall_clock(const std::string& where, double baseline, double current) {
    const double limit = baseline * (1.0 + time_tolerance) + kWallClockSlack;
    if (current <= limit) return;
    std::fprintf(stderr,
                 "GATE FAIL %s: time regressed (baseline %.3fs, limit %.3fs, "
                 "now %.3fs)\n",
                 where.c_str(), baseline, limit, current);
    ++failures;
  }
  void missing(const std::string& what) {
    std::fprintf(stderr, "GATE FAIL baseline is missing %s\n", what.c_str());
    ++failures;
  }
};

void check_table_suite(Gate& gate, const std::string& suite,
                       const qbp::json::Value& baseline,
                       const std::vector<qbp::ExperimentRow>& rows) {
  for (const auto& row : rows) {
    const qbp::json::Value* base_row = nullptr;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      if (baseline.at(i).get_string("circuit") == row.circuit) {
        base_row = &baseline.at(i);
        break;
      }
    }
    const std::string where = suite + "/" + row.circuit;
    if (base_row == nullptr) {
      gate.missing(where);
      continue;
    }
    gate.objective(where + "/start", base_row->get_number("start", -1.0),
                   row.start_cost);
    const auto method = [&](const char* name,
                            const qbp::MethodOutcome& outcome) {
      const qbp::json::Value* cell = base_row->find(name);
      if (cell == nullptr) {
        gate.missing(where + "/" + name);
        return;
      }
      gate.objective(where + "/" + name + "/final",
                     cell->get_number("final", -1.0), outcome.final_cost);
      gate.wall_clock(where + "/" + name + "/cpu_s",
                      cell->get_number("cpu_s", 0.0), outcome.cpu_seconds);
    };
    method("qbp", row.qbp);
    method("gfm", row.gfm);
    method("gkl", row.gkl);
  }
}

void check_table1_suite(Gate& gate, const qbp::json::Value& baseline,
                        const qbp::json::Value& rows) {
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const qbp::json::Value& row = rows.at(r);
    const std::string circuit = row.get_string("circuit");
    const qbp::json::Value* base_row = nullptr;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      if (baseline.at(i).get_string("circuit") == circuit) {
        base_row = &baseline.at(i);
        break;
      }
    }
    const std::string where = "table1/" + circuit;
    if (base_row == nullptr) {
      gate.missing(where);
      continue;
    }
    for (const char* field : {"components", "wires", "timing_constraints"}) {
      gate.objective(where + "/" + field, base_row->get_number(field, -1.0),
                     row.get_number(field, -2.0));
    }
    gate.wall_clock(where + "/gen_seconds",
                    base_row->get_number("gen_seconds", 0.0),
                    row.get_number("gen_seconds", 0.0));
  }
}

void check_presolve_suite(Gate& gate, const qbp::json::Value& baseline,
                          const std::vector<PresolveRow>& rows) {
  for (const auto& row : rows) {
    const qbp::json::Value* base_row = nullptr;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      if (static_cast<std::int32_t>(baseline.at(i).get_number("n", -1.0)) ==
          row.n) {
        base_row = &baseline.at(i);
        break;
      }
    }
    const std::string where = "presolve/N=" + std::to_string(row.n);
    if (base_row == nullptr) {
      gate.missing(where);
      continue;
    }
    // The reducer is deterministic: counter drift means the rules changed.
    gate.objective(where + "/r0", base_row->get_number("r0", -1.0), row.stats.r0);
    gate.objective(where + "/r1", base_row->get_number("r1", -1.0), row.stats.r1);
    gate.objective(where + "/r2", base_row->get_number("r2", -1.0), row.stats.r2);
    gate.objective(where + "/rn", base_row->get_number("rn", -1.0), row.stats.rn);
    gate.objective(where + "/components_removed",
                   base_row->get_number("components_removed", -1.0),
                   row.stats.components_removed);
    gate.objective(where + "/final_off",
                   base_row->get_number("final_off", -1.0), row.final_off);
    gate.objective(where + "/final_on", base_row->get_number("final_on", -1.0),
                   row.final_on);
    gate.wall_clock(where + "/seconds_off",
                    base_row->get_number("seconds_off", 0.0), row.seconds_off);
    gate.wall_clock(where + "/seconds_on",
                    base_row->get_number("seconds_on", 0.0), row.seconds_on);
  }
}

void check_eco_suite(Gate& gate, const qbp::json::Value& baseline,
                     const std::vector<EcoRow>& rows, bool smoke) {
  for (const auto& row : rows) {
    const qbp::json::Value* base_row = nullptr;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      if (static_cast<std::int32_t>(baseline.at(i).get_number("n", -1.0)) ==
          row.n) {
        base_row = &baseline.at(i);
        break;
      }
    }
    const std::string where = "eco/N=" + std::to_string(row.n);
    if (base_row == nullptr) {
      gate.missing(where);
      continue;
    }
    // The scripted cache sequence is deterministic end to end, so the cold
    // objective, the exact-hit guarantee, which variants warm-start and
    // every warm final are all exact-gated.
    gate.objective(where + "/cold_final",
                   base_row->get_number("cold_final", -1.0), row.cold_final);
    gate.objective(where + "/exact_hit",
                   base_row->get_bool("exact_hit", false) ? 1.0 : 0.0,
                   row.exact_hit ? 1.0 : 0.0);
    gate.objective(where + "/warm_hits",
                   base_row->get_number("warm_hits", -1.0), row.warm_hits);
    const qbp::json::Value* finals = base_row->find("warm_finals");
    if (finals == nullptr || finals->size() != row.warm_finals.size()) {
      gate.missing(where + "/warm_finals");
    } else {
      for (std::size_t v = 0; v < row.warm_finals.size(); ++v) {
        gate.objective(where + "/warm_finals[" + std::to_string(v) + "]",
                       finals->at(v).as_number(-1.0), row.warm_finals[v]);
      }
    }
    gate.wall_clock(where + "/cold_seconds",
                    base_row->get_number("cold_seconds", 0.0),
                    row.cold_seconds);
    gate.wall_clock(where + "/warm_p50_seconds",
                    base_row->get_number("warm_p50_seconds", 0.0),
                    row.warm_p50_seconds);
    // The headline acceptance bound: at full scale a warm re-solve must
    // land at <= 10% of the cold solve's latency.
    if (!smoke && row.n >= 3200 && row.warm_ratio > 0.10) {
      std::fprintf(stderr,
                   "GATE FAIL %s: warm/cold ratio %.3f exceeds 0.10\n",
                   where.c_str(), row.warm_ratio);
      ++gate.failures;
    }
  }
}

void check_vcycle_suite(Gate& gate, const qbp::json::Value& baseline,
                        const std::vector<VcycleRow>& rows) {
  for (const auto& row : rows) {
    const qbp::json::Value* base_row = nullptr;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      if (static_cast<std::int32_t>(baseline.at(i).get_number("n", -1.0)) ==
          row.n) {
        base_row = &baseline.at(i);
        break;
      }
    }
    const std::string where = "vcycle/N=" + std::to_string(row.n);
    if (base_row == nullptr) {
      gate.missing(where);
      continue;
    }
    // The whole V-cycle is deterministic, so objective, feasibility and the
    // hierarchy's exact shape are gated without tolerance.  Note "kernel" is
    // deliberately NOT gated: it records which SIMD path ran (machine- and
    // flag-dependent) while the objectives it produces must not move.
    gate.objective(where + "/final", base_row->get_number("final", -1.0),
                   row.final_cost);
    gate.objective(where + "/feasible",
                   base_row->get_bool("feasible", false) ? 1.0 : 0.0,
                   row.feasible ? 1.0 : 0.0);
    gate.objective(where + "/levels", base_row->get_number("levels", -1.0),
                   row.levels);
    const qbp::json::Value* sizes = base_row->find("level_sizes");
    if (sizes == nullptr || sizes->size() != row.level_sizes.size()) {
      gate.missing(where + "/level_sizes");
    } else {
      for (std::size_t k = 0; k < row.level_sizes.size(); ++k) {
        gate.objective(where + "/level_sizes[" + std::to_string(k) + "]",
                       sizes->at(k).as_number(-1.0), row.level_sizes[k]);
      }
    }
    gate.wall_clock(where + "/seconds", base_row->get_number("seconds", 0.0),
                    row.seconds);
    gate.wall_clock(where + "/coarsen_seconds",
                    base_row->get_number("coarsen_seconds", 0.0),
                    row.coarsen_seconds);
  }
}

// Serve gate.  `results_hash` is the acceptance contract in one number:
// within the current run it must agree between the NDJSON and binary rows
// of every (scenario, workers) pair -- bit-identical results across
// framings and worker counts -- and against the baseline it pins the
// payloads over time.  Wall clock gets the usual tolerance, and the binary
// framing must hold its throughput edge on the saturated exact-hit row
// (>= 3x NDJSON jobs/sec at one worker), measured from the current run so
// the gate cannot be satisfied by a stale baseline.
void check_serve_suite(Gate& gate, const qbp::json::Value& baseline,
                       const std::vector<qbp::ServeRow>& rows) {
  const auto find_row =
      [&rows](const std::string& scenario, const std::string& framing,
              std::int32_t workers) -> const qbp::ServeRow* {
    for (const auto& row : rows) {
      if (row.scenario == scenario && row.framing == framing &&
          row.workers == workers) {
        return &row;
      }
    }
    return nullptr;
  };

  for (const auto& row : rows) {
    const std::string where = "serve/" + row.scenario + "/" + row.framing +
                              "/w" + std::to_string(row.workers);
    if (!row.ok) {
      std::fprintf(stderr, "GATE FAIL %s: replies were not all results\n",
                   where.c_str());
      ++gate.failures;
    }
    if (row.framing == "binary") {
      const qbp::ServeRow* ndjson =
          find_row(row.scenario, "ndjson", row.workers);
      if (ndjson != nullptr && ndjson->results_hash != row.results_hash) {
        std::fprintf(stderr,
                     "GATE FAIL %s: results diverge from the NDJSON row\n",
                     where.c_str());
        ++gate.failures;
      }
    }

    const qbp::json::Value* base_row = nullptr;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      const qbp::json::Value& candidate = baseline.at(i);
      if (candidate.get_string("scenario") == row.scenario &&
          candidate.get_string("framing") == row.framing &&
          static_cast<std::int32_t>(candidate.get_number("workers", -1.0)) ==
              row.workers) {
        base_row = &candidate;
        break;
      }
    }
    if (base_row == nullptr) {
      gate.missing(where);
      continue;
    }
    if (base_row->get_string("results_hash") != row.results_hash) {
      std::fprintf(stderr, "GATE FAIL %s: results_hash changed\n",
                   where.c_str());
      ++gate.failures;
    }
    // Deterministic cache behaviour: the exact scenario must stay
    // all-hits, the warm scenario must keep warm-starting.
    gate.objective(where + "/cache_hits",
                   base_row->get_number("cache_hits", -1.0), row.cache_hits);
    gate.objective(where + "/warm_hits",
                   base_row->get_number("warm_hits", -1.0), row.warm_hits);
    gate.wall_clock(where + "/seconds", base_row->get_number("seconds", 0.0),
                    row.seconds);
  }

  const qbp::ServeRow* exact_ndjson = find_row("exact", "ndjson", 1);
  const qbp::ServeRow* exact_binary = find_row("exact", "binary", 1);
  if (exact_ndjson == nullptr || exact_binary == nullptr) {
    gate.missing("serve/exact w1 rows for the framing ratio");
  } else if (exact_binary->jobs_per_sec <
             3.0 * exact_ndjson->jobs_per_sec) {
    std::fprintf(stderr,
                 "GATE FAIL serve/exact/w1: binary %.0f jobs/s < 3x NDJSON "
                 "%.0f jobs/s\n",
                 exact_binary->jobs_per_sec, exact_ndjson->jobs_per_sec);
    ++gate.failures;
  }
}

/// The scaling suite's speedup-ratio gate: with more than one inner thread
/// on a host with at least kMinHardwareThreadsForSpeedupGate hardware
/// threads, each full-mode row's wall may be at most this multiple of the
/// same solve at T=1, plus Gate::wall_clock's absolute slack.
constexpr double kMaxSlowdownVsT1 = 1.15;
constexpr unsigned kMinHardwareThreadsForSpeedupGate = 4;

void check_scaling_suite(Gate& gate, const qbp::json::Value& baseline,
                         const std::vector<ScalingRow>& rows) {
  for (const auto& row : rows) {
    const qbp::json::Value* base_row = nullptr;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      if (static_cast<std::int32_t>(baseline.at(i).get_number("n", -1.0)) ==
          row.n) {
        base_row = &baseline.at(i);
        break;
      }
    }
    const std::string where = "scaling/N=" + std::to_string(row.n);
    if (base_row == nullptr) {
      gate.missing(where);
      continue;
    }
    gate.objective(where + "/final", base_row->get_number("final", -1.0),
                   row.final_cost);
    gate.wall_clock(where + "/seconds", base_row->get_number("seconds", 0.0),
                    row.seconds);
    if (row.t1_seconds < 0.0) continue;
    // Speedup-ratio gate: threading must not make the solve slower.
    gate.objective(where + "/final at T=1", row.t1_final_cost, row.final_cost);
    const double limit = kMaxSlowdownVsT1 * row.t1_seconds + kWallClockSlack;
    if (row.seconds > limit) {
      std::fprintf(stderr,
                   "GATE FAIL %s: T=%d took %.3fs, over %.2fx the T=1 solve "
                   "(%.3fs) + %.1fs\n",
                   where.c_str(), row.threads, row.seconds, kMaxSlowdownVsT1,
                   row.t1_seconds, kWallClockSlack);
      ++gate.failures;
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunnerConfig config;
  std::string json_path;
  std::string check_path;
  std::string suite = "all";
  std::string presolve_mode = "on";
  std::string simd_mode = "on";
  bool profile = false;
  bool list_suites = false;

  qbp::CliParser cli("bench_runner",
                     "unified bench driver + CI regression gate");
  cli.add_flag("smoke", config.smoke,
               "reduced sizes/iterations for the CI gate");
  cli.add_string("suite", suite,
                 "table1|table2|table3|scaling|presolve|eco|vcycle|serve|all "
                 "(all = every solver suite; serve runs only when named)");
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
    for (const char* name : kSuiteNames) std::printf("%s\n", name);
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

  bool suite_known = false;
  for (const char* name : kSuiteNames) suite_known |= suite == name;
  if (!suite_known) {
    std::string valid;
    for (const char* name : kSuiteNames) {
      if (!valid.empty()) valid += ", ";
      valid += name;
    }
    std::fprintf(stderr, "unknown --suite '%s' (valid suites: %s)\n",
                 suite.c_str(), valid.c_str());
    return 2;
  }
  const auto want = [&](const char* name) {
    // "all" covers the solver suites; serve must be asked for by name (it
    // saturates the machine with worker pools -- see kSuiteNames).
    if (suite == "all") return std::string_view(name) != "serve";
    return suite == name;
  };

  if (profile) qbp::prof::set_enabled(true);

  std::printf("bench_runner: mode=%s suite=%s\n",
              config.smoke ? "smoke" : "full", suite.c_str());
  qbp::json::Value suites = qbp::json::Value::object();
  qbp::json::Value table1;
  std::vector<qbp::ExperimentRow> table2;
  std::vector<qbp::ExperimentRow> table3;
  std::vector<ScalingRow> scaling;
  std::vector<PresolveRow> presolve;
  std::vector<EcoRow> eco;
  std::vector<VcycleRow> vcycle;
  std::vector<qbp::ServeRow> serve;

  if (want("table1")) {
    std::fprintf(stderr, "suite table1 (circuit descriptions)\n");
    table1 = run_table1_suite(config);
    suites.set("table1", table1);
  }
  if (want("table2")) {
    std::fprintf(stderr, "suite table2 (no timing)\n");
    table2 = run_table_suite(/*with_timing=*/false, config);
    std::printf("%s\n",
                qbp::format_table("Table II (no timing)", table2).c_str());
    suites.set("table2", qbp::rows_to_json(table2));
  }
  if (want("table3")) {
    std::fprintf(stderr, "suite table3 (with timing)\n");
    table3 = run_table_suite(/*with_timing=*/true, config);
    std::printf("%s\n",
                qbp::format_table("Table III (with timing)", table3).c_str());
    suites.set("table3", qbp::rows_to_json(table3));
  }
  if (want("scaling")) {
    std::fprintf(stderr, "suite scaling\n");
    // The speedup-ratio gate needs several hardware threads and rows long
    // enough to time (smoke rows last milliseconds).
    bool time_t1 = false;
    if (!check_path.empty() && !config.smoke &&
        qbp::par::resolve_threads(
            static_cast<std::int32_t>(config.inner_threads)) > 1) {
      const unsigned hardware = std::thread::hardware_concurrency();
      time_t1 = hardware >= kMinHardwareThreadsForSpeedupGate;
      if (!time_t1) {
        std::printf("scaling: speedup-ratio gate skipped (%u hardware "
                    "threads, needs %u)\n",
                    hardware, kMinHardwareThreadsForSpeedupGate);
      }
    }
    scaling = run_scaling_suite(config, time_t1);
    std::vector<std::string> headers{"N", "solve (s)", "final", "feasible"};
    if (time_t1) headers.insert(headers.begin() + 2, "T=1 (s)");
    qbp::TextTable table(headers);
    for (const auto& row : scaling) {
      std::vector<std::string> cells{std::to_string(row.n),
                                     qbp::format_double(row.seconds, 2)};
      if (time_t1) cells.push_back(qbp::format_double(row.t1_seconds, 2));
      cells.push_back(qbp::format_double(row.final_cost, 1));
      cells.push_back(row.feasible ? "yes" : "no");
      table.add_row(cells);
    }
    std::printf("%s\n", table.render().c_str());
    suites.set("scaling", scaling_to_json(scaling));
  }
  if (want("presolve")) {
    std::fprintf(stderr, "suite presolve (reducible instances)\n");
    presolve = run_presolve_suite(config);
    qbp::TextTable table({"N", "removed", "r0", "r1", "r2", "rn",
                          "presolve (s)", "off (s)", "on (s)", "speedup"});
    for (const auto& row : presolve) {
      table.add_row(
          {std::to_string(row.n),
           std::to_string(row.stats.components_removed) + " (" +
               qbp::format_double(row.reduction_pct, 1) + "%)",
           std::to_string(row.stats.r0), std::to_string(row.stats.r1),
           std::to_string(row.stats.r2), std::to_string(row.stats.rn),
           qbp::format_double(row.stats.seconds, 3),
           qbp::format_double(row.seconds_off, 2),
           qbp::format_double(row.seconds_on, 2),
           row.seconds_on > 0.0
               ? qbp::format_double(row.seconds_off / row.seconds_on, 2) + "x"
               : "-"});
    }
    std::printf("%s\n", table.render().c_str());
    suites.set("presolve", presolve_to_json(presolve));
  }
  if (want("eco")) {
    std::fprintf(stderr, "suite eco (warm-start serving)\n");
    eco = run_eco_suite(config);
    qbp::TextTable table({"N", "cold (s)", "exact hit", "warm", "warm p50 (s)",
                          "warm/cold"});
    for (const auto& row : eco) {
      table.add_row({std::to_string(row.n),
                     qbp::format_double(row.cold_seconds, 2),
                     row.exact_hit ? "yes" : "NO",
                     std::to_string(row.warm_hits) + "/" +
                         std::to_string(row.variants),
                     qbp::format_double(row.warm_p50_seconds, 3),
                     qbp::format_double(row.warm_ratio, 3)});
    }
    std::printf("%s\n", table.render().c_str());
    suites.set("eco", eco_to_json(eco));
  }
  if (want("vcycle")) {
    std::fprintf(stderr, "suite vcycle (multilevel, kernel %s)\n",
                 qbp::simd::active_kernel());
    vcycle = run_vcycle_suite(config);
    qbp::TextTable table({"N", "levels", "coarsen (s)", "solve (s)", "final",
                          "feasible"});
    for (const auto& row : vcycle) {
      table.add_row({std::to_string(row.n), std::to_string(row.levels),
                     qbp::format_double(row.coarsen_seconds, 2),
                     qbp::format_double(row.seconds, 2),
                     qbp::format_double(row.final_cost, 1),
                     row.feasible ? "yes" : "no"});
    }
    std::printf("%s\n", table.render().c_str());
    suites.set("vcycle", vcycle_to_json(vcycle));
  }

  if (want("serve")) {
    std::fprintf(stderr, "suite serve (wire framing throughput)\n");
    serve = run_serve_suite(config);
    qbp::TextTable table(
        {"scenario", "framing", "workers", "jobs", "secs", "jobs/s", "ok"});
    for (const auto& row : serve) {
      table.add_row({row.scenario, row.framing, std::to_string(row.workers),
                     std::to_string(row.jobs),
                     qbp::format_double(row.seconds, 3),
                     qbp::format_double(row.jobs_per_sec, 0),
                     row.ok ? "yes" : "NO"});
    }
    std::printf("%s\n", table.render().c_str());
    suites.set("serve", serve_to_json(serve));
  }

  qbp::json::Value out = qbp::json::Value::object();
  out.set("schema", static_cast<std::int64_t>(1));
  out.set("mode", config.smoke ? "smoke" : "full");
  out.set("inner_threads", config.inner_threads);
  out.set("suites", std::move(suites));
  if (profile) {
    const qbp::prof::PhaseReport phases = qbp::prof::snapshot();
    std::printf("%s\n", qbp::prof::to_string(phases).c_str());
    out.set("phases", qbp::prof::to_json(phases));
  }
  if (!qbp::write_bench_json(json_path, out)) return 1;

  if (check_path.empty()) return 0;

  qbp::json::Value baseline;
  std::string error;
  if (!qbp::json::read_json_file(check_path, baseline, &error)) {
    std::fprintf(stderr, "cannot read baseline: %s\n", error.c_str());
    return 1;
  }
  const qbp::json::Value* base_suites = baseline.find("suites");
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
  const auto suite_of = [&](const char* name) -> const qbp::json::Value* {
    const qbp::json::Value* found = base_suites->find(name);
    if (found == nullptr) gate.missing(std::string("suite ") + name);
    return found;
  };
  if (want("table1")) {
    if (const auto* base = suite_of("table1"))
      check_table1_suite(gate, *base, table1);
  }
  if (want("table2")) {
    if (const auto* base = suite_of("table2"))
      check_table_suite(gate, "table2", *base, table2);
  }
  if (want("table3")) {
    if (const auto* base = suite_of("table3"))
      check_table_suite(gate, "table3", *base, table3);
  }
  if (want("scaling")) {
    if (const auto* base = suite_of("scaling"))
      check_scaling_suite(gate, *base, scaling);
  }
  if (want("presolve")) {
    if (const auto* base = suite_of("presolve"))
      check_presolve_suite(gate, *base, presolve);
  }
  if (want("eco")) {
    if (const auto* base = suite_of("eco"))
      check_eco_suite(gate, *base, eco, config.smoke);
  }
  if (want("vcycle")) {
    if (const auto* base = suite_of("vcycle"))
      check_vcycle_suite(gate, *base, vcycle);
  }
  if (want("serve")) {
    if (const auto* base = suite_of("serve"))
      check_serve_suite(gate, *base, serve);
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
