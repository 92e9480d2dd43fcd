"""Arithmetic of the benchmark: turns one raw driver document (and its
span file) into the end-to-end and per-layer metrics.

Everything here is pure Python over plain data, so perfbench/test_metrics.py
can pin it down without building the program.
"""

import math
import statistics
from collections import defaultdict


# --------------------------------------------------------------- samples

def median(values):
    """Median of a non-empty sample; 0.0 for an empty one."""
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile `q` (0 < q <= 1) of a sample.

    Returns {"value", "samples", "beyond"}: the sample count, and how many
    samples lie beyond the percentile.  A percentile is only meaningful
    with at least ten samples beyond it; callers print the counts so a
    reader can tell.
    """
    n = len(values)
    if n == 0:
        return {"value": 0.0, "samples": 0, "beyond": 0}
    ordered = sorted(values)
    rank = max(1, math.ceil(q * n))
    return {"value": ordered[rank - 1], "samples": n, "beyond": n - rank}


# -------------------------------------------------------------- outcomes

OUTCOME_BUCKETS = ("ok", "infeasible", "invalid", "wrong", "rejected",
                   "error", "missing")


def tally(outcomes):
    """(attempted, failed, fail_share) of the driver's outcome buckets.

    Every checked request or solve lands in exactly one bucket; anything
    but "ok" -- an infeasible or invalid answer, a wrong one, a rejected,
    errored or never-answered job -- is a failure.  Unknown buckets count
    as failures too, so nothing is silently dropped.
    """
    attempted = 0
    failed = 0
    for bucket, count in outcomes.items():
        if not isinstance(count, int) or isinstance(count, bool):
            continue
        attempted += count
        if bucket != "ok":
            failed += count
    share = failed / attempted if attempted else 1.0
    return attempted, failed, share


# ----------------------------------------------------------------- spans

def _covered(intervals, start, end):
    """Length of the union of `intervals`, clipped to [start, end)."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    total = 0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans):
    """Per span name: (total self seconds, span count).

    A span's self time is its duration minus the part of its interval that
    its child spans cover (overlapping children are counted once).
    """
    children = defaultdict(list)
    for span in spans:
        if span["parent"] >= 0:
            children[span["parent"]].append((span["start_ns"], span["end_ns"]))
    totals = defaultdict(lambda: [0.0, 0])
    for span in spans:
        start, end = span["start_ns"], span["end_ns"]
        own = (end - start) - _covered(children[span["id"]], start, end)
        totals[span["name"]][0] += own / 1e9
        totals[span["name"]][1] += 1
    return {name: (value[0], value[1]) for name, value in totals.items()}


def span_durations(spans, name):
    """Durations in seconds of every span called `name`."""
    return [(s["end_ns"] - s["start_ns"]) / 1e9 for s in spans
            if s["name"] == name]


# ------------------------------------------------------- server histograms

def histogram_quantile(before, after, q):
    """Quantile `q` of the observations a server histogram gained between
    two stats replies, interpolated linearly inside its bucket.

    `before`/`after` are the stats "histograms" entries: cumulative
    {"le", "count"} buckets ending with "+inf".  Returns 0.0 when nothing
    was observed in between.
    """
    def counts(entry):
        return [b["count"] for b in (entry or {}).get("buckets", [])]

    new = counts(after)
    old = counts(before) or [0] * len(new)
    gained = [a - b for a, b in zip(new, old)]
    if not gained or gained[-1] <= 0:
        return 0.0
    target = q * gained[-1]
    bounds = [b["le"] for b in after["buckets"]]
    lower = 0.0
    previous = 0
    for bound, cumulative in zip(bounds, gained):
        if cumulative >= target and cumulative > previous:
            upper = bound if isinstance(bound, (int, float)) else after["max"]
            share = (target - previous) / (cumulative - previous)
            return lower + share * (upper - lower)
        if isinstance(bound, (int, float)):
            lower = bound
        previous = cumulative
    return after.get("max", 0.0)


def _stat(stats, kind, name):
    return (stats or {}).get(kind, {}).get(name, 0)


# ---------------------------------------------------------------- metrics

def _prof(raw):
    return raw.get("layers", {}).get("prof", {})


def _phase(raw, name, field="seconds"):
    return _prof(raw).get(name, {}).get(field, 0)


def solve_s(raw):
    """Wall of the workload's solver work: a tables pass, a V-cycle, the
    T = 4 solve on threads, or (serve) the cold fresh-design solve as the
    server times it."""
    if raw["workload"] == "serve":
        return median(raw.get("cold_solve_s", []))
    return median(raw.get("op_s", []))


def end_to_end(raw):
    """The end-to-end metrics of an untraced run, as {name: value}."""
    return {
        "setup_s": median(raw["setup_s"]),
        "solve_s": solve_s(raw),
        "wire_cost": float(raw.get("wire_cost", 0.0)),
        "peak_rss_mb": raw["peak_rss_kib"] / 1024.0,
    }


def jobs_per_s(raw):
    """Requests completed per second.  Serve: resubmit jobs, the median
    over the window's whole seconds.  Solver workloads: solver calls (the
    14 legs of a tables pass, one V-cycle, one T = 4 solve) per second of
    the median unit of work."""
    if raw["workload"] == "serve":
        return serve_rates(raw)[0]
    ops = raw.get("op_s", [])
    unit = median(ops)
    calls_per_op = len(raw.get("latency_ms", [])) / len(ops) if ops else 0.0
    return calls_per_op / unit if unit > 0 else 0.0


def serve_rates(raw):
    """Median resubmit replies per second over the whole-second slices of
    the untraced and (on a traced run) the traced part of the window."""
    slices = raw.get("reply_slices", [])
    split = raw.get("traced_from_slice", len(slices))
    return float(median(slices[:split])), float(median(slices[split:]))


def extras(raw):
    """Reported but ungated metrics: printed in the human summary and
    carried as per-layer metrics.  Every sample list read here holds the
    untraced half of a traced run only (the traced half is in the
    "traced_"-prefixed lists), so a traced run reports the same figures an
    untraced one would."""
    latency = raw.get("latency_ms", [])
    attempted, failed, share = tally(raw["outcomes"])
    t1 = raw.get("t1_s", [])
    ops = raw.get("op_s", [])
    return {
        "jobs_per_s": jobs_per_s(raw),
        "p50_ms": percentile(latency, 0.5),
        "p99_ms": percentile(latency, 0.99),
        "cold_p50_ms": percentile(raw.get("cold_latency_ms", []), 0.5),
        "parallel_speedup": (median(t1) / median(ops)) if t1 and ops else 0.0,
        "fail_share": share,
        "attempted": attempted,
        "failed": failed,
    }


def per_layer(raw, spans):
    """The per-layer metrics of a traced run, as {name: value}.

    Phase seconds and counts come from the program's util/prof table read
    around the traced half of the window, and are reported per unit of
    work: a tables pass, a V-cycle, a T = 4 solve, or (serve) a cold
    fresh-design job.  Server metrics come from the difference of two
    stats replies; replay spans are medians per call.
    """
    layers = raw.get("layers", {})
    serve = raw["workload"] == "serve"
    units = layers.get("fresh_jobs", 0) if serve else layers.get("ops", 0)
    units = max(units, 1)

    def per_unit(value):
        return value / units

    selfs = self_times(spans)
    setups = max(len(raw.get("setup_s", [])), 1)
    extra = extras(raw)
    m = {}
    m["gen.instance_s"] = selfs.get("gen.instance", (0.0, 0))[0] / setups
    m["initial.start_s"] = float(raw.get("start_s", 0.0))
    m["presolve.s"] = per_unit(_phase(raw, "presolve.seconds"))
    m["presolve.components_removed"] = per_unit(
        _phase(raw, "presolve.components_removed", "count"))

    iterations = _phase(raw, "burkard.step3_eta", "count")
    m["burkard.iterations"] = per_unit(iterations)
    inner = 2 * layers.get("burkard_iterations", 0)
    m["burkard.infeasible_inner_ratio"] = (
        layers.get("burkard_infeasible_inner", 0) / inner if inner else 0.0)
    for step in ("step3_eta", "step4_gap", "step5_h", "step6_gap"):
        m["burkard.%s_s" % step] = per_unit(_phase(raw, "burkard." + step))
    m["polish.sweep_s"] = per_unit(_phase(raw, "polish.sweep"))
    m["delta.row_build"] = per_unit(_phase(raw, "delta.row_build", "count"))
    m["delta.prefetch_s"] = per_unit(_phase(raw, "delta.prefetch"))
    for phase in ("solve", "construct", "improve", "improve_swap"):
        m["gap.%s_s" % phase] = per_unit(_phase(raw, "gap." + phase))

    for phase in ("coarsen", "coarse_solve", "refine.polish",
                  "refine.repair"):
        m["multilevel.%s_s" % phase] = per_unit(
            _phase(raw, "multilevel." + phase))
    m["multilevel.levels"] = layers.get("levels", 0)
    m["multilevel.coarsest_n"] = layers.get("coarsest_n", 0)
    m["multilevel.coarsest_pairs"] = layers.get("coarsest_pairs", 0)

    before = layers.get("pool_before", {})
    after = layers.get("pool_after", {})
    # The threads workload's T = 1 reference runs inline regions of its
    # own inside the traced window; they are not part of the measured unit.
    run = (after.get("regions_run", 0) - before.get("regions_run", 0)
           - layers.get("reference_regions", 0))
    fanned = (after.get("regions_parallel", 0)
              - before.get("regions_parallel", 0))
    m["parallel.regions_run"] = per_unit(run)
    m["parallel.regions_parallel"] = per_unit(fanned)
    m["parallel.fanout_ratio"] = fanned / run if run else 0.0
    m["parallel_speedup"] = extra["parallel_speedup"]

    starts = _phase(raw, "portfolio.start", "count")
    m["portfolio.start_s"] = (_phase(raw, "portfolio.start") / starts
                              if starts else 0.0)
    m["portfolio.starts"] = per_unit(starts)

    s0 = layers.get("stats_before", {})
    s1 = layers.get("stats_after", {})

    def hist(name):
        return (s0 or {}).get("histograms", {}).get(name), \
            (s1 or {}).get("histograms", {}).get(name)

    def gained(kind, name):
        return _stat(s1, kind, name) - _stat(s0, kind, name)

    wait0, wait1 = hist("queue_wait_seconds")
    solve0, solve1 = hist("solve_seconds")
    m["server.queue_wait_p50_ms"] = (
        histogram_quantile(wait0, wait1, 0.5) * 1e3 if wait1 else 0.0)
    m["server.queue_wait_p99_ms"] = (
        histogram_quantile(wait0, wait1, 0.99) * 1e3 if wait1 else 0.0)
    m["server.solve_p50_ms"] = (
        histogram_quantile(solve0, solve1, 0.5) * 1e3 if solve1 else 0.0)
    dec0, dec1 = hist("wire.decode_seconds")
    decoded = (dec1 or {}).get("count", 0) - (dec0 or {}).get("count", 0)
    m["wire.decode_s"] = (((dec1 or {}).get("sum", 0.0)
                           - (dec0 or {}).get("sum", 0.0)) / decoded
                          if decoded else 0.0)
    jobs = gained("counters", "jobs_completed")
    for name in ("frames", "bytes_in", "bytes_out"):
        m["wire." + name] = gained("counters", "wire." + name) / jobs \
            if jobs else 0.0
    m["server.jobs_rejected"] = gained("counters", "jobs_rejected")

    hits = gained("gauges", "cache.hits")
    misses = gained("gauges", "cache.misses")
    m["cache.hits"] = hits
    m["cache.misses"] = misses
    m["cache.inserts"] = gained("gauges", "cache.inserts")
    m["cache.evictions"] = gained("gauges", "cache.evictions")
    m["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["eco.warm_starts"] = gained("gauges", "eco.warm_starts")
    sent = layers.get("eco_sent", 0)
    m["eco.warm_ratio"] = (layers.get("eco_warm_answers", 0) / sent
                           if sent else 0.0)
    m["eco.repairs"] = gained("gauges", "eco.repairs")

    for name in ("protocol.parse", "wire.decode_submit", "fingerprint",
                 "cache.find_exact", "cache.find_nearest",
                 "wire.encode_result"):
        m[name + "_us"] = median(span_durations(spans, name)) * 1e6

    m["jobs_per_s"] = extra["jobs_per_s"]
    m["p50_ms"] = extra["p50_ms"]["value"]
    m["p99_ms"] = extra["p99_ms"]["value"]
    m["cold_p50_ms"] = extra["cold_p50_ms"]["value"]
    m["fail_share"] = extra["fail_share"]
    m["trace.overhead_share"] = trace_overhead(raw)
    return m


def trace_overhead(raw):
    """Traced half against untraced half of the same run: the share by
    which tracing slowed the workload's unit of work (negative when the
    traced half happened to run faster)."""
    if raw["workload"] == "serve":
        plain, traced = serve_rates(raw)
        return plain / traced - 1.0 if traced else 0.0
    plain = median(raw.get("op_s", []))
    traced = median(raw.get("traced_op_s", []))
    return traced / plain - 1.0 if plain else 0.0
