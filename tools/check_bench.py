#!/usr/bin/env python3
"""Gate a knnq bench JSON artifact against a committed baseline.

Usage: check_bench.py CURRENT_JSON BASELINE_JSON [--threshold 0.25]

Machines differ, so absolute throughput is never compared. Every
benchmark row's qps is normalized by the same file's reference row
(the document's "reference" field; "serial/uniform/uncached" when
absent), which cancels the host's speed; the gate fails when a row's
normalized throughput drops more than --threshold (default 25%) below
the baseline's normalized value.

Absolute invariants - machine-independent ratios measured within one
run - are also enforced per bench kind:

engine_batch (bench_engine_batch):
  * skewed_speedup_t1   >= 1.3  (cached skewed batch beats uncached)
  * skewed_hit_rate     >= 0.5  (the skew actually hits the cache)
  * churn_read_ratio_t4 >= 0.5  (interleaving updates keeps at least
    half the read-only throughput; enforced when the current run
    includes the churn benchmarks)
  * trace_hook_overhead <= 0.02 (tracing-disabled instrumentation
    hooks - spans per query x per-span cost x qps - cost at most 2%
    of query wall time; enforced when the current run measured it)
  * obs_plane_overhead  <= 0.02 (the HTTP observability plane at its
    default duty cycle - one 1 Hz history sampling pass plus one 1 Hz
    /metrics render - costs at most 2% of one core-second; enforced
    when the current run measured it)

server (bench_server):
  * server_vs_inprocess_t4c8 >= 0.7  (8 loadgen clients over loopback
    TCP sustain at least 70% of in-process RunBatch throughput at the
    same engine config - the serving-layer acceptance floor)
  * total_errors == 0                (zero response/ordering errors)

kernels (bench_kernels):
  * simd_speedup       >= 1.5  (SoA+SIMD MinSquaredDistance beats the
    scalar AoS scan on a 64k-point span; enforced only when the host
    reports simd_available, since the kernel falls back to scalar
    elsewhere)
  * scan_speedup_*     >= 1.5  (per-structure full-index block scan,
    BlockSoA + kernel vs BlockPoints AoS - the layout win itself,
    gated even without SIMD)
  * skip_rate_*        >  0.0  (bound-based block skipping engages)

A gated field the bench wrote as null (a filtered run that skipped the
rows it derives from) is reported as "not measured" and fails the gate.

Exit code 0 = pass, 1 = regression or malformed input.
"""

import argparse
import json
import sys

DEFAULT_REF = "serial/uniform/uncached"
MIN_SKEWED_SPEEDUP = 1.3
MIN_SKEWED_HIT_RATE = 0.5
MIN_CHURN_READ_RATIO = 0.5
MAX_TRACE_HOOK_OVERHEAD = 0.02
MAX_OBS_PLANE_OVERHEAD = 0.02
MIN_SERVER_RATIO = 0.7
MIN_SIMD_SPEEDUP = 1.5
MIN_SCAN_SPEEDUP = 1.5


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def normalized_qps(doc, path):
    ref_name = doc.get("reference", DEFAULT_REF)
    rows = {b["name"]: b for b in doc.get("benchmarks", [])}
    ref = rows.get(ref_name)
    if ref is None or ref.get("qps", 0) <= 0:
        sys.exit(f"{path}: missing or zero reference row '{ref_name}'")
    # churn/* rows are excluded from the row-by-row comparison: their
    # wall time mixes query and mutation work and is noisy run to run;
    # the dedicated churn_read_ratio_t4 floor below gates them with a
    # within-run (machine-independent) ratio instead.
    return {name: b["qps"] / ref["qps"] for name, b in rows.items()
            if name != ref_name and b.get("qps", 0) > 0
            and not name.startswith("churn/")}


def measured(summary, name, failures, default=0.0):
    """summary[name], or None when the bench wrote null for it: the rows
    it derives from did not run, which fails the gate."""
    value = summary.get(name, default)
    if value is None:
        print(f"{name}: not measured")
        failures.append(f"{name} was not measured (null): the benchmark "
                        f"rows it derives from did not run")
    return value


def check_engine_batch(current, baseline, failures):
    summary = current.get("summary", {})
    print()
    speedup = measured(summary, "skewed_speedup_t1", failures)
    if speedup is not None:
        print(f"skewed_speedup_t1={speedup:.2f}x "
              f"(floor {MIN_SKEWED_SPEEDUP}x)")
        if speedup < MIN_SKEWED_SPEEDUP:
            failures.append(f"skewed_speedup_t1 {speedup:.2f}x is below "
                            f"the {MIN_SKEWED_SPEEDUP}x floor")
    hit_rate = measured(summary, "skewed_hit_rate", failures)
    if hit_rate is not None:
        print(f"skewed_hit_rate={hit_rate:.2%} "
              f"(floor {MIN_SKEWED_HIT_RATE:.0%})")
        if hit_rate < MIN_SKEWED_HIT_RATE:
            failures.append(f"skewed_hit_rate {hit_rate:.2%} is below the "
                            f"{MIN_SKEWED_HIT_RATE:.0%} floor")

    churn_ratio = measured(summary, "churn_read_ratio_t4", failures)
    if churn_ratio is not None:
        check_churn(churn_ratio, summary, baseline, failures)

    # Observability acceptance: disabled tracing hooks must be free in
    # the fraction-of-a-query sense. Measured only by full runs (the
    # serial reference row is its denominator).
    overhead = measured(summary, "trace_hook_overhead", failures)
    if overhead is not None:
        check_trace_overhead(overhead, summary, baseline, failures)

    # The HTTP observability plane's duty-cycle cost (1 Hz sampler +
    # 1 Hz scraper), same 2% budget as the trace hooks.
    obs_overhead = measured(summary, "obs_plane_overhead", failures)
    if obs_overhead is not None:
        check_obs_overhead(obs_overhead, summary, baseline, failures)


def check_churn(churn_ratio, summary, baseline, failures):
    if churn_ratio > 0.0:
        print(f"churn_read_ratio_t4={churn_ratio:.2f}x "
              f"(floor {MIN_CHURN_READ_RATIO}x, update:query "
              f"{summary.get('churn_updates_per_queries', '?')})")
        if churn_ratio < MIN_CHURN_READ_RATIO:
            failures.append(
                f"churn_read_ratio_t4 {churn_ratio:.2f}x is below the "
                f"{MIN_CHURN_READ_RATIO}x floor")
    else:
        # A filtered run skipped the churn benchmarks; only flag that
        # when the baseline promises them.
        if "churn_read_ratio_t4" in baseline.get("summary", {}) and \
                baseline["summary"]["churn_read_ratio_t4"] > 0.0:
            failures.append("current run is missing the churn "
                            "benchmarks the baseline includes")


def check_trace_overhead(overhead, summary, baseline, failures):
    if overhead > 0.0 or "trace_spans_per_query" in summary:
        print(f"trace_hook_overhead={overhead:.4%} "
              f"(ceiling {MAX_TRACE_HOOK_OVERHEAD:.0%}), "
              f"spans/query={summary.get('trace_spans_per_query', 0):.1f}, "
              f"span_ns={summary.get('trace_span_ns', 0):.1f}, "
              f"enabled_ratio={summary.get('trace_enabled_ratio', 0):.2f}x")
        if overhead > MAX_TRACE_HOOK_OVERHEAD:
            failures.append(
                f"trace_hook_overhead {overhead:.4%} exceeds the "
                f"{MAX_TRACE_HOOK_OVERHEAD:.0%} ceiling")
    elif "trace_hook_overhead" in baseline.get("summary", {}):
        failures.append("current run is missing the trace overhead "
                        "measurement the baseline includes")


def check_obs_overhead(obs_overhead, summary, baseline, failures):
    if obs_overhead > 0.0 or "obs_render_ns" in summary:
        print(f"obs_plane_overhead={obs_overhead:.4%} "
              f"(ceiling {MAX_OBS_PLANE_OVERHEAD:.0%}), "
              f"render_ns={summary.get('obs_render_ns', 0):.0f}, "
              f"sample_ns={summary.get('obs_sample_ns', 0):.0f}")
        if obs_overhead > MAX_OBS_PLANE_OVERHEAD:
            failures.append(
                f"obs_plane_overhead {obs_overhead:.4%} exceeds the "
                f"{MAX_OBS_PLANE_OVERHEAD:.0%} ceiling")
    elif "obs_plane_overhead" in baseline.get("summary", {}):
        failures.append("current run is missing the obs-plane overhead "
                        "measurement the baseline includes")


def check_server(current, failures):
    summary = current.get("summary", {})
    ratio = summary.get("server_vs_inprocess_t4c8", 0.0)
    skewed = summary.get("server_vs_inprocess_t4c8_skewed", 0.0)
    errors = summary.get("total_errors", None)
    print(f"\nserver_vs_inprocess_t4c8={ratio:.2f}x "
          f"(floor {MIN_SERVER_RATIO}x), skewed={skewed:.2f}x, "
          f"total_errors={errors}")
    if ratio < MIN_SERVER_RATIO:
        failures.append(
            f"server_vs_inprocess_t4c8 {ratio:.2f}x is below the "
            f"{MIN_SERVER_RATIO}x floor")
    if errors is None or errors != 0:
        failures.append(f"server bench reported {errors} "
                        f"response/ordering errors (want 0)")


def check_kernels(current, failures):
    summary = current.get("summary", {})
    simd = summary.get("simd_speedup", 0.0)
    available = current.get("simd_available", False)
    print(f"\nsimd_speedup={simd:.2f}x (floor {MIN_SIMD_SPEEDUP}x, "
          f"simd_available={available})")
    if available and simd < MIN_SIMD_SPEEDUP:
        failures.append(f"simd_speedup {simd:.2f}x is below the "
                        f"{MIN_SIMD_SPEEDUP}x floor")
    for structure in ("grid", "quadtree", "rtree"):
        scan = summary.get(f"scan_speedup_{structure}", 0.0)
        skip = summary.get(f"skip_rate_{structure}", 0.0)
        print(f"scan_speedup_{structure}={scan:.2f}x "
              f"(floor {MIN_SCAN_SPEEDUP}x), "
              f"skip_rate_{structure}={skip:.2%}")
        if scan < MIN_SCAN_SPEEDUP:
            failures.append(
                f"scan_speedup_{structure} {scan:.2f}x is below the "
                f"{MIN_SCAN_SPEEDUP}x floor")
        if skip <= 0.0:
            failures.append(f"skip_rate_{structure} is zero - block "
                            f"skipping never engaged")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional drop in normalized "
                             "throughput (default 0.25)")
    args = parser.parse_args()

    current = load(args.current)
    baseline = load(args.baseline)
    cur_rel = normalized_qps(current, args.current)
    base_rel = normalized_qps(baseline, args.baseline)

    failures = []
    print(f"{'benchmark':<32} {'base':>8} {'now':>8} {'ratio':>7}")
    for name in sorted(base_rel):
        if name not in cur_rel:
            failures.append(f"{name}: present in baseline but not in "
                            f"current run")
            continue
        ratio = cur_rel[name] / base_rel[name]
        flag = ""
        if ratio < 1.0 - args.threshold:
            failures.append(
                f"{name}: normalized throughput {cur_rel[name]:.3f} is "
                f"{100 * (1 - ratio):.1f}% below baseline "
                f"{base_rel[name]:.3f}")
            flag = "  <-- REGRESSION"
        print(f"{name:<32} {base_rel[name]:>8.3f} {cur_rel[name]:>8.3f} "
              f"{ratio:>7.3f}{flag}")

    kind = current.get("bench", "engine_batch")
    if kind == "server":
        check_server(current, failures)
    elif kind == "kernels":
        check_kernels(current, failures)
    else:
        check_engine_batch(current, baseline, failures)

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("\nPASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
