"""symnorm benchmark: one workload, one seed, one closed-loop caller.

    python3 benchmark/run.py --workload grid --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` (nothing needs installing).  Set-up generates the workload's fixed
instances, relabelled as the seed says (see workloads.py), loads the
committed reference orders and solves one tiny instance per method as a
warm-up.  The timed region then sends one call at a time through
``symnorm.cli.compute`` (what ``symnorm compute`` runs), each call only
after the previous one has returned, in a single thread.  It goes round the
workload's calls (one per instance and method) again and again, and stops
before the first call whose expected midpoint falls after ``--seconds``, so
that the timed region lasts ``--seconds`` on average; every call runs at
least once.  Every returned order is checked against
its reference.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes the
same untraced rounds, then one round with every layer wrapped by
``spans.Tracer``, and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The line before it is a report with run metadata and the
metrics that are not defined on every workload.  See README.md for what
each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
from spans import PRUNE_RULES, Tracer
from workloads import WORKLOADS, make_calls

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCES = HERE / "references.json"
TRACE_DIR = HERE / "traces"

CALL_LIMIT_S = 90.0  # SearchConfig.time_limit of every call
HARD_STOP_S = 120.0  # no call starts after this much timed time in a run
SETUP_REPEATS = 7  # fresh interpreters timed for setup_s


def import_symnorm():
    """Import the package from this checkout's src/, never an installed copy."""
    if not (SRC / "symnorm" / "__init__.py").is_file():
        raise SystemExit(f"error: no symnorm package under {SRC}")
    sys.path.insert(0, str(SRC))
    import symnorm

    if Path(symnorm.__file__).resolve().parent != SRC / "symnorm":
        raise SystemExit(f"error: imported symnorm from {symnorm.__file__}")


# ---------------------------------------------------------------------------
# set-up


def setup(workload_name: str, seed: int):
    calls = make_calls(WORKLOADS[workload_name], seed)
    references = json.loads(REFERENCES.read_text())
    return calls, references


def warm_up(methods) -> None:
    """Solve one tiny instance with each method, then collect garbage."""
    from symnorm import cli

    for method in methods:
        _, text = cli.gen_instance(3, 4, 2, 1, dihedral=method == "dihedral")
        cli.compute(text, method)
    gc.collect()


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of fresh interpreters doing the whole set-up."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed), "--setup-only",
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=60, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# the closed loop


def timed_call(call) -> dict:
    from symnorm import cli
    from symnorm.search import SearchConfig

    cfg = SearchConfig(time_limit=CALL_LIMIT_S)
    t0 = time.perf_counter()
    try:
        record = cli.compute(call.text, call.method, cfg)
    except Exception as exc:  # every exception is a failed call, not a crash
        elapsed = time.perf_counter() - t0
        return {"call": call, "s": elapsed, "order": None,
                "error": f"{type(exc).__name__}: {exc}"}
    elapsed = time.perf_counter() - t0
    return {"call": call, "s": elapsed, "order": record.order,
            "error": "timeout" if record.timed_out else None}


def run_rounds(calls, seconds: float) -> list[list[dict]]:
    """Go round ``calls`` until the next call's expected midpoint, judged by
    its own last time, falls after ``seconds``; every call runs at least
    once.  Returns the results of each call, in the order of ``calls``."""
    samples: list[list[dict]] = [[] for _ in calls]
    started = time.perf_counter()
    while True:
        for call, done in zip(calls, samples):
            elapsed = time.perf_counter() - started
            if done and elapsed + done[-1]["s"] / 2 > seconds:
                return samples
            if elapsed > HARD_STOP_S:
                done.append({"call": call, "s": 0.0, "order": None,
                             "error": "not reached"})
                continue
            done.append(timed_call(call))


# ---------------------------------------------------------------------------
# checks


def check(results, references) -> list[str]:
    """Mark every failed call; returns the failure messages.

    A call fails on a timeout, on an exception, or on an order other than
    the committed reference of its instance.
    """
    problems = []
    for res in results:
        call = res["call"]
        expected = references.get(call.key)
        if res["error"] is None and res["order"] != expected:
            res["error"] = f"order {res['order']} != reference {expected}"
        res["failed"] = res["error"] is not None
        if res["failed"]:
            problems.append(f"{call.key} {call.method}: {res['error']}")
    return problems


# ---------------------------------------------------------------------------
# metrics


def round_s(samples, method=None) -> float:
    """Time of one round: the median time of each call, summed."""
    return sum(
        statistics.median(r["s"] for r in done)
        for done in samples
        if method in (None, done[0]["call"].method)
    )


def tail(times: list[float]):
    """Highest percentile with at least ten samples beyond it."""
    if len(times) <= 10:
        return None
    ordered = sorted(times)
    n = len(ordered)
    return {"value": ordered[n - 11], "percentile": 100.0 * (n - 10) / n,
            "samples": n}


def end_to_end(samples, setup_s: float, peak_rss_mb: float) -> tuple[dict, dict]:
    """The bounded metrics, and the report-only ones."""
    results = [r for done in samples for r in done]
    times = [r["s"] for r in results]
    methods = {done[0]["call"].method for done in samples}
    bounded = {
        "wall_s": (round_s(samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    extra = {
        "failed_frac": sum(r["failed"] for r in results) / len(results),
        "call_p50_s": statistics.median(times),
        "call_tail_s": tail(times),
    }
    for method in ("full", "limitdepth"):
        if method in methods:
            extra[f"{method}_s"] = round_s(samples, method)
    return bounded, extra


def per_layer(summary: dict, counts, overhead: float) -> dict:
    def get(name, stat):
        return summary.get(name, {}).get(stat, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("perm.stabchain_build", "perm.stabchain_contains",
                 "gfp.weight_enumerator", "encode.eliminate_column",
                 "canon.kappa_feasible", "canon.canonical_rep"):
        m[f"{name}.calls"] = (get(name, "calls"), "count")
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
    for stat in ("in_search_s", "in_assembly_s"):
        m[f"perm.stabchain_build.{stat}"] = (get("perm.stabchain_build", stat), "s")
    m["gfp.weight_enumerator.words"] = (counts["gfp.weight_enumerator.words"], "count")
    m["gfp.min_weight_vectors.self_s"] = (get("gfp.min_weight_vectors", "self_s"), "s")
    m["gfp.member_row_space.calls"] = (get("gfp.member_row_space", "calls"), "count")
    for name in ("encode.reduce_equivalent_orbits", "encode.build_instance"):
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
    m["encode.decompose_bk.calls"] = (get("encode.decompose_bk", "calls"), "count")
    m["canon.kappa_feasible.accept_ratio"] = (
        ratio(counts["canon.kappa_feasible.accepted"], get("canon.kappa_feasible", "calls")),
        "ratio",
    )
    search_self = get("search.full_search", "self_s") + get(
        "search.limit_depth_search", "self_s"
    )
    nodes = counts["search.nodes"]
    m["search.self_s"] = (search_self, "s")
    m["search.self_us_per_node"] = (ratio(search_self * 1e6, nodes), "us")
    for name in ("domains_init", "compare_stabs", "check_lds", "deep_prune",
                 "all_diff_refiner"):
        m[f"search.{name}.self_s"] = (get(f"search.{name}", "self_s"), "s")
    for key in ("nodes", "leaves", "found"):
        m[f"search.{key}"] = (counts[f"search.{key}"], "count")
    for rule in PRUNE_RULES:
        m[f"search.prune.{rule}"] = (counts[f"search.prune_{rule}"], "count")
    m["search.leaf_yield"] = (
        ratio(counts["search.full.found"], counts["search.full.leaves"]), "ratio"
    )
    for name in ("dihedral.build_dihedral", "dihedral.normalizer_dihedral"):
        m[f"{name}.self_s"] = (get(name, "self_s"), "s")
    m["cli.gen_instance.s"] = (get("cli.gen_instance", "total_s"), "s")
    m["cli.compute.self_s"] = (get("cli.compute", "self_s"), "s")
    m["trace_overhead_frac"] = (overhead, "ratio")
    return m


def metadata(calls, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "backing": sorted({"bytes" if c.degree <= 256 else "tuples" for c in calls}),
        "degrees": sorted({c.degree for c in calls}),
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_symnorm()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    calls, references = setup(args.workload, args.seed)
    warm_up(WORKLOADS[args.workload].methods)
    if args.setup_only:
        return 0

    samples = run_rounds(calls, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    traced = []
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_calls, _ = setup(args.workload, args.seed)
            traced = [[timed_call(call)] for call in traced_calls]
        finally:
            tracer.uninstall()
        if [c.text for c in traced_calls] != [c.text for c in calls]:
            raise SystemExit("error: traced set-up generated other instances")
        TRACE_DIR.mkdir(exist_ok=True)
        tracer.save(TRACE_DIR / f"{args.workload}-seed{args.seed}.npz")

    results = [r for done in samples + traced for r in done]
    problems = check(results, references)
    for msg in problems:
        print(f"FAILED {msg}", file=sys.stderr)

    if args.trace:
        overhead = round_s(traced) / round_s(samples) - 1.0
        metrics = per_layer(tracer.summary(), tracer.counts, overhead)
        extra = {}
    else:
        metrics, extra = end_to_end(
            samples, measure_setup(args.workload, args.seed), peak_rss_mb
        )
    report = {
        "workload": args.workload,
        "trace": args.trace,
        **metadata(calls, args.seed),
        **extra,
        "calls": [
            {"key": done[0]["call"].key, "method": done[0]["call"].method,
             "s": [r["s"] for r in done], "order": done[0]["order"],
             "failed": sum(r["failed"] for r in done)}
            for done in samples
        ],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
