"""Tests of the benchmark itself (not part of the package's test suite).

    python3 -m pytest benchmark/tests -q
"""

import json
import re
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_symnorm()

from symnorm import cli  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, make_calls  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_seed_draws_the_relabelling_only():
    for workload in WORKLOADS.values():
        first = make_calls(workload, 3)
        assert [c.text for c in first] == [c.text for c in make_calls(workload, 3)]
        other = make_calls(workload, 4)
        assert [c.key for c in other] == [c.key for c in first]
        # every permutation of a 2-point orbit centralises the group there,
        # so only orbits of odd prime length change the text
        for a, b in zip(first, other):
            assert (a.text != b.text) == (a.text.split()[0] != "2")


def test_every_instance_has_a_reference():
    references = json.loads(run.REFERENCES.read_text())
    keys = {c.key for w in WORKLOADS.values() for c in make_calls(w, 0)}
    assert keys == set(references)


def test_metric_names():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(declared) == len(set(declared))
    fake = {"call": make_calls(WORKLOADS["grid"], 0)[0], "s": 1.0, "failed": False}
    e2e, extra = run.end_to_end([[fake]], 0.5, 40.0)
    layers = run.per_layer({}, Counter(), 0.1)
    for name in declared + list(e2e) + list(extra) + list(layers):
        assert NAME.fullmatch(name), name
    assert sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"])
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])


def _solve_all(texts):
    out = []
    for text, method in texts:
        record = cli.compute(text, method)
        out.append((record.order, record.generators))
    return out


def test_tracing_changes_no_result():
    _, plain = cli.gen_instance(3, 6, 3, 1)
    _, dihedral = cli.gen_instance(3, 4, 2, 1, dihedral=True)
    texts = [(plain, "full"), (plain, "limitdepth"), (dihedral, "dihedral")]
    untraced = _solve_all(texts)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _solve_all(texts)
    finally:
        tracer.uninstall()
    assert traced == untraced
    summary = tracer.summary()
    assert summary["cli.compute"]["calls"] == 3
    assert summary["dihedral.normalizer_dihedral"]["calls"] == 1
    # every wrapper is gone again
    assert not hasattr(cli.compute, "__wrapped__")
    from symnorm import search
    from symnorm.perm import StabChain

    assert not hasattr(search.kappa_feasible, "__wrapped__")
    assert not hasattr(StabChain.__init__, "__wrapped__")
