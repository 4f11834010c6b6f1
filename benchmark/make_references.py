"""Derive the committed reference orders in references.json.

    python3 benchmark/make_references.py

Every instance of every workload is solved by each of its workload's
methods, without a time limit.  An order is recorded only when two
independent checks pass: sympy's Schreier-Sims recomputes the order from
the returned generators, and every method returns the same order (``full``
and ``limitdepth`` on grid and hardcell).  Orders already in the file are
kept; keys that no workload uses are dropped.  Relabelling does not change
an order, so the seed-0 texts stand for every seed.
"""

from __future__ import annotations

import json
import re
import sys

import run
from workloads import WORKLOADS, make_calls


def sympy_order(generators: list[str], degree: int) -> int:
    """Order of the group generated by cycle-notation permutations."""
    from sympy.combinatorics import Permutation, PermutationGroup

    perms = []
    for text in generators:
        cycles = [
            [int(x) - 1 for x in body.split()]
            for body in re.findall(r"\(([^)]*)\)", text)
        ]
        perms.append(Permutation(cycles, size=degree))
    return int(PermutationGroup(perms).order()) if perms else 1


def main() -> int:
    run.import_symnorm()
    from symnorm import cli

    known = json.loads(run.REFERENCES.read_text())
    references = {}
    for workload in WORKLOADS.values():
        by_key: dict[str, list] = {}
        for call in make_calls(workload, 0):
            by_key.setdefault(call.key, []).append(call)
        for key, calls in by_key.items():
            if key in known:
                references[key] = known[key]
                continue
            orders = set()
            for call in calls:
                record = cli.compute(call.text, call.method)
                recomputed = str(sympy_order(record.generators, call.degree))
                if recomputed != record.order:
                    raise SystemExit(
                        f"{key} {call.method}: order {record.order}, sympy {recomputed}"
                    )
                orders.add(record.order)
            if len(orders) != 1:
                raise SystemExit(f"{key}: methods disagree: {sorted(orders)}")
            references[key] = orders.pop()
            print(key, references[key], flush=True)
    run.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
