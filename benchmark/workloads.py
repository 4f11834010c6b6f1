"""The benchmark's workloads: a fixed set of instances each, and the
seeded relabelling that turns a workload seed into input texts.

Every workload solves the same instances on every seed: the first
``count`` instances (instance seeds 0, 1, ...) of each of its cells, as
``symnorm.cli.gen_instance`` draws them.  For every instance, the workload
seed draws a random permutation of the points inside each orbit, and the
call receives the group conjugated by it.  The orbits and their order stay,
so the code changes only by column scalings and the search does the same
work on every seed, while the input text and the permutations that the
chain code handles change.  The normaliser order does not change, so one
committed reference order covers every seed.  (On p=2 a 2-point orbit has
only one relabelling that matters, and the text stays the same.)

Two other ways were measured first and rejected, because the work itself
varied with the seed.  Fresh random instances per seed made the summed
time of a ``grid`` pass vary from 19 to 28 s, and one ``wide`` call from
13.5 to 23.5 s.  A random permutation of all points reorders the orbits:
the hard cell's depth-limited search then visited one depth node on some
seeds and two on others (10^6 against 2*10^6 nodes).
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Cell:
    p: int
    k: int
    dim: int
    dihedral: bool = False
    count: int = 1  # instances, with instance seeds 0 .. count-1

    def key(self, inst_seed: int) -> str:
        tag = ",dihedral" if self.dihedral else ""
        return f"p={self.p},k={self.k},dim={self.dim},seed={inst_seed}{tag}"


@dataclass(frozen=True)
class Call:
    """One timed call: the instance text and the method that solves it.

    ``key`` names the instance whose normaliser order the call must return.
    """

    key: str
    method: str
    text: str
    degree: int


@dataclass(frozen=True)
class Workload:
    cells: tuple[Cell, ...]
    methods: tuple[str, ...]


WORKLOADS = {
    # criterion-8 grid: small degrees on the bytes backing, both methods
    "grid": Workload(
        tuple(
            Cell(p, 20, dim)
            for p, dim in ((5, 4), (5, 6), (5, 8), (2, 6), (3, 6))
        ),
        ("full", "limitdepth"),
    ),
    # criterion-9 hard cell, both methods; runnable by hand, not listed in
    # BENCHMARK.json (see README.md)
    "hardcell": Workload((Cell(11, 20, 6),), ("full", "limitdepth")),
    # orbit-wise dihedral groups through the dihedral pipeline
    "dihedral": Workload(
        (
            Cell(3, 12, 4, True, count=3),
            Cell(3, 16, 5, True),
            Cell(5, 12, 4, True),
            Cell(7, 12, 4, True),
        ),
        ("dihedral",),
    ),
    # degree 259: the tuple backing, many equivalent orbits
    "wide": Workload((Cell(7, 37, 3),), ("full",)),
}


def relabel(text: str, rng: random.Random) -> str:
    """The group of ``text`` conjugated by a random permutation of the
    points inside each orbit.  ``gen_instance`` puts orbit i on the block of
    points p*i+1 .. p*i+p, so the orbits and their order stay as they are."""
    from symnorm.perm import Permutation, format_group, parse_group

    p, n, gens = parse_group(text)
    images = []
    for start in range(1, n + 1, p):
        block = list(range(start, start + p))
        rng.shuffle(block)
        images.extend(block)
    s = Permutation(images)
    return format_group(p, n, [g.conj(s) for g in gens])


def make_calls(workload: Workload, seed: int) -> list[Call]:
    """Generate the workload's input texts for ``seed``, in call order."""
    from symnorm import cli

    rng = random.Random(seed)
    calls = []
    for cell in workload.cells:
        for inst_seed in range(cell.count):
            _, text = cli.gen_instance(
                cell.p, cell.k, cell.dim, inst_seed, dihedral=cell.dihedral
            )
            text = relabel(text, rng)
            for method in workload.methods:
                calls.append(Call(cell.key(inst_seed), method, text, cell.p * cell.k))
    return calls
