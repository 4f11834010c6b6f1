"""Command-line interface: instance generation, normaliser computation,
and a benchmark harness.

Instances are random full-rank codes turned into permutation groups on
consecutive blocks (optionally with a dihedral reflection layer), written
in the group exchange format: a "p n" header, then one generator per line
in cycle notation.  Runs are reported as line-oriented records (or JSON)
carrying the instance hash, order, node and prune counters, and timings;
the benchmark harness aggregates medians and quartiles over seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field

from symnorm.dihedral import build_dihedral, normalizer_dihedral
from symnorm.encode import NotInClass, block_perm, code_to_group
from symnorm.gfp import (
    BudgetExceeded,
    FpMatrix,
    InvariantViolation,
    is_prime,
    matrix_rank,
)
from symnorm.oracle import brute_normalizer
from symnorm.perm import PermGroup, Permutation, format_group, parse_group
from symnorm.search import (
    NormalizerResult,
    SearchConfig,
    SearchTimeout,
    normalizer_in_sym,
)

PRUNE_FLAGS = {
    "lds": "use_lds",
    "stabs": "use_stabs",
    "deep": "use_deep",
    "alldiff": "use_alldiff",
    "dualpart": "use_dual_partitions",
}


@dataclass
class RunRecord:
    """One computation: what ran, on what, and what came out."""

    instance: str
    method: str
    p: int
    degree: int
    order: str | None
    generators: list[str] = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    time_ms: int = 0
    timed_out: bool = False

    def to_text(self) -> str:
        lines = [
            f"instance {self.instance}",
            f"method {self.method}",
            f"p {self.p}",
            f"degree {self.degree}",
            f"order {self.order if self.order is not None else 'timeout'}",
            f"time_ms {self.time_ms}",
            f"timed_out {int(self.timed_out)}",
        ]
        for key in sorted(self.counters):
            lines.append(f"count.{key} {self.counters[key]}")
        for g in self.generators:
            lines.append(f"generator {g}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)


def instance_hash(p: int, degree: int, gens) -> str:
    text = f"{p} {degree}\n" + "\n".join(sorted(g.cycle_string() for g in gens))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# instance generation


def random_full_rank(rng: random.Random, p: int, k: int, dim: int) -> FpMatrix:
    """A dim x k matrix over F_p with full row rank, redrawn until the rank
    condition holds."""
    if not 1 <= dim <= k:
        raise ValueError("need 1 <= dim <= k")
    while True:
        rows = [[rng.randrange(p) for _ in range(k)] for _ in range(dim)]
        m = FpMatrix.from_rows(p, rows, k)
        if matrix_rank(m) == dim:
            return m


def _no_zero_column(m: FpMatrix) -> bool:
    return all(any(m.col(j)) for j in range(1, m.k + 1))


def gen_instance(
    p: int, k: int, dim: int, seed: int, dihedral: bool = False
) -> tuple[PermGroup, str]:
    """Deterministic random instance: the group and its exchange text.

    Plain mode emits the block group of one random full-rank code.  The
    dihedral mode overlays reflection patterns from a second random code
    over F_2; both parts are redrawn until no orbit is left untouched, so
    every restriction is genuinely dihedral.  dim bounds only the drawn
    rotations: the group's rotations are their normal closure, closed
    under the reflections' sign flips, which is usually all of F_p^k.
    """
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    rng = random.Random(seed)
    if not dihedral:
        m = random_full_rank(rng, p, k, dim)
        grp = code_to_group(m)
        return grp, format_group(p, p * k, grp.generators)

    if p == 2:
        raise ValueError("dihedral instances need an odd prime")
    while True:
        rot = random_full_rank(rng, p, k, dim)
        if _no_zero_column(rot):
            break
    while True:
        refl = random_full_rank(rng, 2, k, max(1, k // 2))
        if _no_zero_column(refl):
            break
    gens = list(code_to_group(rot).generators)
    for row in refl.rows:  # a reflection u -> -u of every block where row is 1
        gens.append(block_perm(p, [p - 1 if bit else 1 for bit in row], [0] * k))
    grp = PermGroup.from_gens(p * k, gens)
    return grp, format_group(p, p * k, grp.generators)


# ---------------------------------------------------------------------------
# computation entry point


def _oracle_in_support(grp: PermGroup) -> NormalizerResult:
    """brute_normalizer in Sym(support), like the other methods: H is
    relabelled onto 1..m for its m moved points, and the generators found
    are mapped back, fixing every other point."""
    support = grp.support()
    index = {pt: i for i, pt in enumerate(support, start=1)}
    small = PermGroup.from_gens(
        len(support),
        [Permutation([index[x.image(pt)] for pt in support]) for x in grp.generators],
    )
    norm = brute_normalizer(small)
    gens = []
    for g in norm.generators:
        imgs = list(range(1, grp.degree + 1))
        for i, pt in enumerate(support, start=1):
            imgs[pt - 1] = support[g.image(i) - 1]
        gens.append(Permutation(imgs))
    return NormalizerResult(tuple(gens), norm.order(), {}, "oracle")


def compute(
    text: str,
    method: str = "full",
    config: SearchConfig | None = None,
) -> RunRecord:
    """Run one normaliser computation on a group in exchange format.

    All output generators are verified (by conjugation of the input
    generators) before the record is emitted; a wall-clock limit in the
    config turns into a censored record instead of an exception.
    """
    p, degree, gens = parse_group(text)
    grp = PermGroup.from_gens(degree, gens)
    cfg = config or SearchConfig()
    started = time.monotonic()
    record = RunRecord(
        instance=instance_hash(p, degree, grp.generators),
        method=method,
        p=p,
        degree=degree,
        order=None,
    )
    try:
        if method in ("full", "limitdepth"):
            result = normalizer_in_sym(grp, p, method=method, cfg=cfg)
        elif method == "dihedral":
            result = normalizer_dihedral(build_dihedral(grp, p), cfg)
        elif method == "oracle":
            result = _oracle_in_support(grp)
        else:
            raise ValueError(f"unknown method {method!r}")
    except SearchTimeout:
        record.timed_out = True
        record.time_ms = int((time.monotonic() - started) * 1000)
        return record
    record.order = str(result.order)
    record.generators = [g.cycle_string() for g in result.generators]
    record.counters = {
        key: v for key, v in result.stats.items() if isinstance(v, int)
    }
    record.time_ms = int((time.monotonic() - started) * 1000)
    return record


# ---------------------------------------------------------------------------
# benchmark harness


@dataclass(frozen=True)
class BenchCell:
    p: int
    k: int
    dim: int
    dihedral: bool = False

    def label(self) -> str:
        tag = " dihedral" if self.dihedral else ""
        return f"p={self.p} k={self.k} dim={self.dim}{tag}"


def parse_family(spec: str) -> list[BenchCell]:
    """Family specs look like "p=3,k=10,dim=5;p=5,k=8,dim=4[,dihedral]"."""
    cells = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        fields = {}
        dihedral = False
        for item in part.split(","):
            item = item.strip()
            if item == "dihedral":
                dihedral = True
                continue
            key, _, value = item.partition("=")
            fields[key.strip()] = int(value)
        try:
            cells.append(
                BenchCell(fields["p"], fields["k"], fields["dim"], dihedral)
            )
        except KeyError as exc:
            raise ValueError(f"family cell {part!r} is missing {exc}") from exc
    if not cells:
        raise ValueError("empty family spec")
    return cells


def bench(
    cells: list[BenchCell],
    trials: int,
    time_limit: float,
    method: str = "full",
) -> list[dict]:
    """Per cell: run `trials` seeded instances under the limit and report
    median and quartiles of the completed runs, censoring timeouts."""
    table = []
    for cell in cells:
        times = []
        censored = 0
        for seed in range(trials):
            _, text = gen_instance(
                cell.p, cell.k, cell.dim, seed, dihedral=cell.dihedral
            )
            cfg = SearchConfig(time_limit=time_limit)
            rec = compute(
                text, method="dihedral" if cell.dihedral else method, config=cfg
            )
            if rec.timed_out:
                censored += 1
            else:
                times.append(rec.time_ms / 1000.0)
        entry = {
            "cell": cell.label(),
            "trials": trials,
            "censored": censored,
            "median_s": None,
            "lower_q_s": None,
            "upper_q_s": None,
        }
        if times:
            times.sort()
            entry["median_s"] = round(statistics.median(times), 4)
            if len(times) >= 2:
                qs = statistics.quantiles(times, n=4, method="inclusive")
                entry["lower_q_s"] = round(qs[0], 4)
                entry["upper_q_s"] = round(qs[2], 4)
            else:
                entry["lower_q_s"] = entry["upper_q_s"] = entry["median_s"]
        table.append(entry)
    return table


def format_bench_table(table: list[dict]) -> str:
    lines = [f"{'cell':30} {'median':>9} {'lower':>9} {'upper':>9} {'censored':>9}"]
    for entry in table:
        med = "-" if entry["median_s"] is None else f"{entry['median_s']:.3f}"
        lo = "-" if entry["lower_q_s"] is None else f"{entry['lower_q_s']:.3f}"
        hi = "-" if entry["upper_q_s"] is None else f"{entry['upper_q_s']:.3f}"
        lines.append(
            f"{entry['cell']:30} {med:>9} {lo:>9} {hi:>9} "
            f"{entry['censored']:>9}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument handling


def _config_from_args(args) -> SearchConfig:
    cfg = SearchConfig()
    for rule in args.no_prune or []:
        flag = PRUNE_FLAGS.get(rule)
        if flag is None:
            raise ValueError(
                f"unknown pruning rule {rule!r}; known: {', '.join(PRUNE_FLAGS)}"
            )
        setattr(cfg, flag, False)
    if args.time_limit is not None:
        _check_seconds("--time-limit", args.time_limit, zero_ok=True)
        cfg.time_limit = args.time_limit
    return cfg


def _check_seconds(flag: str, value: float, zero_ok: bool) -> None:
    if not math.isfinite(value) or value < 0 or (value == 0 and not zero_ok):
        bound = ">= 0" if zero_ok else "> 0"
        raise ValueError(f"{flag} must be finite and {bound} seconds, got {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="symnorm",
        description="normalisers in symmetric groups via codes over prime fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random instance")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--dim", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--dihedral", action="store_true")
    g.add_argument("--out", type=str, default=None)

    c = sub.add_parser("compute", help="compute a normaliser")
    c.add_argument("--in", dest="infile", type=str, required=True)
    c.add_argument(
        "--method",
        choices=["full", "limitdepth", "dihedral", "oracle"],
        default="full",
    )
    c.add_argument("--no-prune", action="append", metavar="RULE")
    c.add_argument("--time-limit", type=float, default=None)
    c.add_argument("--json", action="store_true")

    b = sub.add_parser("bench", help="run a benchmark family")
    b.add_argument("--family", type=str, required=True)
    b.add_argument("--trials", type=int, default=10)
    b.add_argument("--timeout", type=float, default=600.0)
    b.add_argument(
        "--method", choices=["full", "limitdepth"], default="full"
    )
    b.add_argument("--json", action="store_true")

    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            _, text = gen_instance(
                args.p, args.k, args.dim, args.seed, dihedral=args.dihedral
            )
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(text + "\n")
            else:
                print(text)
            return 0
        if args.command == "compute":
            with open(args.infile) as fh:
                text = fh.read()
            record = compute(text, args.method, _config_from_args(args))
            print(record.to_json() if args.json else record.to_text())
            return 0
        if args.command == "bench":
            if args.trials < 1:
                raise ValueError(f"--trials must be at least 1, got {args.trials}")
            _check_seconds("--timeout", args.timeout, zero_ok=False)
            table = bench(
                parse_family(args.family), args.trials, args.timeout, args.method
            )
            if args.json:
                print(json.dumps(table, indent=2))
            else:
                print(format_bench_table(table))
            return 0
    except (NotInClass, BudgetExceeded, InvariantViolation, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
