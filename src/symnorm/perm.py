"""Permutations of {1..n} and permutation groups given by generators.

Permutations are immutable lookup tables acting on the right, so
i^(gh) = (i^g)^h: a byte table up to degree 256 and a numpy index table
above.  Points are 1-based everywhere to match the text exchange formats.
Stabiliser chains give exact orders, membership tests and pointwise
stabilisers.  A chain built against a known order is filled from a
product-replacement walk with a fixed seed, and every other chain is built
by deterministic Schreier-Sims, so search traces and regression tests are
reproducible.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


_PAD = bytes(range(256))
_FILL_MISSES = 30  # trivial sifts in a row before a fill gives up


def _index_dtype(n: int):
    """The dtype of the index table of a permutation of degree n > 256."""
    return np.uint16 if n <= 65536 else np.uint32


@lru_cache(maxsize=8)
def _iota(n: int) -> tuple[np.ndarray, bytes]:
    """The index table of the identity of degree n > 256, and its bytes."""
    table = np.arange(n, dtype=_index_dtype(n))
    table.flags.writeable = False
    return table, table.tobytes()


class Permutation:
    """A permutation of {1..n}; images[i-1] is the image of point i.

    Degrees up to 256 are backed by a 256-byte lookup table, so composition
    runs through bytes.translate.  Larger degrees are backed by a 0-based
    numpy index table, uint16 up to degree 65,536 and uint32 above; the
    dtype depends only on the degree, so the table's bytes are a canonical
    key.  Tables are never written after construction.
    """

    __slots__ = ("_n", "_t", "_b")

    def __init__(self, images):
        images = tuple(images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError("not a permutation of {1..n}")
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_t", images)
        object.__setattr__(
            self,
            "_b",
            bytes(x - 1 for x in images) + _PAD[n:]
            if n <= 256
            else (np.array(images, dtype=np.int64) - 1).astype(_index_dtype(n)),
        )

    @classmethod
    def _from_table(cls, n: int, table) -> "Permutation":
        self = object.__new__(cls)
        object.__setattr__(self, "_n", n)
        object.__setattr__(self, "_t", None)
        object.__setattr__(self, "_b", table)
        return self

    @property
    def images(self) -> tuple:
        if self._t is None:
            object.__setattr__(
                self,
                "_t",
                tuple(x + 1 for x in self._b[: self._n])
                if self._n <= 256
                else tuple((self._b.astype(np.int64) + 1).tolist()),
            )
        return self._t

    # construction -----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._from_table(n, _PAD if n <= 256 else _iota(n)[0])

    @classmethod
    def from_cycles(cls, n: int, cycles) -> "Permutation":
        """Build from disjoint cycles; repeated points are rejected."""
        images = list(range(1, n + 1))
        used: set[int] = set()
        for cyc in cycles:
            cyc = tuple(cyc)
            if used & set(cyc) or len(set(cyc)) != len(cyc):
                raise ValueError(f"cycles are not disjoint at {cyc}")
            used.update(cyc)
            for idx, a in enumerate(cyc):
                if not 1 <= a <= n:
                    raise ValueError(f"point {a} out of range 1..{n}")
                images[a - 1] = cyc[(idx + 1) % len(cyc)]
        return cls(images)

    @property
    def degree(self) -> int:
        return self._n

    def image(self, i: int) -> int:
        if self._n <= 256:
            return self._b[i - 1] + 1
        return self._b.item(i - 1) + 1

    def is_identity(self) -> bool:
        if self._n <= 256:
            return self._b == _PAD
        return self._b.tobytes() == _iota(self._n)[1]

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.images, start=1) if x != i)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Permutation) or self._n != other._n:
            return False
        if self._n <= 256:
            return self._b == other._b
        return self._b.tobytes() == other._b.tobytes()

    def __hash__(self) -> int:
        if self._n <= 256:
            return hash((self._n, self._b))
        return hash((self._n, self._b.tobytes()))

    def __setattr__(self, *a):  # immutability
        raise AttributeError("Permutation is immutable")

    # arithmetic -------------------------------------------------------

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Right-action composition: apply self first, then other."""
        if self._n != other._n:
            raise ValueError("degree mismatch")
        if self._n <= 256:
            return Permutation._from_table(self._n, self._b.translate(other._b))
        return Permutation._from_table(self._n, other._b.take(self._b))

    def inverse(self) -> "Permutation":
        b = self._b
        if self._n <= 256:
            inv = bytearray(_PAD)
            for i in range(self._n):
                inv[b[i]] = i
            return Permutation._from_table(self._n, bytes(inv))
        inv = np.empty_like(b)
        inv[b] = _iota(self._n)[0]
        return Permutation._from_table(self._n, inv)

    def __pow__(self, e: int) -> "Permutation":
        if e < 0:
            return self.inverse() ** (-e)
        result = Permutation.identity(self._n)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def conj(self, s: "Permutation") -> "Permutation":
        """self conjugated by s, i.e. s^-1 * self * s."""
        if self._n != s._n:
            raise ValueError("degree mismatch")
        if self._n <= 256:
            return Permutation._from_table(
                self._n, s.inverse()._b.translate(self._b).translate(s._b)
            )
        out = np.empty_like(s._b)  # the image of s(i) is s(self(i))
        out[s._b] = s._b.take(self._b)
        return Permutation._from_table(self._n, out)

    # structure --------------------------------------------------------

    def cycles(self) -> list[tuple[int, ...]]:
        images = self.images
        seen = set()
        out = []
        for i in range(1, self._n + 1):
            if i in seen:
                continue
            cyc = [i]
            j = images[i - 1]
            seen.add(i)
            while j != i:
                seen.add(j)
                cyc.append(j)
                j = images[j - 1]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation[{self.cycle_string()}]"


_CYCLE_RE = re.compile(r"\(\s*([0-9]+(?:[,\s]+[0-9]+)*)?\s*\)")


def parse_permutation(text: str, n: int) -> Permutation:
    """Parse cycle notation like "(1 2)(3 4)" or an image array like
    "[2 1 4 3]"; "()" is the identity."""
    stripped = text.strip()
    if stripped.startswith("["):
        if not stripped.endswith("]"):
            raise ValueError(f"unterminated image array {text!r}")
        body = stripped[1:-1].strip()
        imgs = [int(x) for x in re.split(r"[,\s]+", body)] if body else []
        if len(imgs) != n:
            raise ValueError(f"image array {text!r} does not have {n} entries")
        return Permutation(imgs)
    if stripped in ("()", "", "id"):
        return Permutation.identity(n)
    cycles = []
    pos = 0
    for match in _CYCLE_RE.finditer(stripped):
        if stripped[pos : match.start()].strip():
            raise ValueError(f"cannot parse permutation {text!r}")
        body = match.group(1)
        if body:
            cycles.append(tuple(int(x) for x in re.split(r"[,\s]+", body.strip())))
        pos = match.end()
    if stripped[pos:].strip() or not cycles:
        raise ValueError(f"cannot parse permutation {text!r}")
    return Permutation.from_cycles(n, cycles)


# ---------------------------------------------------------------------------
# orbits and restrictions


def orbit_of(point: int, gens) -> set[int]:
    seen = {point}
    frontier = [point]
    while frontier:
        nxt = []
        for pt in frontier:
            for g in gens:
                im = g.images[pt - 1]
                if im not in seen:
                    seen.add(im)
                    nxt.append(im)
        frontier = nxt
    return seen


def orbits_of(gens, domain) -> list[list[int]]:
    """Orbits of the group generated by gens meeting the given points.

    Each orbit is sorted and the list is sorted by minimum, so the result
    is deterministic.  Orbits may extend beyond the domain.
    """
    remaining = sorted(set(domain))
    seen: set[int] = set()
    out = []
    for pt in remaining:
        if pt in seen:
            continue
        orb = orbit_of(pt, gens)
        seen |= orb
        out.append(sorted(orb))
    out.sort(key=lambda o: o[0])
    return out


# ---------------------------------------------------------------------------
# stabiliser chains


class _Level:
    __slots__ = (
        "beta",
        "gens",
        "transversal",
        "transversal_inv",
        "order_added",
        "checked",
        "dirty",
    )

    def __init__(self, beta: int, ident: Permutation):
        self.beta = beta
        self.gens: list[Permutation] = []  # append-only
        self.transversal: dict[int, Permutation] = {beta: ident}
        self.transversal_inv: dict[int, Permutation] = {beta: ident}
        self.order_added: list[int] = [beta]  # orbit points in discovery order
        self.checked: set[tuple[int, int]] = set()  # verified (point, gen index)
        self.dirty = False


class StabChain:
    """Base-and-strong-generators chain.

    base_prefix forces the leading base points (useful for pointwise
    stabiliser queries); further base points are the smallest moved points
    of the residues that need them.  Transversal representatives are fixed
    once discovered, so verified Schreier generators stay verified and the
    construction never repeats work; extend() grows a built chain by one
    generator on the same terms.

    Given the group's order, the chain is first filled with the residues
    of random elements and is complete as soon as the product of its
    orbit lengths reaches that order (every strong generator lies in the
    group); if it does not get there, the deterministic build finishes it.
    A wrong order thus either costs the full build or, if too small, leaves
    a chain that may reject members, never one that accepts a non-member.
    """

    def __init__(self, degree: int, generators, base_prefix=(), order=None):
        self.degree = degree
        self.base: list[int] = []
        self._levels: list[_Level] = []
        self._known: set[Permutation] = set()
        self._ident = Permutation.identity(degree)
        for b in base_prefix:
            self._append_base_point(b)
        for g in generators:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
            self._place(g)
        if order is None or not self._fill(order):
            self._build()

    def extend(self, g: Permutation):
        """Add g to the generators, keeping every check already made."""
        if g.degree != self.degree:
            raise ValueError("generator degree mismatch")
        self._place(g)
        self._build()

    # -- plumbing ------------------------------------------------------

    def _append_base_point(self, beta: int):
        self.base.append(beta)
        self._levels.append(_Level(beta, self._ident))

    def _place(self, g: Permutation) -> int:
        """Record g as a strong generator; returns the deepest level it joins."""
        if g.is_identity() or g in self._known:
            return -1
        self._known.add(g)
        depth = 0
        while depth < len(self.base) and g.image(self.base[depth]) == self.base[depth]:
            depth += 1
        if depth == len(self.base):
            self._append_base_point(g.support()[0])
        for i in range(depth + 1):
            lvl = self._levels[i]
            lvl.gens.append(g)
            lvl.dirty = True
        return depth

    def _extend_orbit(self, i: int):
        """Grow level i's orbit, keeping representatives already assigned."""
        lvl = self._levels[i]
        if not lvl.dirty:
            return
        queue = list(lvl.order_added)
        pos = 0
        while pos < len(queue):
            pt = queue[pos]
            pos += 1
            u = lvl.transversal[pt]
            for g in lvl.gens:
                im = g.image(pt)
                if im not in lvl.transversal:
                    rep = u * g
                    lvl.transversal[im] = rep
                    lvl.transversal_inv[im] = rep.inverse()
                    lvl.order_added.append(im)
                    queue.append(im)
        lvl.dirty = False

    def _sift(self, g: Permutation, start: int = 0) -> tuple[Permutation, int]:
        h = g
        for i in range(start, len(self._levels)):
            self._extend_orbit(i)
            lvl = self._levels[i]
            im = h.image(lvl.beta)
            if im not in lvl.transversal:
                return h, i
            h = h * lvl.transversal_inv[im]
        return h, len(self._levels)

    def _fill(self, order: int) -> bool:
        """Sift elements of a seeded product-replacement walk (with an
        accumulator) and place their residues until the chain's order is
        the given one; False after _FILL_MISSES trivial sifts in a row."""
        gens = self._levels[0].gens if self._levels else []
        state = (gens * 10)[: max(10, len(gens))]
        rng, acc, misses = random.Random(0), self._ident, 0
        while self.order() != order:
            if misses == _FILL_MISSES or not state:
                return False
            i, j = rng.sample(range(len(state)), 2)
            state[i] = state[i] * state[j]
            acc = acc * state[i]
            h, _ = self._sift(acc)
            misses = misses + 1 if h.is_identity() else 0
            self._place(h)
        return True

    def _build(self):
        i = len(self._levels) - 1
        while i >= 0:
            self._extend_orbit(i)
            lvl = self._levels[i]
            new_strong = None
            for pt in lvl.order_added:
                u = lvl.transversal[pt]
                for gi, g in enumerate(lvl.gens):
                    if (pt, gi) in lvl.checked:
                        continue
                    im = g.image(pt)
                    schreier = u * g * lvl.transversal_inv[im]
                    h, j = self._sift(schreier, i + 1)
                    if h.is_identity():
                        lvl.checked.add((pt, gi))
                        continue
                    self._place(h)
                    new_strong = min(j, len(self._levels) - 1)
                    break
                if new_strong is not None:
                    break
            if new_strong is not None:
                i = new_strong
                continue
            i -= 1

    # -- queries -------------------------------------------------------

    def order(self) -> int:
        n = 1
        for i in range(len(self._levels)):
            self._extend_orbit(i)
            n *= len(self._levels[i].transversal)
        return n

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        h, _ = self._sift(g)
        return h.is_identity()

    def stabilizer_gens(self, num_points: int) -> list[Permutation]:
        """Strong generators fixing the first num_points base points."""
        if num_points > len(self.base):
            raise ValueError("chain base is shorter than the requested prefix")
        if num_points == len(self.base):
            return []
        return list(self._levels[num_points].gens)

    def orbit_under_stabilizer(self, num_points: int, pt: int) -> set[int]:
        """Orbit of pt under the pointwise stabiliser of base[:num_points]."""
        return orbit_of(pt, self.stabilizer_gens(num_points))


@dataclass(frozen=True, eq=False)
class PermGroup:
    """A permutation group given by generators on {1..degree}, and its
    order where a closed form gives it."""

    degree: int
    generators: tuple[Permutation, ...]
    known_order: int | None = None
    _chain_cache: list = field(default_factory=list, repr=False)

    @classmethod
    def from_gens(cls, degree: int, gens, known_order=None) -> "PermGroup":
        filtered = []
        seen = set()
        for g in gens:
            if g.degree != degree:
                raise ValueError("generator degree mismatch")
            if not g.is_identity() and g not in seen:
                seen.add(g)
                filtered.append(g)
        return cls(degree, tuple(filtered), known_order)

    @classmethod
    def trivial(cls, degree: int) -> "PermGroup":
        return cls(degree, ())

    def chain(self) -> StabChain:
        if not self._chain_cache:
            self._chain_cache.append(StabChain(self.degree, self.generators))
        return self._chain_cache[0]

    def order(self) -> int:
        return self.known_order or self.chain().order()

    def contains(self, g: Permutation) -> bool:
        return self.chain().contains(g)

    def support(self) -> list[int]:
        pts: set[int] = set()
        for g in self.generators:
            pts.update(g.support())
        return sorted(pts)

    def elements(self, limit: int = 10**7) -> list[Permutation]:
        """Every element, by closure; guarded by the limit."""
        ident = Permutation.identity(self.degree)
        seen = {ident.images: ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for h in frontier:
                for g in self.generators:
                    prod = h * g
                    if prod.images not in seen:
                        if len(seen) >= limit:
                            raise OverflowError("group too large to enumerate")
                        seen[prod.images] = prod
                        nxt.append(prod)
            frontier = nxt
        return sorted(seen.values(), key=lambda x: x.images)


# ---------------------------------------------------------------------------
# group text exchange format


def format_group(p: int, degree: int, gens) -> str:
    lines = [f"{p} {degree}"]
    lines += [g.cycle_string() for g in gens]
    return "\n".join(lines)


def parse_group(text: str) -> tuple[int, int, list[Permutation]]:
    """Parse the group exchange format: "p n" then one generator per line."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty group text")
    try:
        p, n = (int(x) for x in lines[0].split())
        if n < 0:
            raise ValueError
    except ValueError as exc:
        raise ValueError(f"bad group header {lines[0]!r}") from exc
    gens = []
    for lineno, ln in enumerate(lines[1:], start=2):
        try:
            gens.append(parse_permutation(ln, n))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    return p, n, gens
