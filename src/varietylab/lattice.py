"""Finite lattices and the computed subvariety lattice.

The sixteen-element order is computed semantically (every generator of V
satisfies every basis identity of W), never copied from the expected diagram;
the 25-cover expectation below is verification data that the build is checked
against.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

import numpy as np

from . import varieties
from .varieties import Variety


class LatticeError(ValueError):
    pass


# Verification data: the covers the computed order must reproduce exactly.
EXPECTED_COVERS = (
    (Variety.T, Variety.ZM),
    (Variety.T, Variety.SL),
    (Variety.ZM, Variety.K),
    (Variety.ZM, Variety.SL_ZM),
    (Variety.SL, Variety.SL_ZM),
    (Variety.SL, Variety.B),
    (Variety.K, Variety.M),
    (Variety.K, Variety.L),
    (Variety.K, Variety.SL_K),
    (Variety.SL_ZM, Variety.SL_K),
    (Variety.SL_ZM, Variety.B_ZM),
    (Variety.B, Variety.B_ZM),
    (Variety.M, Variety.N),
    (Variety.M, Variety.SL_M),
    (Variety.L, Variety.N),
    (Variety.L, Variety.SL_L),
    (Variety.SL_K, Variety.SL_M),
    (Variety.SL_K, Variety.SL_L),
    (Variety.SL_L, Variety.B_K),
    (Variety.B_ZM, Variety.B_K),
    (Variety.N, Variety.SL_N),
    (Variety.SL_M, Variety.SL_N),
    (Variety.SL_L, Variety.SL_N),
    (Variety.SL_N, Variety.IS),
    (Variety.B_K, Variety.IS),
)

N5 = namedtuple("N5", "o a b c i")


class FiniteLattice:
    """Immutable finite lattice over hashable element labels.

    ``leq[i, j]`` means element i is below element j.  Join and meet tables
    are computed eagerly; construction fails if any pair lacks a unique
    least upper or greatest lower bound.
    """

    def __init__(self, elements, leq):
        self.elements = tuple(elements)
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise LatticeError("duplicate elements")
        leq = np.asarray(leq, dtype=bool)
        if leq.shape != (n, n):
            raise LatticeError(f"order matrix must be {n}x{n}")
        for i in range(n):
            if not leq[i, i]:
                raise LatticeError(f"not reflexive at {self.elements[i]}")
        for i, j in itertools.product(range(n), repeat=2):
            if i != j and leq[i, j] and leq[j, i]:
                raise LatticeError(
                    f"not antisymmetric at ({self.elements[i]}, {self.elements[j]})"
                )
            if leq[i, j]:
                for k in range(n):
                    if leq[j, k] and not leq[i, k]:
                        raise LatticeError(
                            f"not transitive at ({self.elements[i]}, "
                            f"{self.elements[j]}, {self.elements[k]})"
                        )
        leq.setflags(write=False)
        self._leq = leq
        self._index = {e: i for i, e in enumerate(self.elements)}
        strict = leq & ~np.eye(n, dtype=bool)
        self._covers = strict & ~(strict @ strict)
        self._join = np.empty((n, n), dtype=int)
        self._meet = np.empty((n, n), dtype=int)
        for i, j in itertools.product(range(n), repeat=2):
            self._join[i, j] = self._bound(leq, i, j, upper=True)
            self._meet[i, j] = self._bound(leq, i, j, upper=False)

    def _bound(self, leq, i, j, upper):
        if upper:
            mask = leq[i] & leq[j]
            candidates = [k for k in np.flatnonzero(mask) if (leq[k] | ~mask).all()]
        else:
            mask = leq[:, i] & leq[:, j]
            candidates = [k for k in np.flatnonzero(mask) if (leq[:, k] | ~mask).all()]
        if len(candidates) != 1:
            kind = "least upper" if upper else "greatest lower"
            raise LatticeError(
                f"no unique {kind} bound for ({self.elements[i]}, {self.elements[j]})"
            )
        return candidates[0]

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, x) -> int:
        return self._index[x]

    def leq(self, x, y) -> bool:
        return bool(self._leq[self._index[x], self._index[y]])

    def join(self, x, y):
        return self.elements[self._join[self._index[x], self._index[y]]]

    def meet(self, x, y):
        return self.elements[self._meet[self._index[x], self._index[y]]]

    def covers(self) -> tuple:
        return tuple(
            (self.elements[i], self.elements[j])
            for i, j in zip(*np.nonzero(self._covers))
        )

    def least(self):
        for i in range(len(self.elements)):
            if self._leq[i].sum() == len(self.elements):
                return self.elements[i]
        raise LatticeError("no least element")

    def greatest(self):
        for i in range(len(self.elements)):
            if self._leq[:, i].sum() == len(self.elements):
                return self.elements[i]
        raise LatticeError("no greatest element")

    def atoms(self) -> frozenset:
        bottom = self.index(self.least())
        return frozenset(self.elements[j] for j in np.flatnonzero(self._covers[bottom]))

    def restrict(self, subset) -> "FiniteLattice":
        # induced order; bounds are recomputed, so pass a join/meet-closed
        # subset (a down-set, a chain) when sublattice structure matters
        keep = [self._index[x] for x in subset]
        return FiniteLattice(
            tuple(self.elements[i] for i in keep), self._leq[np.ix_(keep, keep)]
        )

    def down_set(self, x) -> "FiniteLattice":
        top = self._index[x]
        keep = [e for i, e in enumerate(self.elements) if self._leq[i, top]]
        return self.restrict(keep)

    @classmethod
    def from_cover_pairs(cls, elements, pairs) -> "FiniteLattice":
        elements = tuple(elements)
        index = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        leq = np.eye(n, dtype=bool)
        for lo, hi in pairs:
            leq[index[lo], index[hi]] = True
        # reflexive-transitive closure
        changed = True
        while changed:
            closed = leq | (leq @ leq)
            changed = bool((closed != leq).any())
            leq = closed
        return cls(elements, leq)

    def to_dot(self) -> str:
        """Hasse diagram, edges bottom to top, byte-stable ordering."""
        lines = ["digraph hasse {", "  rankdir=BT;"]
        for name in sorted(str(e) for e in self.elements):
            lines.append(f'  "{name}";')
        for lo, hi in sorted((str(a), str(b)) for a, b in self.covers()):
            lines.append(f'  "{lo}" -> "{hi}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_lattice() -> FiniteLattice:
    """Compute the subvariety order from generators and bases, then insist it
    reproduces the expected 16 elements and 25 covers."""
    elems = tuple(rec.id for rec in varieties.registry())
    leq = [[varieties.generator_leq(v, w) for w in elems] for v in elems]
    lat = FiniteLattice(elems, leq)
    if len(lat.elements) != 16:
        raise LatticeError(f"expected 16 elements, built {len(lat.elements)}")
    computed = set(lat.covers())
    expected = set(EXPECTED_COVERS)
    for pair in sorted(computed - expected, key=str):
        raise LatticeError(f"unexpected cover {pair[0]} < {pair[1]}")
    for pair in sorted(expected - computed, key=str):
        raise LatticeError(f"missing cover {pair[0]} < {pair[1]}")
    return lat


# ---------------------------------------------------------------------------
# Order-theoretic property checks


def find_n5(lat: FiniteLattice):
    """First pentagon sublattice in deterministic order, or None."""
    n = len(lat.elements)
    leq = lat._leq
    e = lat.elements
    for combo in itertools.combinations(range(n), 5):
        bottoms = [x for x in combo if all(leq[x, y] for y in combo)]
        tops = [x for x in combo if all(leq[y, x] for y in combo)]
        if len(bottoms) != 1 or len(tops) != 1:
            continue
        o, i = bottoms[0], tops[0]
        rest = [x for x in combo if x not in (o, i)]
        for b in rest:
            p, q = (x for x in rest if x != b)
            if leq[p, q]:
                lo, hi = p, q
            elif leq[q, p]:
                lo, hi = q, p
            else:
                continue
            if leq[b, lo] or leq[lo, b] or leq[b, hi] or leq[hi, b]:
                continue
            if (
                lat.join(e[lo], e[b]) == e[i]
                and lat.join(e[hi], e[b]) == e[i]
                and lat.meet(e[lo], e[b]) == e[o]
                and lat.meet(e[hi], e[b]) == e[o]
            ):
                return N5(e[o], e[lo], e[b], e[hi], e[i])
    return None


def is_distributive(lat: FiniteLattice):
    """Exhaustive triple check of meet-over-join distributivity."""
    for x, y, z in itertools.product(lat.elements, repeat=3):
        if lat.meet(x, lat.join(y, z)) != lat.join(lat.meet(x, y), lat.meet(x, z)):
            return False, (x, y, z)
    return True, None


def is_zero_distributive(lat: FiniteLattice):
    """x^z = y^z = bottom forces (x v y)^z = bottom, checked exhaustively."""
    bottom = lat.least()
    for x, y, z in itertools.product(lat.elements, repeat=3):
        if lat.meet(x, z) == bottom and lat.meet(y, z) == bottom:
            if lat.meet(lat.join(x, y), z) != bottom:
                return False, (x, y, z)
    return True, None


def neutral_elements(lat: FiniteLattice) -> frozenset:
    """Elements generating a distributive sublattice with every pair, via the
    median equation plus join- and meet-distributivity of the element."""
    out = []
    for x in lat.elements:
        ok = True
        for y, z in itertools.product(lat.elements, repeat=2):
            median_meet = lat.join(lat.join(lat.meet(x, y), lat.meet(y, z)), lat.meet(z, x))
            median_join = lat.meet(lat.meet(lat.join(x, y), lat.join(y, z)), lat.join(z, x))
            if median_meet != median_join:
                ok = False
                break
            if lat.meet(x, lat.join(y, z)) != lat.join(lat.meet(x, y), lat.meet(x, z)):
                ok = False
                break
            if lat.join(x, lat.meet(y, z)) != lat.meet(lat.join(x, y), lat.join(x, z)):
                ok = False
                break
        if ok:
            out.append(x)
    return frozenset(out)


def atoms(lat: FiniteLattice) -> frozenset:
    return lat.atoms()
