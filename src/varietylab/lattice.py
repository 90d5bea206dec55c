"""Finite lattices and the computed subvariety lattice.

The sixteen-element order is computed semantically (every generator of V
satisfies every basis identity of W), never copied from the expected diagram;
the 25-cover expectation below is verification data that the build is checked
against.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import namedtuple

from . import models, varieties
from .varieties import Variety


class LatticeError(models.VerificationError):
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


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class FiniteLattice:
    """Immutable finite lattice over hashable element labels.

    ``leq(x, y)`` is the order as a relation on the labels: true iff x is
    below y, asked once per ordered pair.  It is kept as int bitsets: bit j
    of ``_up[i]`` (and bit i of ``_down[j]``) is set iff element i is below
    element j.  Join and meet tables are computed eagerly; construction
    fails if any pair lacks a unique least upper or greatest lower bound.
    """

    def __init__(self, elements, leq):
        self.elements = tuple(elements)
        n = len(self.elements)
        if len(set(self.elements)) != n:
            raise LatticeError("duplicate elements")
        up = [sum(1 << j for j, y in enumerate(self.elements) if leq(x, y)) for x in self.elements]
        for i in range(n):
            if not up[i] >> i & 1:
                raise LatticeError(f"not reflexive at {self.elements[i]}")
        for i, j in itertools.product(range(n), repeat=2):
            if i != j and up[i] >> j & 1 and up[j] >> i & 1:
                raise LatticeError(
                    f"not antisymmetric at ({self.elements[i]}, {self.elements[j]})"
                )
            if up[i] >> j & 1 and up[j] & ~up[i]:
                k = next(_bits(up[j] & ~up[i]))
                raise LatticeError(
                    f"not transitive at ({self.elements[i]}, "
                    f"{self.elements[j]}, {self.elements[k]})"
                )
        self._up = tuple(up)
        self._down = tuple(
            sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)
        )
        self._index = {e: i for i, e in enumerate(self.elements)}
        strict = [up[i] & ~(1 << i) for i in range(n)]
        self._covers = tuple(
            s & ~functools.reduce(operator.or_, (strict[k] for k in _bits(s)), 0)
            for s in strict
        )
        self._join = tuple(
            tuple(self._bound(self._up, i, j, upper=True) for j in range(n))
            for i in range(n)
        )
        self._meet = tuple(
            tuple(self._bound(self._down, i, j, upper=False) for j in range(n))
            for i in range(n)
        )

    def _bound(self, cone, i, j, upper):
        # the common bounds of i and j, cone[k] being k's up-set (upper) or
        # down-set; the least (greatest) one has all the others in its cone
        mask = cone[i] & cone[j]
        candidates = [k for k in _bits(mask) if not mask & ~cone[k]]
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
        return bool(self._up[self._index[x]] >> self._index[y] & 1)

    def join(self, x, y):
        return self.elements[self._join[self._index[x]][self._index[y]]]

    def meet(self, x, y):
        return self.elements[self._meet[self._index[x]][self._index[y]]]

    def covers(self) -> tuple:
        """Cover pairs (lower, upper) in row-major index order."""
        return tuple(
            (self.elements[i], self.elements[j])
            for i, row in enumerate(self._covers)
            for j in _bits(row)
        )

    def least(self):
        full = (1 << len(self.elements)) - 1
        for i, up in enumerate(self._up):
            if up == full:
                return self.elements[i]
        raise LatticeError("no least element")

    def atoms(self) -> frozenset:
        bottom = self.index(self.least())
        return frozenset(self.elements[j] for j in _bits(self._covers[bottom]))

    def restrict(self, subset) -> "FiniteLattice":
        # induced order; bounds are recomputed, so pass a join/meet-closed
        # subset (a down-set, a chain) when sublattice structure matters
        return FiniteLattice(subset, self.leq)

    def down_set(self, x) -> "FiniteLattice":
        return self.restrict(self.elements[i] for i in _bits(self._down[self._index[x]]))

    @classmethod
    def from_cover_pairs(cls, elements, pairs) -> "FiniteLattice":
        elements = tuple(elements)
        index = {e: i for i, e in enumerate(elements)}
        n = len(elements)
        up = [1 << i for i in range(n)]
        for lo, hi in pairs:
            up[index[lo]] |= 1 << index[hi]
        # reflexive-transitive closure (Warshall)
        for k in range(n):
            for i in range(n):
                if up[i] >> k & 1:
                    up[i] |= up[k]
        return cls(elements, lambda x, y: up[index[x]] >> index[y] & 1)

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
    lat = FiniteLattice(varieties.registry(), varieties.generator_leq)
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
    """The pentagon sublattice whose sorted element indices come first, or None.

    By Dedekind's criterion, a < c and b with a v b = c v b and a ^ b = c ^ b
    span the pentagon a ^ b < a < c < a v b, with b off that chain.  A 5-set
    spans at most one pentagon, so ties in the sort key cannot occur.
    """
    join, meet, idx = lat._join, lat._meet, range(len(lat))
    found = [
        (meet[a][b], a, b, c, join[a][b])
        for a, c in itertools.permutations(idx, 2)
        if lat._up[a] >> c & 1
        for b in idx
        if join[a][b] == join[c][b] and meet[a][b] == meet[c][b]
    ]
    return N5(*(lat.elements[k] for k in min(found, key=sorted))) if found else None


def is_distributive(lat: FiniteLattice):
    """Exhaustive triple check of meet-over-join distributivity."""
    j, m = lat._join, lat._meet
    for x, y, z in itertools.product(range(len(lat)), repeat=3):
        if m[x][j[y][z]] != j[m[x][y]][m[x][z]]:
            return False, tuple(lat.elements[k] for k in (x, y, z))
    return True, None


def is_zero_distributive(lat: FiniteLattice):
    """x^z = y^z = bottom forces (x v y)^z = bottom, checked exhaustively."""
    j, m, bottom = lat._join, lat._meet, lat.index(lat.least())
    for x, y, z in itertools.product(range(len(lat)), repeat=3):
        if m[x][z] == bottom and m[y][z] == bottom:
            if m[j[x][y]][z] != bottom:
                return False, tuple(lat.elements[k] for k in (x, y, z))
    return True, None


def neutral_elements(lat: FiniteLattice) -> frozenset:
    """Elements x with (x^y)v(y^z)v(z^x) = (xvy)^(yvz)^(zvx) for all y, z; the
    median identity alone characterises neutrality (Grätzer, General Lattice
    Theory, §III.2)."""
    j, m, idx = lat._join, lat._meet, range(len(lat))
    return frozenset(
        lat.elements[x]
        for x in idx
        if all(
            j[j[m[x][y]][m[y][z]]][m[z][x]] == m[m[j[x][y]][j[y][z]]][j[z][x]]
            for y, z in itertools.product(idx, repeat=2)
        )
    )
