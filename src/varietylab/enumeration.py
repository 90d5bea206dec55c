"""Exhaustive generation of small algebras up to isomorphism.

Tables are filled cell by cell with backtracking.  The distinguished element
is pinned at index 0 (isomorphisms preserve it, so no class is lost) and
every axiom instance whose reads are all defined is checked on the fly.
Associative mode prunes harder through two facts provable from its axioms
alone (the bundled derivations replay the proofs): the constant is a central
idempotent, so cell (0,0) is 0 and row 0 equals column 0.  Tree mode prunes
only on instances of its two axioms.
"""

from __future__ import annotations

import itertools
import multiprocessing
from dataclasses import dataclass

from . import varieties
from .models import (
    FiniteAlgebra,
    check_axioms,
    make_algebra,
    render_algebra,
    word_value_classes,
)
from .terms import Mode
from .varieties import Variety

MAX_ORDER = 4


@dataclass
class EnumerationReport:
    order: int
    mode: Mode
    algebras: tuple
    per_variety: dict | None = None

    @property
    def count(self) -> int:
        return len(self.algebras)


def canonical_form(a: FiniteAlgebra) -> bytes:
    """Lexicographically least byte serialization over relabelings that send
    the distinguished element to index 0.  Equal bytes iff isomorphic."""
    n = a.order
    d = a.distinguished
    rest = [i for i in range(n) if i != d]
    best = None
    for image in itertools.permutations(range(1, n)):
        pi = [0] * n
        pi[d] = 0
        inv = [d] * n
        for new, old in zip(image, rest):
            pi[old] = new
            inv[new] = old
        flat = bytes(
            pi[a.table[inv[p]][inv[q]]] for p in range(n) for q in range(n)
        )
        if best is None or flat < best:
            best = flat
    if best is None:  # order 1
        best = bytes([a.table[0][0]])
    return bytes([n]) + best


def algebra_from_canonical(blob: bytes) -> FiniteAlgebra:
    n = blob[0]
    flat = blob[1:]
    table = [[flat[p * n + q] for q in range(n)] for p in range(n)]
    return make_algebra(table, 0)


# ---------------------------------------------------------------------------
# Partial-table constraint checks


def _partial_ok_is(t, n) -> bool:
    # omega is a central idempotent in every valid table; prune early
    if t[0][0] is not None and t[0][0] != 0:
        return False
    for i in range(1, n):
        if t[0][i] is not None and t[i][0] is not None and t[0][i] != t[i][0]:
            return False
    # omega cubed folds to omega (subsumed by the pinned cell, kept explicit)
    c = t[0][0]
    if c is not None and t[c][0] is not None and t[c][0] != 0:
        return False
    rng = range(n)
    for x in rng:
        tx = t[x]
        for y in rng:
            xy = tx[y]
            if xy is None:
                continue
            for z in rng:
                yz = t[y][z]
                if yz is None:
                    continue
                lhs = t[xy][z]
                rhs = tx[yz]
                if lhs is not None and rhs is not None and lhs != rhs:
                    return False
    # defining identity: xyz = z O x y z O O, checked where determined
    for x in rng:
        for y in rng:
            xy = t[x][y]
            if xy is None:
                continue
            for z in rng:
                lhs = t[xy][z]
                if lhs is None:
                    continue
                acc = t[z][0]
                ok = True
                for v in (x, y, z, 0, 0):
                    if acc is None:
                        ok = False
                        break
                    acc = t[acc][v]
                if ok and acc is not None and acc != lhs:
                    return False
    return True


def _partial_ok_iz(t, n) -> bool:
    # 0'' = 0 as soon as both reads exist; everything else comes from the
    # main identity's instances, so no derived fact is assumed here
    c = t[0][0]
    if c is not None:
        if t[c][0] is not None and t[c][0] != 0:
            return False
    rng = range(n)
    for x in rng:
        for y in rng:
            xy = t[x][y]
            if xy is None:
                continue
            for z in rng:
                lhs = t[xy][z]
                if lhs is None:
                    continue
                zp = t[z][0]
                if zp is None:
                    continue
                left = t[zp][x]
                yz = t[y][z]
                if left is None or yz is None:
                    continue
                yzp = t[yz][0]
                if yzp is None:
                    continue
                mid = t[left][yzp]
                if mid is None:
                    continue
                rhs = t[mid][0]
                if rhs is not None and rhs != lhs:
                    return False
    return True


def _cell_order(n: int):
    cells = [(0, 0)]
    for j in range(1, n):
        cells.append((0, j))
        cells.append((j, 0))
    for i in range(1, n):
        for j in range(1, n):
            cells.append((i, j))
    return cells


def _search(order: int, mode: Mode, row0=None):
    """Yield all full tables (distinguished pinned at 0) passing the axioms."""
    n = order
    check = _partial_ok_is if mode is Mode.IS else _partial_ok_iz
    t = [[None] * n for _ in range(n)]
    cells = _cell_order(n)
    if row0 is not None:
        for j, v in enumerate(row0):
            t[0][j] = v
        if not check(t, n):
            return
        cells = [(i, j) for (i, j) in cells if i != 0]

    def fill(k):
        if k == len(cells):
            table = tuple(tuple(row) for row in t)
            if check_axioms(make_algebra(table, 0), mode).passed:
                yield table
            return
        i, j = cells[k]
        for v in range(n):
            t[i][j] = v
            if check(t, n):
                yield from fill(k + 1)
            t[i][j] = None

    yield from fill(0)


def _solve_chunk(args):
    order, mode, row0 = args
    return [canonical_form(make_algebra(table, 0)) for table in _search(order, mode, row0)]


_cache: dict = {}


def enumerate_algebras(order: int, mode: Mode, jobs: int = 1) -> EnumerationReport:
    """All algebras of the given order and mode, one canonical representative
    per isomorphism class, sorted by canonical bytes.  Refuses orders beyond
    the desk-scale bound."""
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the enumeration bound {MAX_ORDER}")
    mode = Mode(mode)
    key = (order, mode)
    if key not in _cache:
        _cache[key] = _enumerate(order, mode, jobs)
    blobs = _cache[key]
    algebras = tuple(algebra_from_canonical(b) for b in blobs)
    per_variety = None
    if mode is Mode.IS:
        per_variety = {}
        for a in algebras:
            v = varieties.variety_of(a)
            per_variety[v] = per_variety.get(v, 0) + 1
    return EnumerationReport(order, mode, algebras, per_variety)


def _enumerate(order: int, mode: Mode, jobs: int) -> tuple:
    if jobs > 1 and order > 1:
        rows = [(order, mode, row0) for row0 in itertools.product(range(order), repeat=order)]
        with multiprocessing.Pool(jobs) as pool:
            chunks = pool.map(_solve_chunk, rows)
        blobs = {blob for chunk in chunks for blob in chunk}
    else:
        blobs = {
            canonical_form(make_algebra(table, 0)) for table in _search(order, mode)
        }
    return tuple(sorted(blobs))


def clear_cache():
    _cache.clear()


# ---------------------------------------------------------------------------
# Classification


def classify(report: EnumerationReport) -> dict:
    """Assign each algebra its least variety and verify, over the bounded
    exhaustive identity set, that the algebra satisfies exactly the identities
    its variety decides true.  A mismatch would mean an unlisted variety."""
    if report.mode is not Mode.IS:
        raise ValueError("classification applies to associative mode only")
    words = varieties.exhaustive_identity_words()
    counts: dict = {}
    for a in report.algebras:
        v = varieties.variety_of(a)
        counts[v] = counts.get(v, 0) + 1
        separating = _coincidence_gap(a, v, words)
        if separating is not None:
            raise AssertionError(
                f"algebra satisfies a different identity set than {v}: {separating}"
            )
    return counts


def _coincidence_gap(a: FiniteAlgebra, v: Variety, words):
    class_of = word_value_classes(a, words)
    _, _, pair = varieties.compare_partitions(
        words, class_of.__getitem__, lambda w: varieties.key(v, w)
    )
    return None if pair is None else f"{pair[0]} = {pair[1]}"


# ---------------------------------------------------------------------------
# Report rendering (one algebra per block, summary footer)


def render_report(report: EnumerationReport) -> str:
    blocks = []
    for a in report.algebras:
        lines = []
        if report.mode is Mode.IS:
            lines.append(f"# variety: {varieties.variety_of(a)}")
        lines.append(render_algebra(a).rstrip("\n"))
        blocks.append("\n".join(lines))
    footer = f"order={report.order} mode={report.mode.value} classes={report.count}"
    return "\n\n".join(blocks + [footer]) + "\n"
