"""Exhaustive generation of small algebras up to isomorphism.

Tables are filled cell by cell with backtracking.  The distinguished element
is pinned at index 0 (isomorphisms preserve it, so no class is lost).

Each axiom instance (an axiom with elements bound to its variables) is a
short program of table lookups.  A search node receives from its parent the
instances that still read an undefined cell.  It resumes only those whose
next lookup is the cell just set, passes on the ones still undetermined,
drops the ones now satisfied and prunes on a violation.  That is sound because an
instance that is determined and satisfied stays so in every extension, and
backtracking needs no undo because the parent's list is never changed.  In
associative mode the instances are associativity, the defining identity and
two facts provable from those axioms alone (the bundled derivations replay
the proofs): the constant is a central idempotent, so cell (0,0) is 0 and
row 0 equals column 0.  In tree mode they are the main identity and 0'' = 0.

Isomorphic copies are cut by the least-number heuristic of SEM (Zhang and
Zhang, IJCAI 1995).  Let mdn be the largest element that occurs so far as a
cell index or an assigned value.  Elements above max(mdn, i, j) are then
interchangeable, so cell (i, j) tries values only up to that bound plus one.

The first 2n-1 cells, row 0 and column 0, are filled in a fixed order:
(0,0), (0,1), (1,0), (0,2), (2,0), ...  The heuristic acts only there: once
(0, n-1) is set, mdn = n-1 and every cell tries every value.  Below that
prefix, any order of the remaining cells therefore visits the same complete
tables, and the walk branches fail-first (Haralick and Elliott, Artificial
Intelligence 14, 1980) on the free cell with the most instances waiting on
it, the lowest cell i*n + j among equals.  The choice moves the values tried
and the prunes of `SearchStats`, never its complete tables.

The table is one flat list, cell (i, j) at index i*n + j, the index the
instance lists use too.  A complete table is turned into its canonical form
at the leaf and goes into a set, so the walk keeps one blob per isomorphism
class, not its tables.  Once the walk is done, `models.check_axioms`, which
is independent of the search, checks each class once, on the representative
that is output.  `SearchStats` counts the values tried, the prunes, the
complete tables and the classes that check rejected.  The census is one walk
in one process: at orders up to 5 a worker pool never paid for its start-up.

`canonical_form` tries the relabelings that fix 0 in C-level operations: a
relabeling is an `operator.itemgetter` over the flat cells and a 256-byte
`bytes.translate` map over the values, and the (n-1)! of them are built once
per order.  A distinguished element d other than 0 is first swapped with 0,
so one table per order serves every d.  Only the tables of at most
MAX_KEPT_RELABELINGS entries are kept (orders up to 6), so what is held
cannot grow with the inputs.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import time
from dataclasses import dataclass
from typing import NamedTuple

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

MAX_ORDER = 5
# the largest relabeling table kept between calls: the 5! of order 6
MAX_KEPT_RELABELINGS = 120


@dataclass
class EnumerationReport:
    order: int
    mode: Mode
    algebras: tuple
    per_variety: dict | None = None
    stats: SearchStats | None = None
    elapsed_s: float | None = None  # wall time of the walk that made the census

    @property
    def count(self) -> int:
        return len(self.algebras)


def canonical_form(a: FiniteAlgebra) -> bytes:
    """Lexicographically least byte serialization over relabelings that send
    the distinguished element to index 0.  Equal bytes iff isomorphic.

    A distinguished element d other than 0 is first swapped with 0.  Every
    relabeling that sends d to 0 is a relabeling that fixes 0 after that
    transposition, so one table of the (n-1)! relabelings that fix 0 serves
    every d (see `_relabelings`)."""
    n = a.order
    if n == 1:  # one cell; an itemgetter of one index would not give a tuple
        return bytes([1, a.table[0][0]])
    d = a.distinguished
    if d:
        swap = list(range(n))
        swap[0], swap[d] = d, 0
        rows = a.table
        flat = bytes(swap[rows[swap[p]][swap[q]]] for p in range(n) for q in range(n))
    else:
        flat = bytes(itertools.chain.from_iterable(a.table))
    best = min(bytes(get(flat)).translate(pi) for get, pi in _relabelings(n))
    return bytes([n]) + best


_RELABELINGS: dict = {}  # order -> its relabelings, if at most MAX_KEPT_RELABELINGS


def _relabelings(n: int) -> list:
    """The relabelings of order n > 1 that fix 0, each as a pair (get, pi):
    `get` takes a flat table's cells in the relabeled row-major order, and
    `pi` is the 256-byte `bytes.translate` map from old values to new.  Kept
    when it has at most MAX_KEPT_RELABELINGS entries, built afresh above."""
    table = _RELABELINGS.get(n)
    if table is None:
        table = []
        for image in itertools.permutations(range(1, n)):
            pi = (0, *image)  # old label -> new label
            inv = [0] * n
            for old, new in enumerate(pi):
                inv[new] = old
            cells = [inv[p] * n + inv[q] for p in range(n) for q in range(n)]
            table.append((operator.itemgetter(*cells), bytes(pi).ljust(256, b"\0")))
        if len(table) <= MAX_KEPT_RELABELINGS:
            _RELABELINGS[n] = table
    return table


def algebra_from_canonical(blob: bytes) -> FiniteAlgebra:
    n = blob[0]
    flat = blob[1:]
    table = [[flat[p * n + q] for q in range(n)] for p in range(n)]
    return make_algebra(table, 0)


# ---------------------------------------------------------------------------
# Search engine
#
# A law is a pair of terms over registers: register 0 holds the constant,
# 1, 2, 3 the variables x, y, z, and a pair (s, u) is the product s·u
# (s > u in tree mode).  A law compiles to a program: steps (a, b), each
# appending the product of registers a and b, and the registers of its two
# sides.  An undetermined instance is (left, registers, program), where the
# first of the last `left` steps reads an undefined cell.  Nothing about the
# instance changes until that cell is set, so pending instances are kept in
# one list per cell, indexed by the cell's i*n + j.  Each list is sorted,
# fewest steps left first, so that a failing instance tends to be met early.

O, X, Y, Z = 0, 1, 2, 3

# Written out by hand rather than compiled from terms.AXIOM_TEXTS: the leaf
# check_axioms reads those texts, and it must stay independent of the search
# so that it can catch a fault in these laws or in the propagation.
_LAWS = {
    Mode.IS: (
        (((X, Y), Z), (X, (Y, Z))),  # associativity
        (((X, Y), Z), ((((((Z, O), X), Y), Z), O), O)),  # xyz = zOxyzOO
        ((O, O), O),  # O is an idempotent ...
        ((O, X), (X, O)),  # ... and central (derived, see the module doc)
    ),
    Mode.IZ: (
        (((X, Y), Z), ((((Z, O), X), ((Y, Z), O)), O)),  # (x>y)>z = ((z'>x)>(y>z)')'
        (((O, O), O), O),  # 0'' = 0
    ),
}


class SearchStats(NamedTuple):
    """What one walk of the search tree did."""

    nodes: int  # values tried at a cell
    prunes: int  # values an instance rejected
    leaves: int  # complete tables, each canonicalised into the walk's set
    leaf_rejects: int  # classes whose representative check_axioms rejected


def _atoms(term) -> tuple:
    return (term,) if isinstance(term, int) else _atoms(term[0]) + _atoms(term[1])


def _compile(law):
    """(arity, steps, lhs register, rhs register) of a law."""
    arity = max(_atoms(law))
    steps = []

    def emit(term):
        if isinstance(term, int):
            return term
        steps.append((emit(term[0]), emit(term[1])))
        return arity + len(steps)

    lhs, rhs = emit(law[0]), emit(law[1])
    return arity, tuple(steps), lhs, rhs


def _prefix(n: int) -> list:
    """Row 0 and column 0 as cells i*n + j, in their fixed fill order."""
    cells = [0]
    for j in range(1, n):
        cells += [j, j * n]
    return cells


def _root(n: int, mode: Mode) -> list:
    """The instance lists of the empty table: every instance, filed under
    the cell of its first lookup."""
    pending = [[] for _ in range(n * n)]
    for law in _LAWS[mode]:
        arity, steps, lhs, rhs = _compile(law)
        a, b = steps[0]
        for values in itertools.product(range(n), repeat=arity):
            regs = (0, *values)
            pending[regs[a] * n + regs[b]].append((len(steps), regs, (steps, lhs, rhs)))
    return [sorted(due) for due in pending]


def _propagate(pending, c, t, n):
    """The instances still undetermined once cell c of the flat table t is
    set, or None if one fails.  `pending` and its lists are not changed."""
    moved = []
    for left, regs, program in pending[c]:
        steps, lhs, rhs = program
        regs = list(regs)
        k = len(steps) - left
        while left:
            a, b = steps[k]
            cell = regs[a] * n + regs[b]
            value = t[cell]
            if value is None:
                moved.append((cell, (left, tuple(regs), program)))
                break
            regs.append(value)
            k += 1
            left -= 1
        else:
            if regs[lhs] != regs[rhs]:
                return None
    kept = pending.copy()
    for cell, inst in moved:
        if kept[cell] is pending[cell]:
            kept[cell] = pending[cell].copy()
        bisect.insort(kept[cell], inst)
    return kept


def _search(order: int, mode: Mode):
    """Walk the whole search tree.  Return the set of canonical forms of the
    complete tables and the walk's SearchStats, whose leaf_rejects is left
    to `_census`."""
    n = order
    prefix = _prefix(n)
    inner = [i * n + j for i in range(1, n) for j in range(1, n)]
    t = [None] * (n * n)
    out = set()
    nodes = prunes = leaves = 0

    def walk(k, pending, mdn):
        nonlocal nodes, prunes, leaves
        if k == n * n:
            leaves += 1
            rows = [t[i:i + n] for i in range(0, n * n, n)]
            out.add(canonical_form(make_algebra(rows, 0)))
            return
        if k < len(prefix):
            c = prefix[k]
        else:
            # fail first: the free cell with the most waiting instances; only
            # a strictly longer list replaces, so the lowest cell among equals
            # is kept
            most = -1
            for cell in inner:
                if t[cell] is None and len(pending[cell]) > most:
                    c, most = cell, len(pending[cell])
        # least-number heuristic: the elements above max(mdn, i, j) are
        # interchangeable so far, so only the first of them is tried
        bound = max(mdn, *divmod(c, n))
        for v in range(min(n - 1, bound + 1) + 1):
            nodes += 1
            t[c] = v
            kept = _propagate(pending, c, t, n)
            if kept is None:
                prunes += 1
            else:
                walk(k + 1, kept, max(bound, v))
        t[c] = None

    walk(0, _root(n, mode), 0)
    return out, SearchStats(nodes, prunes, leaves, 0)


_cache: dict = {}


def enumerate_algebras(order: int, mode: Mode, jobs: int = 1) -> EnumerationReport:
    """All algebras of the given order and mode, one canonical representative
    per isomorphism class, sorted by canonical bytes.  Refuses orders beyond
    the desk-scale bound.  `jobs` is checked (at least 1) but changes
    nothing: the walk is always one process."""
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > MAX_ORDER:
        raise ValueError(f"order {order} exceeds the enumeration bound {MAX_ORDER}")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    mode = Mode(mode)
    key = (order, mode)
    if key not in _cache:
        t0 = time.perf_counter()
        blobs, stats = _census(order, mode)
        _cache[key] = blobs, stats, time.perf_counter() - t0
    blobs, stats, elapsed_s = _cache[key]
    algebras = tuple(algebra_from_canonical(b) for b in blobs)
    per_variety = None
    if mode is Mode.IS:
        per_variety = {}
        for a in algebras:
            v = varieties.variety_of(a)
            per_variety[v] = per_variety.get(v, 0) + 1
    return EnumerationReport(order, mode, algebras, per_variety, stats, elapsed_s)


def _census(order: int, mode: Mode) -> tuple:
    """Sorted canonical blobs and the walk's SearchStats.  One walk collects
    the set of blobs, and then check_axioms runs once per class, on the
    representative that is output; leaf_rejects counts the classes it
    rejects."""
    blobs, stats = _search(order, mode)
    passed = tuple(
        blob for blob in sorted(blobs)
        if check_axioms(algebra_from_canonical(blob), mode).passed
    )
    return passed, stats._replace(leaf_rejects=len(blobs) - len(passed))


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
    keys: dict = {}  # variety -> word -> key, built when the variety first occurs
    for a in report.algebras:
        v = varieties.variety_of(a)
        counts[v] = counts.get(v, 0) + 1
        if v not in keys:
            keys[v] = {w: varieties.key(v, w) for w in words}
        class_of = word_value_classes(a, words)
        _, _, pair = varieties.compare_partitions(
            words, class_of.__getitem__, keys[v].__getitem__
        )
        if pair is not None:
            raise AssertionError(
                f"algebra satisfies a different identity set than {v}: {pair[0]} = {pair[1]}"
            )
    return counts


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
