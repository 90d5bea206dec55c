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

The walk is one recursion with two rules for choosing the next cell.  The
first 2n-1 cells, row 0 and column 0, come in a fixed order: (0,0), (0,1),
(1,0), (0,2), (2,0), ...; they are the prefix.  Below it the walk branches
fail-first (Haralick and Elliott, Artificial Intelligence 14, 1980) on the
free cell with the most instances waiting on it, the lowest cell i*n + j
among equals.

Isomorphic copies are cut twice.  First, on the prefix, by the least-number
heuristic of SEM (Zhang and Zhang, IJCAI 1995): let mdn be the largest
element that occurs so far as a cell index or an assigned value.  Elements
above max(mdn, i, j) are then interchangeable, so cell (i, j) tries values
only up to that bound plus one.  Once (0, n-1) is set, mdn = n-1 and the
heuristic cuts nothing more.  Second, over the whole table, by a lex-leader
predicate (Crawford, Ginsberg, Luks and Roy, "Symmetry-breaking predicates
for search problems", KR 1996): the table must be no greater than its image
under each relabeling that fixes 0, both read in one fixed order, the prefix
in fill order and then the other cells row by row.  The cut runs at every
node.  Each level passes down the relabelings not yet known to give a
greater image, each with the position where its comparison stopped.  A
comparison stops at the first position where either cell is unset, since
below the prefix the cells are filled fail-first, not in the fixed order.  A
relabeling is dropped once the table is smaller at a set position, and the
walk leaves the node once the table is greater.  A complete table therefore
passes exactly when it is the least of its images, so the walk reaches each
isomorphism class through exactly one complete table.

The cuts lose no class.  Take any solution T, and among its images under the
relabelings that fix 0 the least one, S, in the fixed order.  Every image of
S is an image of T, so no comparison ever finds S greater, at any node on the
way to S and whatever order the cells are set in: each one stops at an unset
cell, finds S smaller, or finds S equal to the end.  The fixed order begins
with the prefix, so S also has the least prefix of T's images, and it keeps
the least-number bound at every prefix cell: were a value v there above
w = max(mdn, i, j) + 1, swapping v and w would leave every earlier cell and
its value alone (all are at most mdn), keep the cell in place (i and j are
below w) and lower its value to w, making an image with a smaller prefix.
So the walk reaches S's prefix, and below the prefix every cell tries every
value, in any order of the cells, and the propagation prunes only tables
that break an axiom; S is a complete table of the walk.  The cell choice
below the prefix moves the values tried and the prunes of `SearchStats`,
never its complete tables.

The table is one flat list, cell (i, j) at index i*n + j, the index the
instance lists use too.  A complete table goes to `canonical_form` as bytes
straight from that flat list, with no rows and no `FiniteAlgebra` built,
and its canonical form goes into a set, so the walk keeps one blob per
isomorphism class, not its tables.  Once the walk is done, each class's
representative is built once, and `models.check_axioms`, which is
independent of the search, checks it; the representatives that pass are
the census.  `SearchStats` counts the values tried, the prunes, the
complete tables and the classes that check rejected.  The census is one
walk in one process: at orders up to 5 a worker pool never paid for its
start-up.

`canonical_form` tries the relabelings that fix 0 in C-level operations: a
relabeling is an `operator.itemgetter` over the flat cells and a 256-byte
`bytes.translate` map over the values, and the (n-1)! of them are built once
per order and kept.  The distinguished element d is first swapped with 0,
so one table per order serves every d.  `canonical_form` refuses orders
above MAX_CANONICAL_ORDER = 6, so at most five tables are kept, the largest
with 120 entries, and what is held cannot grow with the inputs.  The walk's
cut reads the same relabelings, built once per walk as pairs of cells in the
fixed order.
"""

from __future__ import annotations

import itertools
import operator
import time
from bisect import insort
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from . import varieties
from .models import (
    FiniteAlgebra,
    VerificationError,
    check_axioms,
    make_algebra,
    render_algebra,
    word_value_classes,
)
from .terms import Mode

MAX_ORDER = 5
MAX_CANONICAL_ORDER = 6  # keeps at most 5! = 120 relabelings per order


@dataclass(frozen=True)
class EnumerationReport:
    order: int
    mode: Mode
    algebras: tuple
    stats: SearchStats | None = None
    elapsed_s: float | None = None  # wall time of the walk that made the census
    # the least variety of each algebra, in associative mode only
    varieties: tuple | None = None

    @property
    def count(self) -> int:
        return len(self.algebras)

    @property
    def per_variety(self) -> dict | None:
        """How many algebras each variety has, in order of first occurrence."""
        return None if self.varieties is None else dict(Counter(self.varieties))


def canonical_form(a: FiniteAlgebra | bytes) -> bytes:
    """Lexicographically least byte serialization over relabelings that send
    the distinguished element to index 0.  Equal bytes iff isomorphic.

    `a` may also be a table as bytes laid out as the result is: the order,
    then the cells row by row, with 0 distinguished.  The census walk hands
    over its complete tables that way, building no rows and no algebra.

    The distinguished element d is first swapped with 0 (the identity when
    d = 0).  Every relabeling that sends d to 0 is a relabeling that fixes 0
    after that transposition, so one table of the (n-1)! relabelings that
    fix 0 serves every d (see `_relabelings`).  Refuses orders above 6, and
    bytes that are not an order n >= 1 followed by n*n cells below n."""
    if isinstance(a, bytes):
        n, flat = (a[0], a[1:]) if a else (0, a)
    else:
        n, d, rows = a.order, a.distinguished, a.table
        swap = list(range(n))
        swap[0], swap[d] = d, 0
        flat = bytes(swap[rows[swap[p]][swap[q]]] for p in range(n) for q in range(n))
    if n > MAX_CANONICAL_ORDER:
        raise ValueError(f"canonical_form: order {n} is above {MAX_CANONICAL_ORDER}")
    if not n or len(flat) != n * n or max(flat) >= n:  # in C: every census leaf comes here
        raise ValueError("canonical_form: bytes must be an order n >= 1, then n*n cells below n")
    if n == 1:  # one cell; an itemgetter of one index would not give a tuple
        return bytes([1, flat[0]])
    return bytes([n]) + min([bytes(get(flat)).translate(pi) for get, pi in _relabelings(n)])


@lru_cache(maxsize=None)  # orders 2 to MAX_CANONICAL_ORDER: at most five tables
def _relabelings(n: int) -> tuple:
    """The relabelings of order n > 1 that fix 0, each as a pair (get, pi):
    `get` takes from a flat table, for each cell in row-major order, the
    cell that the relabeling moves there, and `pi` is the 256-byte
    `bytes.translate` map from old values to new (see `_relabeled`)."""
    return tuple(
        (operator.itemgetter(*moved), bytes(pi).ljust(256, b"\0"))
        for moved, pi in _relabeled(n, range(n * n))
    )


def _relabeled(n: int, cells) -> list:
    """The relabelings of order n that fix 0, the identity first, each as a
    pair (moved, pi): `moved` lists, for each of `cells` in turn, the cell
    that the relabeling moves there, and `pi` maps old values to new."""
    table = []
    for image in itertools.permutations(range(1, n)):
        pi = (0, *image)  # old label -> new label
        inv = [0] * n
        for old, new in enumerate(pi):
            inv[new] = old
        table.append(([inv[c // n] * n + inv[c % n] for c in cells], pi))
    return table


def algebra_from_canonical(blob: bytes) -> FiniteAlgebra:
    n = blob[0]
    return make_algebra([blob[p:p + n] for p in range(1, n * n + 1, n)], 0)


# ---------------------------------------------------------------------------
# Search engine
#
# A law is a pair of terms over registers: register 0 holds the constant,
# 1, 2, 3 the variables x, y, z, and a pair (s, u) is the product s·u
# (s > u in tree mode).  A law compiles to steps (a, b), each appending the
# product of registers a and b, and the registers of its two sides.  Its
# steps are kept as suffix tuples, `tails[left]` the last `left` of them,
# so a resumption loops over `tails[left]` with no index arithmetic.  An
# undetermined instance is one flat tuple (left, regs, tails, lhs, rhs): the
# first of its last `left` steps reads an undefined cell, and `regs` is the
# list of registers computed so far.  A resumption copies `regs` before it
# appends, and a stored list is never changed, so backtracking needs no undo.
# Nothing about the instance changes until that cell is set, so pending
# instances are kept in one list per cell, indexed by the cell's i*n + j.
# Each list is kept ordered by `left` alone, fewest steps left first, so that
# a failing instance tends to be met early; the order among equal counts
# only decides which failing instance is met first, never the counts.
# `_search` is one walk: each level picks its cell by one of the module doc's
# two rules, then sets it to each value in turn, propagates, cuts and
# recurses.

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


_LEFT = operator.itemgetter(0)  # an instance's steps left, its sort key


def _root(n: int, mode: Mode) -> list:
    """The instance lists of the empty table: every instance, filed under
    the cell of its first lookup."""
    pending = [[] for _ in range(n * n)]
    for law in _LAWS[mode]:
        arity, steps, lhs, rhs = _compile(law)
        tails = tuple(steps[len(steps) - left:] for left in range(len(steps) + 1))
        a, b = steps[0]
        for values in itertools.product(range(n), repeat=arity):
            regs = [0, *values]
            pending[regs[a] * n + regs[b]].append((len(steps), regs, tails, lhs, rhs))
    for due in pending:
        due.sort(key=_LEFT)
    return pending


def _propagate(pending, c, t, n):
    """The instance lists once cell c of the flat table t is set, or None if
    an instance fails.  `pending`, its lists and their instances are not
    changed: a resumption appends to a copy of its registers."""
    moved = []
    v = t[c]
    for left, regs, tails, lhs, rhs in pending[c]:
        # the first step left reads cell c
        r = [*regs, v]
        for a, b in tails[left - 1]:
            value = t[r[a] * n + r[b]]
            if value is None:
                # the steps taken are the registers appended
                moved.append((r[a] * n + r[b], (left + len(regs) - len(r), r, tails, lhs, rhs)))
                break
            r.append(value)
        else:
            if r[lhs] != r[rhs]:
                return None
    if not moved:
        return pending
    kept = pending.copy()
    for cell, inst in moved:
        if kept[cell] is pending[cell]:
            kept[cell] = pending[cell].copy()
        insort(kept[cell], inst, key=_LEFT)
    return kept


def _cut(t, live):
    """The lex-leader cut at a node of the walk, on the flat table t.  Each
    member (pos, pairs, pi) of `live` is a relabeling not yet known to give
    a greater image of t: `pairs` lists each cell in the fixed order with
    the cell the relabeling moves there, `pi` maps old values to new, and
    the comparison of t with its image stopped at position pos.  Return the
    members whose comparison stops again at an unset cell, or None once t
    is greater than an image."""
    kept = []
    for pos, pairs, pi in live:
        for cell, moved in pairs[pos:]:
            own, image = t[cell], t[moved]
            if own is None or image is None:
                kept.append((pos, pairs, pi))
                break
            image = pi[image]
            if own != image:
                if own > image:
                    return None
                break  # t is smaller: this image can never cut it
            pos += 1
    return kept


def _images(n: int) -> list:
    """The members of `_cut`'s list at the root of the walk: each relabeling
    that fixes 0, but the identity, over the fixed order (the prefix in fill
    order, then the other cells row by row), its comparison at position 0.
    Orders 1 and 2 have none, so their walks cut nothing."""
    prefix = _prefix(n)
    fixed = prefix + sorted(set(range(n * n)) - set(prefix))
    return [(0, tuple(zip(fixed, moved)), pi) for moved, pi in _relabeled(n, fixed)[1:]]


def _search(order: int, mode: Mode):
    """Walk the whole search tree.  Return the set of canonical forms of the
    complete tables and the walk's SearchStats, whose leaf_rejects is left
    to `_census`."""
    n = order
    prefix = _prefix(n)
    width = len(prefix)
    t = [None] * (n * n)
    out = set()
    propagate, cut = _propagate, _cut
    nodes = prunes = leaves = 0

    def walk(k, pending, free, mdn, live):
        """Set the k-th cell of the walk: prefix[k] while the prefix lasts,
        then the fail-first choice among the sorted `free` cells.  `live`
        is the cut's list for the cells set so far (see `_cut`)."""
        nonlocal nodes, prunes, leaves
        if k < width:
            c = prefix[k]
            # least-number heuristic: the elements above max(mdn, i, j) are
            # interchangeable so far, so only the first of them is tried
            mdn = max(mdn, *divmod(c, n))
            top = min(mdn + 2, n)
        elif free:
            # the free cell with the most waiting instances; the first
            # maximum is the lowest cell among equals
            sizes = [len(pending[cell]) for cell in free]
            i = sizes.index(max(sizes))
            c = free[i]
            free = free[:i] + free[i + 1:]
            top = n
        else:
            leaves += 1
            out.add(canonical_form(bytes([n, *t])))
            return
        nodes += top
        k += 1
        for v in range(top):
            t[c] = v
            kept = propagate(pending, c, t, n)
            if kept is None:
                prunes += 1
                continue
            below = cut(t, live)
            if below is not None:  # else t is greater than one of its images
                walk(k, kept, free, v if v > mdn else mdn, below)
        t[c] = None

    walk(0, _root(n, mode), [i * n + j for i in range(1, n) for j in range(1, n)], 0, _images(n))
    return out, SearchStats(nodes, prunes, leaves, 0)


_cache: dict = {}  # (order, mode) -> its finished EnumerationReport


def enumerate_algebras(order: int, mode: Mode, jobs: int = 1) -> EnumerationReport:
    """All algebras of the given order and mode, one canonical representative
    per isomorphism class, sorted by canonical bytes; the report is built once
    and cached.  Refuses orders beyond the desk-scale bound.  `jobs` is checked
    (at least 1) but changes nothing: the walk is always one process."""
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
        algebras, stats = _census(order, mode)
        elapsed_s = time.perf_counter() - t0
        kinds = None
        if mode is Mode.IS:
            kinds = tuple(varieties.variety_of(a) for a in algebras)
        _cache[key] = EnumerationReport(order, mode, algebras, stats, elapsed_s, kinds)
    return _cache[key]


def _census(order: int, mode: Mode) -> tuple:
    """The class representatives, sorted by canonical form, and the walk's
    SearchStats.  One walk collects the set of canonical forms; then each
    class's representative is built once and check_axioms runs once on it.
    leaf_rejects counts the classes it rejects."""
    blobs, stats = _search(order, mode)
    reps = [algebra_from_canonical(blob) for blob in sorted(blobs)]
    passed = tuple(a for a in reps if check_axioms(a, mode).passed)
    return passed, stats._replace(leaf_rejects=len(blobs) - len(passed))


# ---------------------------------------------------------------------------
# Classification


def classify(report: EnumerationReport) -> dict:
    """Verify, over the bounded exhaustive identity set, that each algebra
    satisfies exactly the identities its variety in the report decides true;
    return the count per variety.  A mismatch would mean an unlisted variety."""
    if report.mode is not Mode.IS:
        raise ValueError("classification applies to associative mode only")
    words = varieties.exhaustive_identity_words()
    # variety -> dense ids of its keys, built when the variety first occurs;
    # word_value_classes numbers classes by first occurrence too
    ids: dict = {}
    for a, v in zip(report.algebras, report.varieties):
        if v not in ids:
            ids[v] = varieties.key_ids(v, words)
        class_of = word_value_classes(a, words)
        _, _, pair = varieties.compare_ids(words, [class_of[w] for w in words], ids[v])
        if pair is not None:
            raise VerificationError(
                f"algebra satisfies a different identity set than {v}: {pair[0]} = {pair[1]}"
            )
    return report.per_variety


# ---------------------------------------------------------------------------
# Report rendering (one algebra per block, summary footer)


def render_report(report: EnumerationReport) -> str:
    blocks = [render_algebra(a).rstrip("\n") for a in report.algebras]
    if report.varieties is not None:
        blocks = [f"# variety: {v}\n{b}" for v, b in zip(report.varieties, blocks)]
    footer = f"order={report.order} mode={report.mode.value} classes={report.count}"
    return "\n\n".join(blocks + [footer]) + "\n"
