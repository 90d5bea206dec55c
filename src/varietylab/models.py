"""Finite (2,0)-algebras as operation tables, with an exact identity oracle.

An algebra is an n-by-n table plus a distinguished element (the constant).
In associative mode words evaluate by folding the table left to right; in
tree mode terms evaluate recursively with ``table[i][j]`` read as ``i -> j``.
``evaluate`` is that reference evaluator.

``satisfies`` and ``check_axioms`` do not call it: they compile an identity
once into a register program and run the program over all assignments.
Register 0 holds the constant and registers 1..k the identity's sorted
letters; each step (out, a, b) sets register out to
``table[regs[a]][regs[b]]``.  A word compiles as a left fold and a tree term
by a post-order walk, one step per product.  A step's level is the last
letter it reads, 0 for none, and the run nests one loop per letter:
the loop of letter j runs only the steps of level j, so a step is redone
only when a letter it reads changes.  ``check_axioms`` compiles its laws once
per mode: the axiom texts of ``terms.AXIOM_TEXTS`` and, in associative mode,
associativity first, as the tree law ``((x>y)>z) = (x>(y>z))`` since flat
words build it in.  Every witness, of ``satisfies`` and of each
``AxiomCheck``, is the letter -> element dict of the lexicographically first
failing assignment, so associativity's is the first failing triple.

The leading letters loop; the last m = ``_block_width(n, k)`` of k letters
sweep as one block of byte lanes, one lane per assignment of them
(Lamport, "Multiple byte processing with full-word instructions", CACM
1975).  A register then holds an element (``int``) or a vector
(``bytes``), and a block step picks its product from the types of its two
operands: a vector times an element is one ``bytes.translate`` through its
row or column padded to 256 bytes.  A program is one immutable value at
every block width; a run writes only its own registers.  Orders 1 to 3
loop over every letter: at order 3 a block halves a census class's
``check_axioms`` but makes the census oracle's, which fail at the first
assignments, 14% slower.  From ``LANE_MIN_ORDER`` = 4 to
``MAX_LANE_ORDER`` = 16 as many letters as fit ``BLOCK_LANES`` = 4096
lanes sweep, and a vector times a vector is one carry-free big-integer
multiply-add u*n + v, each lane below 256, and one translate through the
flat table; the first lane where the sides differ is the top nonzero byte
of their xor.  From 17 to 256 one letter sweeps, a vector times a vector
being one ``map`` over the rows: unpacked, a wider block is slower
(``check_axioms`` on M x M: 2.7 ms with one letter, 6.4 ms with two).
Above 256 an element does not fit a lane.  A sweep of more than
``MAX_ASSIGNMENTS`` = 10^7 is refused.

``word_value_classes`` is a second, batched route that shares no
evaluation code with the register programs, their lane blocks included.
It holds a word's values over all assignments as one ``bytes`` vector, one
byte lane per assignment, and builds each word's vector from its prefix's
with whole-vector operations (packed byte lanes again): one carry-free
big-integer multiply-add puts the index u*n + c of each product's table
cell in its lane, and one ``bytes.translate`` through the flat table reads
the cells.  A lane holds at most n*n - 1, so the route serves orders up to
``MAX_LANE_ORDER`` = 16.  Same sweep bound; its columns are closed-form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import getitem

from .terms import (
    AXIOM_TEXTS,
    OMEGA,
    Arrow,
    Identity,
    Mode,
    Var,
    Word,
    Zero,
    identity_letters,
    numbered_lines,
    parse_identity,
)


class VerificationError(ValueError):
    """A fact the package checks did not verify: exit 1, or a FAIL line in verify-paper."""


class AxiomViolationError(VerificationError):
    """An algebra failed its axiom check where passing was a precondition."""

    def __init__(self, report: "AxiomReport"):
        bad = [c for c in report.checks if not c.passed]
        detail = "; ".join(f"{c.name} fails at {c.witness}" for c in bad)
        super().__init__(f"axiom check failed: {detail}")
        self.report = report


@dataclass(frozen=True)
class FiniteAlgebra:
    """Cayley table with a distinguished element index."""

    table: tuple
    distinguished: int
    name: str | None = None
    element_names: tuple | None = None

    def __post_init__(self):
        n = len(self.table)
        if n < 1:
            raise ValueError("algebras have at least one element")
        for row in self.table:
            if len(row) != n:
                raise ValueError("table must be square")
            _check_range(n, row, "table entry")
        _check_range(n, (self.distinguished,), "distinguished element")
        if self.element_names is not None and len(self.element_names) != n:
            raise ValueError("element_names length mismatch")

    @property
    def order(self) -> int:
        return len(self.table)

    @cached_property
    def _lane_tables(self) -> tuple:
        # for _run's block sweeps: the table and its transpose, flat
        return tuple(bytes(itertools.chain.from_iterable(t)) for t in (self.table, zip(*self.table)))

    def element_name(self, i: int) -> str:
        if self.element_names is not None:
            return self.element_names[i]
        return str(i)

    def __repr__(self) -> str:
        label = self.name or f"order-{self.order}"
        return f"FiniteAlgebra({label}, distinguished={self.distinguished})"


def _check_range(n: int, values, what: str) -> None:
    """Refuse the first of values not an int in 0..n-1, as ``{what} {v} out of range``."""
    for v in values:
        if type(v) is not int or not 0 <= v < n:
            raise ValueError(f"{what} {v} out of range")


def make_algebra(rows, distinguished, name=None, element_names=None) -> FiniteAlgebra:
    return FiniteAlgebra(
        tuple(tuple(r) for r in rows),
        distinguished,
        name,
        tuple(element_names) if element_names is not None else None,
    )


# ---------------------------------------------------------------------------
# Evaluation and satisfaction


def evaluate(a: FiniteAlgebra, t, assignment: dict) -> int:
    """Value of a word (left fold) or tree term (recursion) under an assignment."""
    if isinstance(t, Word):
        acc = None
        for ch in t:
            v = a.distinguished if ch == "O" else _lookup(assignment, ch)
            acc = v if acc is None else a.table[acc][v]
        return acc
    if isinstance(t, Zero):
        return a.distinguished
    if isinstance(t, Var):
        return _lookup(assignment, t.name)
    if isinstance(t, Arrow):
        return a.table[evaluate(a, t.left, assignment)][evaluate(a, t.right, assignment)]
    raise TypeError(f"cannot evaluate {t!r}")


def _lookup(assignment: dict, letter: str) -> int:
    try:
        return assignment[letter]
    except KeyError:
        raise ValueError(f"unassigned letter {letter!r}") from None


@dataclass(frozen=True)
class SatResult:
    holds: bool
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.holds


# the least order at which _run sweeps letters as a block of byte lanes
LANE_MIN_ORDER = 4
# a lane of the packed vectors is one byte and holds u * n + c < n * n
MAX_LANE_ORDER = 16
# the most lanes of one packed block in _run
BLOCK_LANES = 4096
# the most assignments _run sweeps: about 1 s at lane orders and up to 5 s
# on the per-element loop; each further letter multiplies a sweep by n
MAX_ASSIGNMENTS = 10**7


def _check_sweep(n: int, k: int) -> None:
    """Refuse a sweep over the n^k assignments of k letters above ``MAX_ASSIGNMENTS``."""
    if n**k > MAX_ASSIGNMENTS:
        raise ValueError(f"{n}^{k} assignments to sweep, above {MAX_ASSIGNMENTS}")


@lru_cache(maxsize=None)
def _block_width(n: int, k: int) -> int:
    """How many of k letters _run sweeps as one block at order n."""
    if not LANE_MIN_ORDER <= n <= 256:
        return 0
    m = min(k, 1)
    while n <= MAX_LANE_ORDER and m < k and n ** (m + 1) <= BLOCK_LANES:
        m += 1
    return m


@lru_cache(maxsize=None)
def _block_columns(n: int, m: int) -> list:
    """The lanes of m letters in lexicographic order: letter t's column
    repeats each element n^(m-1-t) times, that run n^t times."""
    return [b"".join(bytes((e,)) * n ** (m - 1 - t) for e in range(n)) * n**t for t in range(m)]


_HOLDS = SatResult(True)  # what every passing sweep returns; it is frozen
_PAD = bytes(256)


def _run(a: FiniteAlgebra, program: tuple) -> SatResult:
    """Run a register program over all assignments in lexicographic order;
    the first one whose sides differ is the witness.  A sweep of more than
    ``MAX_ASSIGNMENTS`` assignments is refused with a ValueError.  The first
    k - m letters loop (``_differs``) and the last m sweep as one block
    (``_block_differs``), m = ``_block_width(n, k)``."""
    letters, levels, lhs, rhs, count = program
    table, n, k = a.table, a.order, len(letters)
    _check_sweep(n, k)
    regs = [a.distinguished] * count
    for out, x, y in levels[0]:
        regs[out] = table[regs[x]][regs[y]]
    m = _block_width(n, k)
    block = None
    if m:
        regs[k - m + 1:k + 1] = _block_columns(n, m)
        # padded so that the 256 bytes from any row's start are a translate map
        flat, flipped = (t + _PAD for t in a._lane_tables)
        block = (levels[k - m + 1:], m, flat, flipped, n <= MAX_LANE_ORDER and flat[:256])
    if k > m:
        failed = _differs(1, k - m, n, table, regs, levels, lhs, rhs, block)
    else:
        failed = _block_differs(0, n, table, regs, lhs, rhs, block) if m else regs[lhs] != regs[rhs]
    if failed:
        return SatResult(False, dict(zip(letters, regs[1:k + 1])))
    return _HOLDS


def _differs(j, p, n, table, regs, levels, lhs, rhs, block) -> bool:
    """Whether some values of letters j..p, then of the block's if any, make
    the sides differ: letter j's loop sets register j to each element and
    runs the steps of level j, so a step is redone only when a letter it
    reads changes.  Module-level, as closures cost each call their making."""
    steps = levels[j]
    for regs[j] in range(n):
        for out, x, y in steps:
            regs[out] = table[regs[x]][regs[y]]
        if j < p:
            if _differs(j + 1, p, n, table, regs, levels, lhs, rhs, block):
                return True
        elif block is None:
            if regs[lhs] != regs[rhs]:
                return True
        elif _block_differs(p, n, table, regs, lhs, rhs, block):
            return True
    return False


def _block_differs(p, n, table, regs, lhs, rhs, block) -> bool:
    """Whether some values of the letters after the first p make the sides
    differ, taken at once: their registers hold ``bytes`` vectors, one lane
    per assignment, and on a failure the values of the first failing lane.
    Each step reads a vector on at least one side; an ``int`` is an element."""
    levels, m, flat, flipped, cells = block
    size = n**m
    for steps in levels:
        for out, x, y in steps:
            u, v = regs[x], regs[y]
            if type(v) is int:  # vector times element: through its column, a row of the transpose
                e = v * n
                regs[out] = u.translate(flipped[e:e + 256])
            elif type(u) is int:  # element times vector: through its row
                e = u * n
                regs[out] = v.translate(flat[e:e + 256])
            elif cells:  # the cell index u * n + v in each lane, then the cell
                lanes = int.from_bytes(u, "big") * n + int.from_bytes(v, "big")
                regs[out] = lanes.to_bytes(size, "big").translate(cells)
            else:  # one lane per element, above MAX_LANE_ORDER
                regs[out] = bytes(map(getitem, map(table.__getitem__, u), v))
    u, v = regs[lhs], regs[rhs]
    if type(u) is int:
        u = bytes((u,)) * size
    if type(v) is int:
        v = bytes((v,)) * size
    if u == v:
        return False
    # the first lane that differs holds the top nonzero byte of u ^ v
    diff = int.from_bytes(u, "big") ^ int.from_bytes(v, "big")
    lane = size - 1 - (diff.bit_length() - 1) // 8
    for j in range(p + m, p, -1):
        lane, regs[j] = divmod(lane, n)
    return True


# The identities that recur are the few dozen of the bases and theorem lists;
# a larger cache mostly keeps one-off identities alive for the collector.
@lru_cache(maxsize=64)
def _program(ident: Identity) -> tuple:
    """The register program (letters, levels, lhs register, rhs register,
    register count) of ident: levels[j] holds, in order, the steps
    (out, a, b) whose last letter read is letter j, directly or through
    earlier steps.  A hashable tuple, shared by every run of ident."""
    letters = identity_letters(ident)
    register = {letter: r for r, letter in enumerate(letters, 1)}
    level = list(range(len(letters) + 1))  # of each register
    levels = [[] for _ in level]

    def step(a, b):
        out = len(level)
        j = level[a] if level[a] > level[b] else level[b]
        level.append(j)
        levels[j].append((out, a, b))
        return out

    def word(w):
        acc = None
        for ch in w:
            r = 0 if ch == OMEGA else register[ch]
            acc = r if acc is None else step(acc, r)
        return acc

    def tree(t):
        if isinstance(t, Arrow):
            return step(tree(t.left), tree(t.right))
        return register[t.name] if isinstance(t, Var) else 0

    side = word if ident.mode is Mode.IS else tree
    lhs, rhs = side(ident.lhs), side(ident.rhs)
    return letters, tuple(map(tuple, levels)), lhs, rhs, len(level)


def satisfies(a: FiniteAlgebra, ident) -> SatResult:
    """Exhaustive check over all assignments; first lexicographic witness kept."""
    if isinstance(ident, str):
        ident = parse_identity(ident)
    return _run(a, _program(ident))


def word_value_classes(a: FiniteAlgebra, words, letters=("x", "y", "z")) -> dict:
    """Map each word to an id of its value vector over all |A|^k assignments;
    ids count up from 0 in the order the vectors first occur.

    Two words get the same id iff the algebra satisfies their equation, so
    this is ``satisfies`` batched over a family of words sharing an alphabet.
    A vector is ``bytes`` with one lane per assignment, in the order of
    ``itertools.product``: of k letters, letter j's column repeats each
    element n^(k-1-j) times and that run n^j times; no assignment is built.
    A word's vector is its prefix's one symbol shorter, u, times the column c
    of its last symbol: the big integer of u times n plus the packed c puts
    u * n + c in each lane with no carry between lanes, and translating
    through the flat table padded to 256 bytes reads each lane's product.
    The prefix vectors are kept for the call, so each prefix is multiplied
    out once, whether or not it is in words and wherever it comes in them.
    A ValueError refuses an order above ``MAX_LANE_ORDER``, a sweep above
    ``MAX_ASSIGNMENTS`` and a symbol that is neither in letters nor O."""
    n = a.order
    if n > MAX_LANE_ORDER:
        raise ValueError(
            f"word_value_classes packs values in byte lanes: order {n} is above {MAX_LANE_ORDER}"
        )
    k = len(letters)
    _check_sweep(n, k)
    size = n**k
    columns = [b"".join(bytes((e,)) * n ** (k - 1 - j) for e in range(n)) * n**j for j in range(k)]
    base = dict(zip(letters, columns))
    base[OMEGA] = bytes((a.distinguished,)) * size
    packed = {symbol: int.from_bytes(vec, "big") for symbol, vec in base.items()}
    flat = bytes(itertools.chain.from_iterable(a.table)).ljust(256, b"\0")
    vectors = dict(base)  # a word or prefix -> its value vector
    ids: dict = {}
    class_of: dict = {}
    for w in words:
        vec = vectors.get(w)
        if vec is None:
            try:
                # the longest prefix already known; a single symbol is in base
                i = len(w) - 1
                while i > 1 and w[:i] not in vectors:
                    i -= 1
                vec = vectors[w[:i]]
                for i in range(i, len(w)):
                    lanes = int.from_bytes(vec, "big") * n + packed[w[i]]
                    vec = vectors[w[:i + 1]] = lanes.to_bytes(size, "big").translate(flat)
            except KeyError:  # a lookup misses only on a symbol outside base
                bad = next(c for c in w if c not in base)
                symbols = ", ".join(base)
                raise ValueError(f"word {w} has symbol {bad!r}, not one of {symbols}") from None
        class_of[w] = ids.setdefault(vec, len(ids))
    return class_of


# ---------------------------------------------------------------------------
# Axiom checks


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    witness: dict | None = None


@dataclass(frozen=True)
class AxiomReport:
    mode: Mode
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __bool__(self) -> bool:
        return self.passed


@lru_cache(maxsize=None)
def _axiom_programs(mode: Mode) -> tuple:
    """(name, register program) of each law of mode: in associative
    mode first associativity, in tree syntax since flat words build it in,
    then the defining identities, each named by its text."""
    laws = [(text, parse_identity(text, mode)) for text in AXIOM_TEXTS[mode]]
    if mode is Mode.IS:
        laws.insert(0, ("associativity", parse_identity("((x>y)>z) = (x>(y>z))", Mode.IZ)))
    return tuple((name, _program(ident)) for name, ident in laws)


def check_axioms(a: FiniteAlgebra, mode: Mode) -> AxiomReport:
    """Per-axiom pass/fail with witnesses: associativity plus the defining
    identities in associative mode, the two defining identities in tree mode."""
    mode = Mode(mode)
    checks = []
    for name, program in _axiom_programs(mode):
        res = _run(a, program)
        checks.append(AxiomCheck(name, res.holds, res.witness))
    return AxiomReport(mode, tuple(checks))


# ---------------------------------------------------------------------------
# Constructions


def direct_product(a: FiniteAlgebra, b: FiniteAlgebra) -> FiniteAlgebra:
    """Componentwise product on pairs, (i, j) encoded as i * |b| + j."""
    na, nb = a.order, b.order
    table = [
        [
            (a.table[i][k] * nb + b.table[j][m])
            for k in range(na)
            for m in range(nb)
        ]
        for i in range(na)
        for j in range(nb)
    ]
    names = None
    if a.element_names is not None and b.element_names is not None:
        names = tuple(
            f"({a.element_names[i]},{b.element_names[j]})"
            for i in range(na)
            for j in range(nb)
        )
    name = f"{a.name}x{b.name}" if a.name and b.name else None
    return make_algebra(table, a.distinguished * nb + b.distinguished, name, names)


def _induced(a: FiniteAlgebra, kept, index, name) -> FiniteAlgebra:
    """The algebra on kept, in its order, with each product and the constant
    read through index (a's element -> new element) and names following kept."""
    table = [[index[a.table[u][v]] for v in kept] for u in kept]
    names = None if a.element_names is None else tuple(a.element_names[u] for u in kept)
    return make_algebra(table, index[a.distinguished], name, names)


def _quotient_data(a: FiniteAlgebra, ideal: frozenset):
    """Validate the ideal and return (kept original indices, class map old->new)."""
    if not ideal:
        raise ValueError("ideal must be nonempty")
    _check_range(a.order, ideal, "ideal element")
    for u in ideal:
        for v in range(a.order):
            if a.table[u][v] not in ideal:
                raise ValueError(f"not an ideal: right product of {u} by {v} escapes to {a.table[u][v]}")
            if a.table[v][u] not in ideal:
                raise ValueError(f"not an ideal: left product of {u} by {v} escapes to {a.table[v][u]}")
    rep = min(ideal)
    kept = sorted((set(range(a.order)) - ideal) | {rep})
    newindex = {old: new for new, old in enumerate(kept)}
    cls = {
        old: (newindex[rep] if old in ideal else newindex[old])
        for old in range(a.order)
    }
    return kept, cls


def rees_quotient(a: FiniteAlgebra, ideal) -> FiniteAlgebra:
    """Collapse an ideal to a single zero class; class names use the smallest
    original index as representative."""
    kept, cls = _quotient_data(a, frozenset(ideal))
    return _induced(a, kept, cls, f"{a.name}/I" if a.name else None)


def subalgebra_generated(a: FiniteAlgebra, seed) -> FiniteAlgebra:
    """Closure of seed plus the distinguished element under the operation."""
    elems = set(seed) | {a.distinguished}  # the distinguished element is in range
    _check_range(a.order, elems, "seed element")
    while True:
        new = {a.table[u][v] for u in elems for v in elems} - elems
        if not new:
            break
        elems |= new
    kept = sorted(elems)
    return _induced(a, kept, {old: new for new, old in enumerate(kept)}, None)


@dataclass(frozen=True)
class SubdirectReport:
    """Outcome of decomposing an algebra over its central idempotent."""

    passed: bool
    band: FiniteAlgebra
    nil: FiniteAlgebra
    failures: tuple = ()

    def __bool__(self) -> bool:
        return self.passed


# The laws of the constant e that subdirect_check requires: e is idempotent
# and central, and s -> e*s is a homomorphism; given associativity, Oxy = OxOy
# says e(su) = (es)(eu).
_CONSTANT_LAWS = tuple(map(parse_identity, ("OO = O", "Ox = xO", "Oxy = OxOy")))
# the laws of the two factors: eS is a band, S/eS kills triple products
_BAND_LAW, _NIL_LAW = map(parse_identity, ("xx = x", "xyz = O"))


def subdirect_check(a: FiniteAlgebra) -> SubdirectReport:
    """Decompose an algebra that passes ``check_axioms`` in associative mode
    over e = distinguished: verify with ``satisfies`` the laws of
    ``_CONSTANT_LAWS`` (e is a central idempotent, s -> e*s a homomorphism),
    reporting each failing one with its witness; then that s -> (e*s, class
    of s) embeds a into (eS) x (S/eS) with a homomorphic second component,
    that eS is a band and that the quotient kills all triple products."""
    axioms = check_axioms(a, Mode.IS)
    if not axioms.passed:
        raise AxiomViolationError(axioms)
    t = a.table
    e = a.distinguished
    failures = []
    for law in _CONSTANT_LAWS:
        res = satisfies(a, law)
        if not res:
            failures.append(f"constant law {law} fails at {res.witness}")
    ideal = frozenset(t[e][s] for s in range(a.order))
    band = subalgebra_generated(a, ideal)
    _, cls = _quotient_data(a, ideal)
    nil = rees_quotient(a, ideal)
    seen = {}
    for s in range(a.order):
        key = (t[e][s], cls[s])
        if key in seen:
            failures.append(f"pair map not injective: {seen[key]} and {s} collide")
        seen[key] = s
    for s in range(a.order):
        for u in range(a.order):
            if cls[t[s][u]] != nil.table[cls[s]][cls[u]]:
                failures.append(f"second component not a homomorphism at ({s},{u})")
    if not satisfies(band, _BAND_LAW):
        failures.append("ideal part is not a band")
    if not satisfies(nil, _NIL_LAW):
        failures.append("quotient does not kill triple products")
    return SubdirectReport(not failures, band, nil, tuple(failures))


def is_isomorphic(a: FiniteAlgebra, b: FiniteAlgebra) -> bool:
    """Brute-force search over bijections mapping distinguished to distinguished."""
    if a.order != b.order:
        return False
    n = a.order
    rest_a = [i for i in range(n) if i != a.distinguished]
    rest_b = [i for i in range(n) if i != b.distinguished]
    for image in itertools.permutations(rest_b):
        pi = {a.distinguished: b.distinguished}
        pi.update(zip(rest_a, image))
        if all(
            pi[a.table[i][j]] == b.table[pi[i]][pi[j]]
            for i in range(n)
            for j in range(n)
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# Builtin algebras

# name -> (rows, distinguished element, element names)
_BUILTINS = {
    "trivial": ([[0]], 0, ["0"]),
    # 2-element semilattice (meet), constant = top
    "A": ([[0, 0], [0, 1]], 1, ["0", "1"]),
    # right-zero band {e, f} with adjoined identity, constant = identity
    "B": ([[0, 1, 0], [0, 1, 1], [0, 1, 2]], 2, ["e", "f", "1"]),
    # commutative, a*a = b*b = 0, all triple products zero
    "K": (
        [[3, 2, 3, 3], [2, 3, 3, 3], [3, 3, 3, 3], [3, 3, 3, 3]],
        3,
        ["a", "b", "ab", "0"],
    ),
    # like K but b*a = 0 while a*b stays nonzero
    "L": (
        [[3, 2, 3, 3], [3, 3, 3, 3], [3, 3, 3, 3], [3, 3, 3, 3]],
        3,
        ["a", "b", "ab", "0"],
    ),
    # commutative, a*a = 0, b*b nonzero, every triple product zero
    "M": (
        [
            [4, 3, 4, 4, 4],
            [3, 2, 4, 4, 4],
            [4, 4, 4, 4, 4],
            [4, 4, 4, 4, 4],
            [4, 4, 4, 4, 4],
        ],
        4,
        ["a", "b", "b2", "ab", "0"],
    ),
    "Z": ([[1, 1], [1, 1]], 1, ["a", "0"]),
    "2s": ([[0, 1], [1, 1]], 0, ["0", "1"]),
    "2b": ([[1, 1], [0, 1]], 0, ["0", "1"]),
}

BUILTIN_NAMES = (*_BUILTINS, "BxK_mod_I")


@lru_cache(maxsize=None)
def builtin(name: str) -> FiniteAlgebra:
    """The named concrete algebras used throughout: semilattice A, band B,
    the nilpotent semigroups K, L, M, null semigroup Z, the two 2-element
    tree-mode algebras, and the Rees quotient of B x K."""
    if name == "BxK_mod_I":
        prod = direct_product(builtin("B"), builtin("K"))
        ideal = frozenset(i * 4 + 3 for i in range(3))  # B x {0}: K's zero is its element 3
        return _induced(prod, *_quotient_data(prod, ideal), "BxK_mod_I")
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin algebra {name!r}")
    rows, distinguished, element_names = _BUILTINS[name]
    return make_algebra(rows, distinguished, name, element_names)


# ---------------------------------------------------------------------------
# Line-oriented file format


def parse_algebra(text: str) -> FiniteAlgebra:
    """Read the table format: ``size: n``, ``omega: k``, then n rows of n
    integers.  ``#`` starts a comment, blank lines are skipped.  A
    ValueError names the 1-based line of the text it is about."""
    lines, end = numbered_lines(text)
    number = end
    try:
        if len(lines) < 2:
            raise ValueError("expected 'size:' and 'omega:' header lines")
        number, size_line = lines[0]
        if not size_line.startswith("size:"):
            raise ValueError(f"expected 'size: n', got {size_line!r}")
        n = int(size_line.split(":", 1)[1])
        if n < 1:
            raise ValueError("algebras have at least one element")
        number, omega_line = lines[1]
        if not omega_line.startswith("omega:"):
            raise ValueError(f"expected 'omega: k', got {omega_line!r}")
        k = int(omega_line.split(":", 1)[1])
        if not 0 <= k < n:
            raise ValueError(f"omega {k} is not an element 0..{n - 1}")
        rows = lines[2:]
        if len(rows) != n:
            number = rows[n][0] if len(rows) > n else end
            raise ValueError(f"expected {n} table rows, got {len(rows)}")
        table = []
        for number, row in rows:
            entries = [int(tok) for tok in row.split()]
            if len(entries) != n:
                raise ValueError(f"row {row!r} does not have {n} entries")
            if not all(0 <= v < n for v in entries):
                raise ValueError(f"row {row!r} has an entry outside 0..{n - 1}")
            table.append(entries)
    except ValueError as exc:
        raise ValueError(f"{exc} (line {number})") from None
    return make_algebra(table, k)


def render_algebra(a: FiniteAlgebra) -> str:
    lines = [f"size: {a.order}", f"omega: {a.distinguished}"]
    for row in a.table:
        lines.append(" ".join(str(v) for v in row))
    return "\n".join(lines) + "\n"


def load_algebra(path) -> FiniteAlgebra:
    with open(path, encoding="utf-8") as handle:
        return parse_algebra(handle.read())
