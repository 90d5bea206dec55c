"""The sixteen named varieties: finite bases, generators, decision procedures.

Each variety is one row of ``_TABLE``: its join components, its generators
and the texts of its basis.  Every variety is a join of up to three of the
seven basic ones, SL, B, ZM, K, L, M and N, which are Variety members and
their own sole components.  Each basic variety has a normal-form word key:
SL's is the content, B's the last-occurrence sequence, and the five nil keys
follow one vanishing rule.  An identity holds in a variety iff its two sides
have the same tuple of component keys.  Each key is a congruence: key(u) =
key(u') implies key(ua) = key(u'a) and key(au) = key(au') for every symbol
a.  An induction on word length, which carries a check of the keys on short
words over to all words, needs the right half."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from types import MappingProxyType

from . import models
from .terms import (
    Mode,
    OMEGA,
    Word,
    content,
    los,
    parse_identity,
)


class Variety(str, Enum):
    """The sixteen varieties, in bottom-up reading order of the diagram."""

    T = "T"
    ZM = "ZM"
    SL = "SL"
    K = "K"
    SL_ZM = "SL+ZM"
    B = "B"
    M = "M"
    L = "L"
    SL_K = "SL+K"
    B_ZM = "B+ZM"
    N = "N"
    SL_M = "SL+M"
    SL_L = "SL+L"
    B_K = "B+K"
    SL_N = "SL+N"
    IS = "IS"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class VarietyRecord:
    basis: tuple
    generators: tuple


# variety -> (join components, generators by builtin name, basis texts)
_TABLE = {
    Variety.T: ((), ("trivial",), ("x = O",)),
    Variety.ZM: ((Variety.ZM,), ("Z",), ("xy = O",)),
    Variety.SL: ((Variety.SL,), ("A",), ("xx = x", "xy = yx")),
    Variety.K: ((Variety.K,), ("K",), ("xyz = O", "xx = O", "xy = yx")),
    Variety.SL_ZM: ((Variety.SL, Variety.ZM), ("A", "Z"), ("xy = yxO",)),
    Variety.B: ((Variety.B,), ("B",), ("xx = x",)),
    Variety.M: ((Variety.M,), ("M",), ("xyz = O", "xy = yx")),
    Variety.L: ((Variety.L,), ("L",), ("xyz = O", "xx = O")),
    Variety.SL_K: ((Variety.SL, Variety.K), ("A", "K"), ("xO = xx", "xy = yx")),
    Variety.B_ZM: ((Variety.B, Variety.ZM), ("B", "Z"), ("xy = xyO",)),
    Variety.N: ((Variety.N,), ("L", "M"), ("xyz = O",)),
    Variety.SL_M: ((Variety.SL, Variety.M), ("A", "M"), ("xy = yx",)),
    Variety.SL_L: ((Variety.SL, Variety.L), ("A", "L"), ("xO = xx", "xyO = yxO")),
    Variety.B_K: ((Variety.B, Variety.K), ("B", "K"), ("xO = xx",)),
    Variety.SL_N: ((Variety.SL, Variety.N), ("A", "L", "M"), ("xyO = yxO",)),
    Variety.IS: ((Variety.B, Variety.N), ("B", "L", "M"), ()),
}


@lru_cache(maxsize=1)
def registry() -> MappingProxyType:
    """Each variety's record, read-only; each generator is checked against its basis once."""
    records = {}
    for v in Variety:
        _, generators, texts = _TABLE[v]
        basis = tuple(parse_identity(text) for text in texts)
        failure = basis_failure(generators, basis)
        if failure is not None:
            gname, ident, witness = failure
            msg = f"generator {gname} violates basis of {v}: {ident} at {witness}"
            raise models.VerificationError(msg)
        records[v] = VarietyRecord(basis, generators)
    _basis_positions.cache_clear()  # built anew from these records
    return MappingProxyType(records)


@lru_cache(maxsize=1)
def _basis_positions() -> tuple:
    """The registry's distinct basis identities, in order of first
    occurrence, and each variety with the positions of its basis identities
    among them: variety_of keeps one verdict per position in a list."""
    records = registry()
    position: dict = {}
    for rec in records.values():
        for ident in rec.basis:
            position.setdefault(ident, len(position))
    bases = tuple((v, tuple(map(position.__getitem__, rec.basis))) for v, rec in records.items())
    return tuple(position), bases


def basis_failure(generators, basis):
    """The first (generator name, identity, witness) where a named generator
    violates an identity of the basis, or None when all of them hold."""
    for gname in generators:
        g = models.builtin(gname)
        for ident in basis:
            res = models.satisfies(g, ident)
            if not res.holds:
                return gname, ident, res.witness
    return None


def record(v: Variety) -> VarietyRecord:
    try:
        return registry()[v]
    except KeyError:
        raise ValueError(f"unknown variety {v!r}") from None


def variety_by_name(name: str) -> Variety:
    try:
        return Variety(name)
    except ValueError:
        raise ValueError(f"unknown variety name {name!r}") from None


# ---------------------------------------------------------------------------
# Decision procedure


def _vanishing(limit: int, commutative: bool = False, squares: bool = False):
    """The key of a nil variety.  A word gets None, the class of O, if it
    holds O, if it has limit or more letters, or, when squares vanish, if it
    is aa: below three letters, aa is the only square.  Any other word gets
    its letters, sorted when the variety is commutative."""

    def vanishing_key(w: Word):
        if OMEGA in w or len(w) >= limit or (squares and len(w) == 2 and w[0] == w[1]):
            return None
        return "".join(sorted(w)) if commutative else w

    return vanishing_key


_COMPONENT_KEYS = {
    Variety.SL: content,
    Variety.B: los,
    Variety.ZM: _vanishing(2),
    Variety.K: _vanishing(3, commutative=True, squares=True),
    Variety.L: _vanishing(3, squares=True),
    Variety.M: _vanishing(3, commutative=True),
    Variety.N: _vanishing(3),
}


def _components(v: Variety) -> tuple:
    try:
        return _TABLE[v][0]
    except KeyError:
        raise ValueError(f"unknown variety {v!r}") from None


def key(v: Variety, w: Word) -> tuple:
    """Normal-form key of w in v: u = w holds in v iff key(v, u) == key(v, w)."""
    # _COMPONENT_KEYS is read on every call, so a key patched there is seen
    return tuple([_COMPONENT_KEYS[c](w) for c in _components(v)])


def decide(v: Variety, ident) -> bool:
    """Whether the identity holds in the variety, by the syntactic test."""
    if isinstance(ident, str):
        ident = parse_identity(ident)
    if ident.mode is not Mode.IS:
        raise ValueError("decide works on associative-mode identities only")
    return key(v, ident.lhs) == key(v, ident.rhs)


def key_ids(v: Variety, words) -> list:
    """The partition that key(v, .) draws on words, as their `dense_ids`: each
    component key of v, looked up once, is mapped over the words, and the
    results are zipped into one label per word.  T, with no components,
    draws a single class."""
    components = _components(v)
    words = tuple(words)
    if not components:
        return [0] * len(words)
    return dense_ids(zip(*[map(_COMPONENT_KEYS[c], words) for c in components]))


def dense_ids(labels) -> list:
    """Each label as its dense id: the distinct labels are numbered 0, 1, 2, ...
    in order of first occurrence, so two label lists draw the same partition
    iff their dense ids are equal."""
    index = {}
    return [index.setdefault(k, len(index)) for k in labels]


def compare_ids(words, a, b):
    """Compare the partitions of words drawn by the labels a and b, one per
    word, as lists, without visiting pairs.

    Returns (only_a, only_b, pair): how many ordered pairs are equal under a
    but not b and the reverse, by sums of squared block sizes, and one such
    pair (of the first kind if any), or None if the partitions agree; a
    kind with no pairs is not searched.  Equal lists end the comparison;
    `dense_ids` makes every two lists that draw the same partition equal."""
    if a == b:
        return 0, 0, None
    pairs = list(zip(a, b))
    meet = _sum_squares(pairs)
    only_a = _sum_squares(a) - meet
    only_b = _sum_squares(b) - meet
    witness = (only_a and _split(words, pairs, 0)) or (only_b and _split(words, pairs, 1))
    return only_a, only_b, witness or None


def _sum_squares(labels) -> int:
    return sum(n * n for n in Counter(labels).values())


def _split(words, pairs, side):
    # the first two words that agree on pairs[side] but not on the other label
    first = {}
    for w, p in zip(words, pairs):
        u, pu = first.setdefault(p[side], (w, p))
        if pu != p:
            return u, w
    return None


# ---------------------------------------------------------------------------
# Semantic order and classification of concrete algebras


@lru_cache(maxsize=None)
def separation(v: Variety, w: Variety):
    """Why v is not below w: the first (generator of v, basis identity of w,
    witness) that fails, or None when v <= w."""
    return basis_failure(record(v).generators, record(w).basis)


def generator_leq(v: Variety, w: Variety) -> bool:
    """v <= w iff every generator of v satisfies every basis identity of w."""
    return separation(v, w) is None


def variety_of(a: models.FiniteAlgebra) -> Variety:
    """The least variety whose whole basis the algebra satisfies."""
    report = models.check_axioms(a, Mode.IS)
    if not report.passed:
        raise models.AxiomViolationError(report)
    # the bases share identities (xy = yx is in five), so each distinct one
    # is evaluated at most once, its verdict kept by position
    identities, bases = _basis_positions()
    holds = [None] * len(identities)

    def sat_one(p):
        if holds[p] is None:
            holds[p] = models.satisfies(a, identities[p]).holds
        return holds[p]

    sat = [v for v, positions in bases if all(map(sat_one, positions))]
    least = [v for v in sat if all(generator_leq(v, w) for w in sat)]
    if len(least) != 1:
        raise models.VerificationError(
            f"no unique least variety among [{', '.join(map(str, sat))}]"
        )
    return least[0]


# ---------------------------------------------------------------------------
# Bounded exhaustive identity material


@lru_cache(maxsize=None)
def exhaustive_identity_words(max_length: int = 4) -> tuple:
    """All words over x, y, z and O, up to the length bound, in a fixed
    deterministic order.  The default bound yields 340 words, hence 115600
    ordered identity pairs."""
    alphabet = ("x", "y", "z", OMEGA)
    out = []
    for k in range(1, max_length + 1):
        for combo in itertools.product(alphabet, repeat=k):
            out.append(Word("".join(combo)))
    return tuple(out)
