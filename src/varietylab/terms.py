"""Flat words and arrow terms: parsing, rendering and structural measures.

Two syntaxes live here.  Associative mode works with flat words over the
letters a-z plus the distinguished constant, written ``O``; bracketing is
meaningless, so a word is its text: a ``str`` of one or more symbols.  Tree
mode works with fully parenthesised binary terms over ``>`` with the constant
``0``; a postfix prime is sugar for ``(t>0)``.  A parsed term shares one
``Var`` per letter, so a letter that recurs is one object; terms compare and
hash by value, never by identity.  ``AXIOM_TEXTS`` holds the two
defining identities of implication semigroups in each syntax; the axiom check
and the derivation checker both read them from here.  Words, terms and
identities render with ``str``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

OMEGA = "O"
_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyz")
# str.translate table that deletes every valid word symbol, so what is left
# of a word's text is its invalid symbols, in order
_DROP_WORD_SYMBOLS = dict.fromkeys(map(ord, _LETTERS | {OMEGA}))


class Mode(str, Enum):
    """Which syntax an identity or algebra is read in."""

    IS = "is"  # flat associative words with constant O
    IZ = "iz"  # binary arrow trees with constant 0


# The two defining identities of each mode; associative mode also assumes
# associativity, which its flat syntax builds in.
AXIOM_TEXTS = {
    Mode.IS: ("xyz = zOxyzOO", "OOO = O"),
    Mode.IZ: ("((x>y)>z) = ((z'>x)>(y>z)')'", "0'' = 0"),
}


class ParseError(ValueError):
    """Rejected input: a message and the byte offset of the offending character."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.message = message
        self.offset = offset


def numbered_lines(text: str) -> tuple:
    """The lines of a line-oriented source that hold more than a comment
    (``#`` starts one), stripped, as (1-based line number, body) pairs; and
    the number of the text's last line, which a text that ends too soon is
    reported at.  Blank and comment lines keep their numbers."""
    raw_lines = text.splitlines()
    lines = []
    for number, raw in enumerate(raw_lines, 1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((number, body))
    return lines, max(len(raw_lines), 1)


# ---------------------------------------------------------------------------
# Flat words


class Word(str):
    """Nonempty string of letters and ``O``: a word is its text.  Equality,
    hash, length, iteration and ``str`` are the string's own, so a Word
    equals the plain ``str`` of its text; slices and ``str`` methods return
    plain strings, and only the constructor and ``+`` make a checked Word."""

    __slots__ = ()

    def __new__(cls, symbols: str):
        if not symbols:
            raise ValueError("words are nonempty")
        invalid = symbols.translate(_DROP_WORD_SYMBOLS)
        if invalid:
            raise ValueError(f"invalid word symbol {invalid[0]!r}")
        return super().__new__(cls, symbols)

    def __add__(self, other: str) -> "Word":
        return Word(str.__add__(self, other))

    def __repr__(self) -> str:
        return f"Word({str.__repr__(self)})"


def parse_word(text: str) -> Word:
    """Parse a flat word; whitespace is ignored, anything else must be a-z or O."""
    symbols = "".join(text.split())
    try:
        return Word(symbols)
    except ValueError:
        invalid = symbols.translate(_DROP_WORD_SYMBOLS)
        if not invalid:
            raise ParseError("empty word", len(text)) from None
        # its first occurrence in text: any earlier one would come first here too
        raise ParseError(f"unexpected character {invalid[0]!r}", text.index(invalid[0])) from None


@lru_cache(maxsize=1 << 16)
def content(w: Word) -> frozenset:
    """The set of letters occurring in w (``O`` excluded)."""
    # from the letters alone: a set sized for O too may take a larger table
    return frozenset(w.replace(OMEGA, ""))


@lru_cache(maxsize=1 << 16)
def los(w: Word):
    """Last-occurrence sequence: keep only each letter's final occurrence.

    Drops every ``O``.  Returns ``None`` when the word has no letters at all;
    that marker never escapes as a Word because the free algebra has no empty
    word.
    """
    # a letter's first occurrence in the reversed letters is its last in w
    letters = w.replace(OMEGA, "")
    if not letters:
        return None
    return Word("".join(dict.fromkeys(letters[::-1]))[::-1])


def length(w: Word):
    """Symbol count for pure semigroup words, ``math.inf`` once O appears."""
    return math.inf if OMEGA in w else len(w)


@lru_cache(maxsize=1 << 16)
def contains_square(w: Word) -> bool:
    """True iff w = a b b c for some nonempty factor b (b may contain O)."""
    n = len(w)
    for i in range(n - 1):
        for k in range(1, (n - i) // 2 + 1):
            if w[i:i + k] == w[i + k:i + 2 * k]:
                return True
    return False


def substitute(w: Word, mapping: dict) -> Word:
    """Replace each letter by its image word; O is fixed, absent letters too."""
    table = {ord(ch): img for ch, img in mapping.items() if ch in _LETTERS}
    return Word(w.translate(table))


def normalize_is(w: Word) -> Word:
    """Canonical form under the full equational theory of associative mode.

    Semigroup words of one or two symbols are already canonical; every other
    word collapses to its last-occurrence sequence followed by a single O
    (just O when no letters remain).  Idempotent.
    """
    if length(w) <= 2:
        return w
    base = los(w)
    if base is None:
        return Word(OMEGA)
    return base + OMEGA


# ---------------------------------------------------------------------------
# Arrow trees


class TreeTerm:
    """Base class for tree-mode terms."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Zero(TreeTerm):
    def __str__(self) -> str:
        return "0"


@dataclass(frozen=True, slots=True)
class Var(TreeTerm):
    name: str

    def __post_init__(self):
        if self.name not in _LETTERS:
            raise ValueError(f"invalid variable name {self.name!r}")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, slots=True)
class Arrow(TreeTerm):
    left: TreeTerm
    right: TreeTerm

    def __str__(self) -> str:
        """Canonical text: primes for right-zero arrows, parens everywhere else."""
        if self.right == ZERO:
            return f"{self.left}'"
        return f"({self.left}>{self.right})"


ZERO = Zero()
# one shared leaf per letter: the parser maps each letter to its entry
_VARS = {ch: Var(ch) for ch in _LETTERS}

# The deepest tree term the parser accepts, counted in arrows on the longest
# path from the root (a postfix prime is one arrow).  The parser and
# term_letters walk a term with an explicit stack, but other walkers still
# recurse (str, hash, equality, substitute_term, the evaluator, the register
# compiler and the derivation checker's rewrite), and str takes three
# interpreter frames per level.  A replayed derivation step substitutes
# parsed terms into a parsed rule and puts the result inside a parsed term,
# so its terms reach three times this depth; that still stays far below the
# default recursion limit of 1000.
MAX_TERM_DEPTH = 64


def parse_term(text: str) -> TreeTerm:
    """Parse a tree term: ``0``, a letter, ``(t>t)``, with postfix primes.
    A term deeper than ``MAX_TERM_DEPTH`` is a ParseError.

    One loop over the text with a stack of the open parentheses: each frame
    is the parenthesis's offset, its left side (None until its ``>`` is read)
    and that side's height.  The stack's size is the number of arrows the
    enclosing parentheses open, and that plus a term's height never exceeds
    the bound."""
    n = len(text)
    pos = 0
    stack: list = []
    while True:
        # an operand: 0, a letter, or an opening parenthesis
        while pos < n and text[pos].isspace():
            pos += 1
        if pos >= n:
            raise ParseError("unexpected end of input", pos)
        ch = text[pos]
        if ch == "(":
            if len(stack) >= MAX_TERM_DEPTH:
                raise ParseError(f"term nested deeper than {MAX_TERM_DEPTH}", pos)
            stack.append((pos, None, 0))
            pos += 1
            continue
        node = ZERO if ch == "0" else _VARS.get(ch)
        if node is None:
            raise ParseError(f"unexpected character {ch!r}", pos)
        pos += 1
        height = 0
        while True:
            # the operand's primes, then what closes it: '>', ')' or the end
            while pos < n and text[pos].isspace():
                pos += 1
            if pos < n and text[pos] == "'":
                if len(stack) + height >= MAX_TERM_DEPTH:
                    raise ParseError(f"term nested deeper than {MAX_TERM_DEPTH}", pos)
                pos += 1
                node = Arrow(node, ZERO)
                height += 1
                continue
            if not stack:
                if pos != n:
                    raise ParseError(f"unexpected character {text[pos]!r}", pos)
                return node
            open_at, left, left_height = stack[-1]
            if left is None:
                if pos >= n or text[pos] != ">":
                    raise ParseError("expected '>'", pos)
                pos += 1
                stack[-1] = (open_at, node, height)
                break
            if pos >= n or text[pos] != ")":
                raise ParseError("unbalanced '('", open_at)
            pos += 1
            stack.pop()
            node = Arrow(left, node)
            height = 1 + (left_height if left_height > height else height)


def term_letters(t: TreeTerm) -> frozenset:
    """All variable names occurring in t."""
    letters = set()
    rights = []  # the right sides still to walk
    while True:
        # down the left spine; the term classes are final, so type tells
        # them apart, faster than isinstance
        while type(t) is Arrow:
            rights.append(t.right)
            t = t.left
        if type(t) is Var:
            letters.add(t.name)
        if not rights:
            return frozenset(letters)
        t = rights.pop()


def substitute_term(t: TreeTerm, mapping: dict) -> TreeTerm:
    """Replace variables by their image terms; 0 and absent variables fixed."""
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, Arrow):
        return Arrow(substitute_term(t.left, mapping), substitute_term(t.right, mapping))
    return t


# ---------------------------------------------------------------------------
# Identities


@dataclass(frozen=True)
class Identity:
    """An equation between two words (IS) or two tree terms (IZ)."""

    lhs: object
    rhs: object
    mode: Mode

    def __post_init__(self):
        if type(self.mode) is not Mode:  # "is" or "iz" as text
            object.__setattr__(self, "mode", Mode(self.mode))
        want = Word if self.mode is Mode.IS else TreeTerm
        if not (isinstance(self.lhs, want) and isinstance(self.rhs, want)):
            raise ValueError(f"both sides must be {want.__name__} in mode {self.mode.value}")

    def __str__(self) -> str:
        return f"{self.lhs} = {self.rhs}"


def identity_letters(ident: Identity) -> tuple:
    """The sorted letters of both sides of ident, in either syntax."""
    letters = content if ident.mode is Mode.IS else term_letters
    return tuple(sorted(letters(ident.lhs) | letters(ident.rhs)))


def parse_side(text: str, mode: Mode):
    """Parse one side of an identity: a word in associative mode, a tree
    term in tree mode."""
    # module globals, not a table of functions: a wrapper set on either sees every call
    return parse_word(text) if mode is Mode.IS else parse_term(text)


def parse_identity(text: str, mode: Mode = Mode.IS) -> Identity:
    """Parse ``side = side`` in the given mode, a ``Mode`` or its text;
    offsets refer to the full text."""
    mode = mode if type(mode) is Mode else Mode(mode)
    eq = text.find("=")
    if eq < 0:
        raise ParseError("expected '='", len(text))
    second = text.find("=", eq + 1)
    if second >= 0:
        raise ParseError("more than one '='", second)
    lhs = parse_side(text[:eq], mode)
    try:
        rhs = parse_side(text[eq + 1:], mode)
    except ParseError as exc:
        raise ParseError(exc.message, exc.offset + eq + 1) from None
    return Identity(lhs, rhs, mode)
