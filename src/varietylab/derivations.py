"""Step-by-step equational derivation checker.

A script rewrites its goal's left side into the right side through explicit
steps.  Each step names a rule, a direction, a position (a 1-based factor
range in flat mode, a root path over L/R in tree mode), a substitution, and
the claimed result; the checker verifies, it never searches.  Associativity
is structural in flat mode, so it needs no rule of its own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from importlib import resources
from types import MappingProxyType

from .terms import (
    AXIOM_TEXTS,
    Arrow,
    Identity,
    Mode,
    TreeTerm,
    Var,
    Word,
    identity_letters,
    numbered_lines,
    parse_identity,
    parse_side,
    substitute,
    substitute_term,
)


class Kind(Enum):
    AXIOM = "axiom"
    PREMISE = "premise"
    PROVEN = "proven"


class Direction(Enum):
    L2R = "L2R"
    R2L = "R2L"


@dataclass(frozen=True)
class Rule:
    label: str
    identity: Identity
    kind: Kind

    @cached_property
    def letters(self) -> tuple:
        """The sorted letters of the rule's identity, read once per rule."""
        return identity_letters(self.identity)


AXIOM_LABELS = ("A1", "A2")


@lru_cache(maxsize=None)
def _axioms(mode: Mode) -> tuple:
    """The defining identities of mode as rules A1 and A2, parsed once."""
    return tuple(
        Rule(label, parse_identity(text, mode), Kind.AXIOM)
        for label, text in zip(AXIOM_LABELS, AXIOM_TEXTS[mode])
    )


@dataclass(frozen=True)
class Step:
    label: str
    direction: Direction
    position: object  # (i, j) factor range in IS, path string in IZ ('e' = root)
    substitution: MappingProxyType  # letter -> image; read-only once parsed
    result: object  # claimed Word or TreeTerm after the step


@dataclass(frozen=True)
class Script:
    mode: Mode
    name: str
    premises: tuple
    goal: Identity
    start: object
    steps: tuple


class StepError(Exception):
    """A step that cannot be applied: bad label or binding, bad position, or no match."""


@dataclass(frozen=True)
class ReplayResult:
    passed: bool
    step: int | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.passed


# ---------------------------------------------------------------------------
# Applying steps


def _rewrite_at(term: TreeTerm, path: str, rewrite) -> TreeTerm:
    """Rebuild term around rewrite(subterm at path), walking the path once."""

    def walk(node, k):
        if k == len(path):
            return rewrite(node)
        if not isinstance(node, Arrow):
            raise StepError(f"path {path!r} leaves the term")
        if path[k] == "L":
            return Arrow(walk(node.left, k + 1), node.right)
        return Arrow(node.left, walk(node.right, k + 1))

    return walk(term, 0)


def apply_step(term, step: Step, rules: dict):
    """Rewrite ``term``, a Word or a tree term, by the named rule at the given
    position.  The substitution may bind only letters of the rule, and the
    addressed fragment must equal the substituted source side exactly."""
    rule = rules.get(step.label)
    if rule is None:
        raise StepError(f"unknown rule label {step.label!r}")
    stray = set(step.substitution).difference(rule.letters)
    if stray:
        raise StepError(f"rule {step.label!r} has no letter {min(stray)!r}")
    src = rule.identity.lhs if step.direction is Direction.L2R else rule.identity.rhs
    dst = rule.identity.rhs if step.direction is Direction.L2R else rule.identity.lhs
    flat = isinstance(term, Word)
    sub = substitute if flat else substitute_term

    def rewrite(found):
        expected = sub(src, step.substitution)
        if found != expected:
            where = "{}..{}".format(*step.position) if flat else step.position
            raise StepError(f"no match at {where}: expected {expected}, found {found}")
        return sub(dst, step.substitution)

    if not flat:
        return _rewrite_at(term, "" if step.position == "e" else step.position, rewrite)
    i, j = step.position
    if not (1 <= i <= j <= len(term)):
        raise StepError(f"range {i}..{j} outside word of length {len(term)}")
    return Word(term[: i - 1] + rewrite(term[i - 1:j]) + term[j:])


def replay(script: Script) -> ReplayResult:
    """PASS iff every step checks and the chain joins the goal's two sides."""
    rules = {}
    for rule in _axioms(script.mode) + script.premises:
        if rule.label in rules:
            return ReplayResult(False, None, f"duplicate rule label {rule.label!r}")
        rules[rule.label] = rule
    current = script.start
    if current != script.goal.lhs:
        return ReplayResult(
            False, None, f"start {current} differs from goal left side {script.goal.lhs}"
        )
    for idx, step in enumerate(script.steps):
        try:
            nxt = apply_step(current, step, rules)
        except StepError as exc:
            return ReplayResult(False, idx, str(exc))
        if nxt != step.result:
            return ReplayResult(
                False,
                idx,
                f"claimed result {step.result} but step produced {nxt}",
            )
        current = nxt
    if current != script.goal.rhs:
        return ReplayResult(
            False,
            len(script.steps),
            f"chain ends at {current}, goal right side is {script.goal.rhs}",
        )
    return ReplayResult(True)


# ---------------------------------------------------------------------------
# Script text format

_STEP_RE = re.compile(
    r"step\s+(\S+)\s+(L2R|R2L)\s+at\s+(\S+)\s+sub\s+\{(.*)\}\s*->\s*(\S+)\s*$"
)
_PREMISE_RE = re.compile(r"(\S+?)(?:\s+\[(premise|proven)\])?\s*:\s*(.+)$")


def parse_script(text: str) -> Script:
    """Read the script format that `render_script` writes.  ``#`` starts a
    comment, blank lines are skipped.  A ValueError names the 1-based line of
    the text it is about."""
    numbered, end = numbered_lines(text)
    lines = [body for _, body in numbered]
    pos = 0  # the line being read, an index into lines

    def expect(prefix):
        if pos == len(lines):
            raise ValueError(f"expected {prefix!r}, got the end of the script")
        if not lines[pos].startswith(prefix):
            raise ValueError(f"expected {prefix!r}, got {lines[pos]!r}")
        return lines[pos][len(prefix):].strip()

    try:
        if len(lines) < 4:
            pos = len(lines)
            raise ValueError("script too short")
        mode = Mode(expect("mode:"))
        pos = 1
        name = expect("name:")
        pos = 2
        premises = []
        if lines[pos].startswith("premises:"):
            trailing = lines[pos][len("premises:"):].strip()
            if trailing:
                raise ValueError("premises go on their own lines")
            pos += 1
            while pos < len(lines) and not lines[pos].startswith("goal:"):
                m = _PREMISE_RE.match(lines[pos])
                if not m:
                    raise ValueError(f"bad premise line {lines[pos]!r}")
                label, kindword, ident_text = m.groups()
                if label in AXIOM_LABELS:
                    raise ValueError(f"label {label!r} is reserved for axioms")
                kind = Kind.PROVEN if kindword == "proven" else Kind.PREMISE
                premises.append(Rule(label, parse_identity(ident_text, mode), kind))
                pos += 1
        goal = parse_identity(expect("goal:"), mode)
        pos += 1
        start = parse_side(expect("start:"), mode)
        steps = []
        for pos in range(pos + 1, len(lines)):
            steps.append(_parse_step(lines[pos], mode))
    except ValueError as exc:
        number = numbered[pos][0] if pos < len(lines) else end
        raise ValueError(f"{exc} (line {number})") from None
    return Script(mode, name, tuple(premises), goal, start, tuple(steps))


def _parse_step(line: str, mode: Mode) -> Step:
    m = _STEP_RE.match(line)
    if not m:
        raise ValueError(f"bad step line {line!r}")
    label, direction, pos_text, sub_text, result_text = m.groups()
    if mode is Mode.IS:
        lo, dots, hi = pos_text.partition("..")
        if not (dots and lo.isdecimal() and hi.isdecimal()):
            raise ValueError(f"bad position in {line!r}: flat mode takes a range i..j")
        position: object = (int(lo), int(hi))
    else:
        if pos_text != "e" and not set(pos_text) <= {"L", "R"}:
            raise ValueError(f"bad position in {line!r}: tree mode takes e or an L/R path")
        position = pos_text
    substitution = {}
    if sub_text.strip():
        for binding in sub_text.split(","):
            var, _, image = binding.partition("=")
            var = Var(var.strip()).name  # one letter a-z, or a ValueError
            if var in substitution:
                raise ValueError(f"letter {var!r} bound twice in {line!r}")
            substitution[var] = parse_side(image.strip(), mode)
    result = parse_side(result_text, mode)
    return Step(label, Direction(direction), position, MappingProxyType(substitution), result)


def render_script(script: Script) -> str:
    lines = [f"mode: {script.mode.value}", f"name: {script.name}", "premises:"]
    for rule in script.premises:
        mark = " [proven]" if rule.kind is Kind.PROVEN else ""
        lines.append(f"  {rule.label}{mark}: {rule.identity}")
    lines.append(f"goal: {script.goal}")
    lines.append(f"start: {script.start}")
    for step in script.steps:
        if isinstance(step.position, tuple):
            pos = f"{step.position[0]}..{step.position[1]}"
        else:
            pos = step.position
        sub = ", ".join(f"{v}={t}" for v, t in sorted(step.substitution.items()))
        lines.append(
            f"step {step.label} {step.direction.value} at {pos} sub {{{sub}}}"
            f" -> {step.result}"
        )
    return "\n".join(lines) + "\n"


def load_script(path) -> Script:
    with open(path, encoding="utf-8") as handle:
        return parse_script(handle.read())


SHIPPED_ORDER = (
    "omega-idempotent",
    "omega-commutes",
    "omega-tail",
    "monoid-to-band",
    "band-to-monoid",
    "monoid-middle-collapse",
    "sandwich",
    "head-square",
    "head-absorb",
    "weak-fixpoint",
    "prime-fixpoint",
    "zero-to-prime",
)


@lru_cache(maxsize=1)
def shipped_scripts() -> tuple:
    """The bundled derivations, in dependency order: rules cited as proven in
    a later script are goals of an earlier one."""
    out = []
    for name in SHIPPED_ORDER:
        data = resources.files("varietylab").joinpath(f"scripts/{name}.script")
        out.append(parse_script(data.read_text(encoding="utf-8")))
    return tuple(out)
