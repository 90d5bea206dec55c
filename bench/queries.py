"""The ``queries`` workload: one round of interactive library calls.

Every round has the same mix of calls; only the random words, terms and
identities change with the seed.  Inputs are made as text before the clock
starts, and every answer is checked after the clock stops by a route that
does not go through the call being timed.
"""

from __future__ import annotations

import itertools
import random
import time

from probe import alloc_chunk
from varietylab import derivations, lattice, models, terms, varieties
from varietylab.terms import Identity, Mode, Word

IS_ALPHABET = "xyzwO"
PRODUCT_FACTORS = ("trivial", "A", "B", "K", "L", "M", "Z")
SATISFIES_ALGEBRAS = ("trivial", "A", "B", "K", "L", "M", "Z", "BxK_mod_I")
TREE_ALGEBRAS = ("trivial", "Z", "2s", "2b")
NF_CHECK_ALGEBRAS = ("B", "L", "M")  # together they generate the whole variety IS

DECIDE_CALLS = 2000
NORMALIZE_CALLS = 500
SATISFIES_CALLS = 500
TREE_CALLS = 300
PROBE_EVERY = 100


def _word(rng, max_len, alphabet=IS_ALPHABET) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_len)))


def _tree(rng, depth):
    """Random tree term as nested tuples: a letter, "0", or (left, right)."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice("xyz0")
    node = (_tree(rng, depth - 1), _tree(rng, depth - 1))
    return (node, "0") if rng.random() < 0.2 else node


def _tree_text(t) -> str:
    if isinstance(t, str):
        return t
    return f"({_tree_text(t[0])}>{_tree_text(t[1])})"


def make_round(seed: int, rep: int) -> list:
    """The round's calls as (kind, inputs) pairs, in a seeded order."""
    rng = random.Random(f"queries:{seed}:{rep}")
    calls = []
    kinds = list(varieties.Variety)
    for _ in range(DECIDE_CALLS):
        calls.append(("decide", (rng.choice(kinds).value,
                                 f"{_word(rng, 10)} = {_word(rng, 10)}")))
    for _ in range(NORMALIZE_CALLS):
        calls.append(("normalize", (_word(rng, 10),)))
    for _ in range(SATISFIES_CALLS):
        calls.append(("satisfies", (rng.choice(SATISFIES_ALGEBRAS),
                                    f"{_word(rng, 6, 'xyzO')} = {_word(rng, 6, 'xyzO')}")))
    for _ in range(TREE_CALLS):
        lhs, rhs = _tree(rng, 4), _tree(rng, 4)
        calls.append(("tree", (rng.choice(TREE_ALGEBRAS),
                               f"{_tree_text(lhs)} = {_tree_text(rhs)}", lhs, rhs)))
    for a, b in itertools.combinations_with_replacement(PRODUCT_FACTORS, 2):
        calls.append(("product", (a, b)))
    for name in derivations.SHIPPED_ORDER:
        calls.append(("script", (name,)))
    rng.shuffle(calls)
    return calls


def script_texts() -> dict:
    from importlib import resources

    base = resources.files("varietylab").joinpath("scripts")
    return {name: base.joinpath(f"{name}.script").read_text(encoding="utf-8")
            for name in derivations.SHIPPED_ORDER}


def run_round(calls: list, scripts: dict):
    """Time each call; return (answers, latencies, probe times) in seconds.
    An exception is recorded as the answer and counted as a failure by
    ``check_round``.  A probe chunk runs before every PROBE_EVERY calls."""
    clock = time.perf_counter
    builtin = models.builtin
    answers = []
    latencies = []
    probes = []
    for i, (kind, args) in enumerate(calls):
        if i % PROBE_EVERY == 0:
            probes.append(alloc_chunk())
        t0 = clock()
        try:
            if kind == "decide":
                out = varieties.decide(varieties.Variety(args[0]), args[1])
            elif kind == "normalize":
                out = str(terms.normalize_is(terms.parse_word(args[0])))
            elif kind == "satisfies":
                out = models.satisfies(builtin(args[0]), args[1]).holds
            elif kind == "tree":
                out = models.satisfies(
                    builtin(args[0]), terms.parse_identity(args[1], Mode.IZ)).holds
            elif kind == "product":
                out = varieties.variety_of(
                    models.direct_product(builtin(args[0]), builtin(args[1])))
            else:
                out = derivations.replay(derivations.parse_script(scripts[args[0]])).passed
        except Exception as exc:  # counted as a failed call, never fatal
            out = exc
        latencies.append(clock() - t0)
        answers.append(out)
    return answers, latencies, probes


# ---------------------------------------------------------------------------
# Checks, run off the clock


def _eval_tree(table, zero, t, asg):
    if t == "0":
        return zero
    if isinstance(t, str):
        return asg[t]
    return table[_eval_tree(table, zero, t[0], asg)][_eval_tree(table, zero, t[1], asg)]


def _tree_holds(a, lhs, rhs) -> bool:
    for values in itertools.product(range(a.order), repeat=3):
        asg = dict(zip("xyz", values))
        if _eval_tree(a.table, a.distinguished, lhs, asg) != _eval_tree(
                a.table, a.distinguished, rhs, asg):
            return False
    return True


def _same_class(a, u: Word, w: Word) -> bool:
    letters = tuple(sorted(terms.content(u) | terms.content(w))) or ("x",)
    classes = models.word_value_classes(a, [u, w], letters)
    return classes[u] == classes[w]


def check_round(calls: list, answers: list) -> list:
    """One message per wrong answer or exception."""
    lat = lattice.build_lattice()
    builtin = models.builtin
    errors = []
    for (kind, args), out in zip(calls, answers):
        if isinstance(out, Exception):
            errors.append(f"{kind} {args!r} raised {out!r}")
            continue
        if kind in ("decide", "satisfies"):
            u, w = (Word(side.strip()) for side in args[1].split("="))
        if kind == "decide":
            ident = Identity(u, w, Mode.IS)
            gens = varieties.record(varieties.Variety(args[0])).generators
            want = all(models.satisfies(builtin(g), ident).holds for g in gens)
        elif kind == "normalize":
            want = out
            if not all(_same_class(builtin(g), Word(args[0]), Word(out))
                       for g in NF_CHECK_ALGEBRAS):
                want = "a word equal to the input in B, L and M"
        elif kind == "satisfies":
            want = _same_class(builtin(args[0]), u, w)
        elif kind == "tree":
            want = _tree_holds(builtin(args[0]), args[2], args[3])
        elif kind == "product":
            want = lat.join(varieties.variety_of(builtin(args[0])),
                            varieties.variety_of(builtin(args[1])))
        else:
            want = True
        if out != want:
            errors.append(f"{kind} {args!r}: got {out!r}, want {want!r}")
    return errors
