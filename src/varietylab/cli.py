"""Command-line surface.

Exit codes: 0 for answered queries (HOLDS and FAILS are both answers),
1 when a verification fails (a replay or suite that fails, or a
`VerificationError` raised anywhere), 2 for usage or parse errors.
"""

from __future__ import annotations

import argparse
import sys

from . import models, varieties
from .derivations import load_script, replay
from .enumeration import enumerate_algebras, render_report
from .lattice import (
    build_lattice,
    find_n5,
    is_distributive,
    is_zero_distributive,
    neutral_elements,
)
from .models import VerificationError, builtin, load_algebra, satisfies
from .terms import Mode, parse_identity, parse_word, normalize_is
from .varieties import variety_by_name


def _load_algebra_arg(spec: str) -> models.FiniteAlgebra:
    if spec.startswith("builtin:"):
        return builtin(spec[len("builtin:"):])
    return load_algebra(spec)


def _witness_text(a: models.FiniteAlgebra, witness: dict) -> str:
    return " ".join(f"{letter}={a.element_name(v)}" for letter, v in sorted(witness.items()))


def cmd_check(args) -> int:
    variety = variety_by_name(args.variety)
    ident = parse_identity(args.identity)
    print("HOLDS" if varieties.decide(variety, ident) else "FAILS")
    return 0


def cmd_normalize(args) -> int:
    print(normalize_is(parse_word(args.word)))
    return 0


def cmd_oracle(args) -> int:
    *algebra_specs, identity_text = args.args
    if not algebra_specs:
        raise ValueError("oracle needs at least one algebra and an identity")
    ident = parse_identity(identity_text, args.mode)
    algebras = [_load_algebra_arg(spec) for spec in algebra_specs]
    for spec, a in zip(algebra_specs, algebras):
        res = satisfies(a, ident)
        if res.holds:
            verdict = "HOLDS"
        elif res.witness:
            verdict = f"FAILS witness {_witness_text(a, res.witness)}"
        else:  # an identity without letters fails at the empty assignment
            verdict = "FAILS"
        if len(algebras) > 1:
            print(f"{spec}: {verdict}")
        else:
            print(verdict)
    return 0


def cmd_variety_of(args) -> int:
    print(varieties.variety_of(_load_algebra_arg(args.algebra)))
    return 0


def cmd_lattice(args) -> int:
    lat = build_lattice()
    if args.dot:
        # written before the report, so a bad path leaves stdout empty
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(lat.to_dot())
    pent = find_n5(lat)
    distributive = is_distributive(lat)[0]
    zero_dist = is_zero_distributive(lat)[0]
    print(
        f"elements={len(lat)} covers={len(lat.covers())} "
        f"modular={str(pent is None).lower()}"
    )
    print(f"distributive={str(distributive).lower()}")
    print(f"zero-distributive={str(zero_dist).lower()}")
    print("atoms=" + ",".join(sorted(str(v) for v in lat.atoms())))
    print("neutral=" + ",".join(sorted(str(v) for v in neutral_elements(lat))))
    if pent is not None:
        print(f"pentagon=o:{pent.o} a:{pent.a} b:{pent.b} c:{pent.c} i:{pent.i}")
    if args.dot:
        print(f"dot={args.dot}")
    return 0


def cmd_enumerate(args) -> int:
    report = enumerate_algebras(args.order, args.mode)
    sys.stdout.write(render_report(report))
    return 0


def cmd_replay(args) -> int:
    script = load_script(args.script)
    result = replay(script)
    if result.passed:
        print(f"PASS {script.name}")
        return 0
    where = "setup" if result.step is None else f"step {result.step}"
    print(f"FAIL {script.name} at {where}: {result.message}")
    return 1


def cmd_verify(args) -> int:
    from . import verify

    failed = total = 0
    for res in verify.run_all():  # printed as made: a check that raises keeps the lines before it
        mark = "ok" if res.passed else "FAIL"
        line = f"{mark} {res.name}"
        if res.detail:
            line += f" ({res.detail})"
        print(line, flush=True)
        total += 1
        failed += 0 if res.passed else 1
    if failed:
        print(f"{failed} of {total} checks failed")
        return 1
    print(f"all {total} checks passed")
    return 0


def _jobs(text: str) -> int:
    """The --jobs value: an integer of at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, not {text!r}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varietylab",
        description="Decision procedures, finite-model oracles and lattice "
        "analysis for implication semigroups.",
        epilog="VARIETYLAB_SEED seeds the randomized sweeps in verify-paper.",
    )
    parser.add_argument(
        "--jobs", type=_jobs, default=1, help="at least 1; the census is always one process"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide an identity in one of the 16 varieties")
    p.add_argument("variety", help="variety name, e.g. IS, B, SL+ZM")
    p.add_argument("identity", help='identity text, e.g. "xyz = zOxyzOO"')
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("normalize", help="canonical form of a word")
    p.add_argument("word")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser(
        "oracle", help="evaluate an identity on algebras (builtin:NAME or table files)"
    )
    p.add_argument("--mode", choices=[m.value for m in Mode], default=Mode.IS.value)
    p.add_argument("args", nargs="+", metavar="ALGEBRA... IDENTITY")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("variety-of", help="least variety generated by an algebra")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_variety_of)

    p = sub.add_parser("lattice", help="build and analyse the subvariety lattice")
    p.add_argument("--dot", metavar="PATH", help="write the Hasse diagram as DOT")
    p.set_defaults(func=cmd_lattice)

    p = sub.add_parser("enumerate", help="census of small algebras up to isomorphism")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--mode", choices=[m.value for m in Mode], required=True)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("replay", help="check a derivation script")
    p.add_argument("script")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser(
        "verify-paper",
        help="run the complete reproduction suite; nonzero exit on any failure",
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except VerificationError as exc:  # before its base ValueError
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
