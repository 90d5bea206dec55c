import shlex
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from varietylab import cli, lattice, varieties, verify
from varietylab.derivations import render_script, shipped_scripts
from varietylab.models import builtin, render_algebra

ROOT = Path(__file__).resolve().parent.parent
PINNED = ROOT / "bench" / "verify_paper.txt"


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_holds(capsys):
    code, out, _ = run(capsys, ["check", "IS", "xyz = zOxyzOO"])
    assert code == 0 and out == "HOLDS\n"


def test_check_fails_is_still_an_answer(capsys):
    code, out, _ = run(capsys, ["check", "ZM", "x = xx"])
    assert code == 0 and out == "FAILS\n"


def test_check_bad_variety(capsys):
    code, _, err = run(capsys, ["check", "QQ", "x = x"])
    assert code == 2 and "unknown variety" in err


def test_check_bad_identity(capsys):
    code, _, err = run(capsys, ["check", "B", "x < y"])
    assert code == 2 and "error" in err


def test_normalize(capsys):
    code, out, _ = run(capsys, ["normalize", "xyx"])
    assert code == 0 and out == "yxO\n"


def test_oracle_single(capsys):
    code, out, _ = run(capsys, ["oracle", "builtin:M", "xO = xx"])
    assert code == 0 and out == "FAILS witness x=b\n"


def test_oracle_multiple_and_file(capsys, tmp_path):
    path = tmp_path / "k.alg"
    path.write_text(render_algebra(builtin("K")), encoding="utf-8")
    code, out, _ = run(capsys, ["oracle", "builtin:B", str(path), "xO = xx"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "builtin:B: HOLDS"
    assert lines[1].endswith("HOLDS")
    # a table file names no elements: a witness shows their numbers
    path.write_text("size: 2\nomega: 0\n0 0\n1 1\n", encoding="utf-8")
    code, out, _ = run(capsys, ["oracle", str(path), "xy = yx"])
    assert code == 0 and out == "FAILS witness x=0 y=1\n"


def test_oracle_iz_mode(capsys):
    code, out, _ = run(capsys, ["oracle", "--mode", "iz", "builtin:2b", "0 = 0'"])
    assert code == 0 and out.startswith("FAILS")


def test_oracle_letter_free_failure_has_no_witness(capsys):
    argv = ["oracle", "--mode", "iz", "builtin:2b", "0 = 0'"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and out == "FAILS\n"
    code, out, _ = run(capsys, argv[:-1] + ["builtin:2s", "0 = 0'"])
    assert code == 0 and out == "builtin:2b: FAILS\nbuiltin:2s: HOLDS\n"


def test_oracle_missing_algebra(capsys, tmp_path):
    code, _, err = run(capsys, ["oracle", "builtin:nope", "x = x"])
    assert code == 2 and "unknown builtin" in err
    code, out, err = run(capsys, ["oracle", "xy = yx"])
    assert code == 2 and out == ""
    assert err == "error: oracle needs at least one algebra and an identity\n"
    # a directory is an unreadable algebra file, not a crash
    for argv in (["oracle", str(tmp_path), "x = x"], ["variety-of", str(tmp_path)]):
        code, _, err = run(capsys, argv)
        assert code == 2 and err.startswith("error:")


def test_oracle_refuses_a_sweep_above_the_assignment_bound(capsys):
    letters = "abcdefghijklmnopqrstuvwxyz"
    code, out, err = run(capsys, ["oracle", "builtin:BxK_mod_I", f"{letters} = {letters}"])
    assert (code, out) == (2, "")
    assert err == "error: 10^26 assignments to sweep, above 10000000\n"


def test_oracle_rejects_too_deep_terms(capsys):
    # both overflowed the interpreter stack before the parser had a bound
    for text in ("x" + "'" * 5000 + "=x", "(" * 2000 + "x" + ">y)" * 2000 + " = x"):
        code, out, err = run(capsys, ["oracle", "--mode", "iz", "builtin:2s", text])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "nested deeper" in err
        assert "Traceback" not in err


def test_variety_of(capsys):
    code, out, _ = run(capsys, ["variety-of", "builtin:BxK_mod_I"])
    assert code == 0 and out == "L\n"


def test_variety_of_rejects_non_semigroup(capsys, monkeypatch, tmp_path):
    path = tmp_path / "2b.alg"
    path.write_text(render_algebra(builtin("2b")), encoding="utf-8")
    for spec in ("builtin:2b", str(path)):
        code, out, err = run(capsys, ["variety-of", spec])
        # the witness names each letter of the first failing triple
        assert code == 1 and out == ""
        assert err.startswith(
            "verification failure: axiom check failed: "
            "associativity fails at {'x': 0, 'y': 0, 'z': 0}"
        )
    # a semigroup whose least variety the order cannot single out
    monkeypatch.setattr(varieties, "generator_leq", lambda v, w: False)
    code, out, err = run(capsys, ["variety-of", "builtin:Z"])
    assert code == 1 and out == ""
    assert err.startswith("verification failure: no unique least variety among [ZM, K, ")
    assert "<Variety." not in err and "Traceback" not in err


LATTICE_REPORT = (
    "elements=16 covers=25 modular=false\n"
    "distributive=false\n"
    "zero-distributive=true\n"
    "atoms=SL,ZM\n"
    "neutral=B+K,IS,SL,SL+ZM,T,ZM\n"
    "pentagon=o:T a:K b:B c:L i:B+K\n"
)


def test_lattice_report(capsys, tmp_path):
    code, out, _ = run(capsys, ["lattice"])
    assert code == 0 and out == LATTICE_REPORT
    dot = tmp_path / "hasse.dot"
    code, out, _ = run(capsys, ["lattice", "--dot", str(dot)])
    assert code == 0 and out == LATTICE_REPORT + f"dot={dot}\n"
    text = dot.read_text(encoding="utf-8")
    assert text.count("->") == 25 and '"SL+N" -> "IS";' in text
    # a directory as the dot path: a usage error, and no half-printed report
    code, out, err = run(capsys, ["lattice", "--dot", str(tmp_path)])
    assert code == 2 and out == "" and err.startswith("error:")


def _readme_cli_examples():
    """(argv, comment) of each `varietylab ...  # text` line in README's CLI
    block whose command reads no input file, with a trailing " ..." dropped
    from the comment."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, sep, comment = line.partition(" # ")
        argv = shlex.split(command)[1:]
        if sep and not any(arg.endswith((".alg", ".script")) for arg in argv):
            examples.append((argv, comment.strip().removesuffix(" ...")))
    return examples


def test_readme_cli_examples_print_what_their_comments_say(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # `lattice --dot hasse.dot` writes its file here
    examples = _readme_cli_examples()
    assert len(examples) == 6
    for argv, comment in examples:
        code, out, _ = run(capsys, argv)
        assert code == 0 and out.splitlines()[0].startswith(comment), (argv, out)


def test_enumerate_command(capsys):
    code, out, _ = run(capsys, ["enumerate", "--order", "2", "--mode", "is"])
    assert code == 0
    assert out.endswith("order=2 mode=is classes=2\n")
    assert "# variety: SL" in out and "# variety: ZM" in out


def test_enumerate_bound(capsys):
    code, _, err = run(capsys, ["enumerate", "--order", "9", "--mode", "is"])
    assert code == 2 and "bound" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--jobs", "0", "enumerate", "--order", "2", "--mode", "is"],
        ["--jobs", "-3", "enumerate", "--order", "2", "--mode", "is"],
        ["--jobs", "0", "verify-paper"],
        ["--jobs", "two", "verify-paper"],
    ],
)
def test_jobs_below_one_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "must be an integer of at least 1" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--order", "2", "--mode", "is", "--jobs", "0"],
        ["enumerate", "--order", "2", "--mode", "is", "--jobs", "2"],
        ["verify-paper", "--jobs", "0"],
        ["verify-paper", "--jobs", "2"],
    ],
)
def test_jobs_after_the_subcommand_is_unrecognized(capsys, argv):
    # --jobs is a global flag only: it must precede the subcommand
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "unrecognized arguments: --jobs" in err and "Traceback" not in err


def test_replay_pass_and_fail(capsys, tmp_path):
    script = shipped_scripts()[2]
    good = tmp_path / "good.script"
    good.write_text(render_script(script), encoding="utf-8")
    code, out, _ = run(capsys, ["replay", str(good)])
    assert code == 0 and out == f"PASS {script.name}\n"

    bad_text = render_script(script).replace("zOxyzOO", "zOxyzOOO", 1)
    bad = tmp_path / "bad.script"
    bad.write_text(bad_text, encoding="utf-8")
    code, out, _ = run(capsys, ["replay", str(bad)])
    assert code == 1 and out.startswith("FAIL")

    # a binding of a letter that the step's rule does not contain
    stray_text = render_script(script).replace(
        "sub {x=x, y=y, z=z}", "sub {q=xx, x=x, y=y, z=z}", 1
    )
    bad.write_text(stray_text, encoding="utf-8")
    code, out, _ = run(capsys, ["replay", str(bad)])
    assert code == 1 and out == "FAIL omega-tail at step 0: rule 'A1' has no letter 'q'\n"


def test_replay_rejects_a_binding_of_a_non_letter(capsys, tmp_path):
    # no rule mentions 1 or Q, so only the parse can reject these bindings
    text = render_script(shipped_scripts()[2]).replace(
        "sub {x=x, y=y, z=z}", "sub {x=x, y=y, z=z, 1=O, Q=x, x=x}", 1
    )
    path = tmp_path / "bad.script"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, ["replay", str(path)])
    assert code == 2 and out == ""
    assert err == "error: invalid variable name '1' (line 7)\n"


def test_replay_rejects_a_position_of_the_wrong_kind(capsys, tmp_path):
    # flat mode takes a factor range, tree mode a root path over L and R
    scripts = {
        "flat": "mode: is\nname: x\ngoal: xOOO = xO\nstart: xOOO\n"
        "step A2 L2R at LR sub {} -> xO\n",
        "tree": "mode: iz\nname: x\ngoal: 0'' = 0\nstart: 0''\n"
        "step A2 L2R at 1..2 sub {} -> 0\n",
    }
    for name, text in scripts.items():
        path = tmp_path / f"{name}.script"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, ["replay", str(path)])
        assert code == 2 and out == "", name
        assert err.startswith("error: bad position") and "Traceback" not in err, name


def test_replay_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["replay", "no-such-file.script"])
    assert code == 2
    code, _, err = run(capsys, ["replay", str(tmp_path)])
    assert code == 2 and err.startswith("error:")


def test_unknown_command():
    assert cli.main(["frobnicate"]) == 2


def test_usage_error_exit_code():
    assert cli.main([]) == 2


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_paper_stdout_is_pinned(capsys, monkeypatch, jobs):
    monkeypatch.delenv("VARIETYLAB_SEED", raising=False)
    code, out, _ = run(capsys, ["--jobs", jobs, "verify-paper"])
    assert code == 0
    assert out == PINNED.read_text(encoding="utf-8")


def test_verify_paper_keeps_the_lines_of_the_checks_before_one_that_raises(capsys, monkeypatch):
    # a RuntimeError is a bug, not a failed fact: it propagates, after the
    # lines already made
    monkeypatch.delenv("VARIETYLAB_SEED", raising=False)

    def planted():
        raise RuntimeError("planted in check 09")

    checks = list(verify.NUMBERED_CHECKS)
    checks[8] = planted
    monkeypatch.setattr(verify, "NUMBERED_CHECKS", tuple(checks))
    with pytest.raises(RuntimeError, match="planted in check 09"):
        cli.main(["verify-paper"])
    out = capsys.readouterr().out
    assert out.splitlines() == PINNED.read_text(encoding="utf-8").splitlines()[:8]
    assert out.endswith("\n")


def test_verify_paper_fails_each_line_a_wrong_lattice_reaches_and_runs_the_rest(
    capsys, monkeypatch
):
    monkeypatch.delenv("VARIETYLAB_SEED", raising=False)
    covers = [p for p in lattice.EXPECTED_COVERS if (str(p[0]), str(p[1])) != ("B+K", "IS")]
    monkeypatch.setattr(lattice, "EXPECTED_COVERS", tuple(covers))
    code, out, err = run(capsys, ["verify-paper"])
    expected = PINNED.read_text(encoding="utf-8").splitlines()
    for i, name in (
        (0, "01 check_01_lattice_reproduction"),
        (1, "02 check_02_non_modularity"),
        (2, "03 check_03_chain_and_downset"),
        (3, "04 check_04_neutrality"),
        (4, "05 check_05_atoms"),
        (7, "08 check_08_join_equalities"),
        (12, "13 check_13_zero_distributivity"),
        (19, "documented_examples"),
    ):
        expected[i] = f"FAIL {name} (unexpected cover B+K < IS)"
    expected[-1] = "8 of 20 checks failed"
    assert code == 1 and err == ""
    assert out.splitlines() == expected


def test_verify_paper_counts_its_failed_checks(capsys, monkeypatch):
    monkeypatch.delenv("VARIETYLAB_SEED", raising=False)
    checks = list(verify.NUMBERED_CHECKS)
    checks[4] = lambda: verify.CheckResult("atoms", False, "atoms=planted")
    monkeypatch.setattr(verify, "NUMBERED_CHECKS", tuple(checks))
    code, out, _ = run(capsys, ["verify-paper"])
    expected = PINNED.read_text(encoding="utf-8").splitlines()
    expected[4] = "FAIL 05 atoms (atoms=planted)"
    expected[-1] = "1 of 20 checks failed"
    assert code == 1 and out.splitlines() == expected


@pytest.mark.parametrize("seed", ["abc", "1e3"])
def test_verify_paper_names_a_seed_that_is_no_integer(capsys, monkeypatch, seed):
    monkeypatch.setenv("VARIETYLAB_SEED", seed)
    code, out, err = run(capsys, ["verify-paper"])
    assert code == 2 and out == ""
    assert err == f"error: VARIETYLAB_SEED must be an integer, not {seed!r}\n"


@pytest.mark.parametrize("seed, expected", [("", verify.DEFAULT_SEED), (" 7 ", 7), ("-3", -3)])
def test_seed_from_env_reads_integers_and_defaults_when_empty(monkeypatch, seed, expected):
    monkeypatch.setenv("VARIETYLAB_SEED", seed)
    assert verify.seed_from_env() == expected
    monkeypatch.delenv("VARIETYLAB_SEED")
    assert verify.seed_from_env() == verify.DEFAULT_SEED


def test_parse_errors_name_their_line(capsys, tmp_path):
    algebra = tmp_path / "bad.alg"
    algebra.write_text("size: 2\nomega: 0\n\n0 1\n1 1 1\n", encoding="utf-8")
    code, out, err = run(capsys, ["oracle", str(algebra), "x = x"])
    assert code == 2 and out == ""
    assert err == "error: row '1 1 1' does not have 2 entries (line 5)\n"
    algebra.write_text("size: 0\nomega: 0\n", encoding="utf-8")
    code, out, err = run(capsys, ["oracle", str(algebra), "x = x"])
    assert code == 2 and out == ""
    assert err == "error: algebras have at least one element (line 1)\n"
    algebra.write_text("size 2\nomega: 0\n", encoding="utf-8")
    code, out, err = run(capsys, ["oracle", str(algebra), "x = x"])
    assert code == 2 and out == ""
    assert err == "error: expected 'size: n', got 'size 2' (line 1)\n"
    script = tmp_path / "bad.script"
    script.write_text("mode: is\nname: x\ngoal: x = x\n# c\nstart: x\nstep ? \n",
                      encoding="utf-8")
    code, out, err = run(capsys, ["replay", str(script)])
    assert code == 2 and out == ""
    assert err == "error: bad step line 'step ?' (line 6)\n"
    script.write_text("mode: is\nnme: x\ngoal: x = x\nstart: x\n", encoding="utf-8")
    code, out, err = run(capsys, ["replay", str(script)])
    assert code == 2 and out == ""
    assert err == "error: expected 'name:', got 'nme: x' (line 2)\n"
    for text, error in (
        ("premises: a: x = x\n", "premises go on their own lines (line 3)"),
        ("premises:\nnocolon\n", "bad premise line 'nocolon' (line 4)"),
    ):
        script.write_text(f"mode: is\nname: x\n{text}goal: x = x\nstart: x\n",
                          encoding="utf-8")
        code, out, err = run(capsys, ["replay", str(script)])
        assert code == 2 and out == ""
        assert err == f"error: {error}\n"
    # premises that run to the end of the file: an error, not an IndexError
    script.write_text("mode: is\nname: x\npremises:\n  a: x = x\n  b: y = y\n",
                      encoding="utf-8")
    code, out, err = run(capsys, ["replay", str(script)])
    assert code == 2 and out == ""
    assert err == "error: expected 'goal:', got the end of the script (line 5)\n"


def _plain_word(text):
    """Neither a number nor a path: argparse reads --order and --jobs with
    int(), which also takes "+5", " 7 " and "1_0", and a path could send
    --dot outside the test's directory."""
    try:
        int(text)
    except ValueError:
        return "/" not in text and "\\" not in text
    return False


_FILE = object()  # stands for a path to a file of drawn text
_WORDS = st.one_of(
    st.sampled_from([
        "--jobs", "--mode", "--order", "--dot", "-h", "1", "2", "3", "0", "-1", "x",
        "is", "iz", "IS", "B", "builtin:A", "builtin:nope", "x = x", "0'' = 0", "(x>y", _FILE,
    ]),
    st.text(max_size=12).filter(_plain_word),
)


def _slot(*choices):
    """A word of the subcommand's grammar, or now and then any word."""
    return st.integers(0, 5).flatmap(lambda k: st.sampled_from(choices) if k else _WORDS)


def _command(name, *slots):
    return st.tuples(st.just(name), *slots)


_ARGV = st.tuples(
    st.sampled_from([[], ["--jobs", "1"], ["--jobs", "2"], ["--jobs"]]),
    st.one_of(
        _command("check", _slot("IS", "B", "SL+ZM", "QQ"), _slot("xyz = zOxyzOO", "x = xx")),
        _command("normalize", _slot("xyx", "xOy", "x y", "")),
        _command("oracle", _slot("--mode"), _slot("is", "iz"),
                 _slot("builtin:M", "builtin:2s", _FILE), _slot("builtin:B", _FILE),
                 _slot("xO = xx", "x = x", "0' = 0", "x > y = y")),
        _command("variety-of", _slot("builtin:BxK_mod_I", "builtin:2b", _FILE)),
        _command("lattice", _slot("--dot"), _slot("hasse.dot", ".")),
        _command("enumerate", _slot("--order"), _slot("1", "2", "3"), _slot("--mode"),
                 _slot("is", "iz")),
        _command("replay", _slot(_FILE)),
    ).map(list),
    st.integers(0, 3).flatmap(lambda k: st.lists(_WORDS, min_size=1, max_size=2)
                              if k == 0 else st.just([])),
).map(lambda parts: [word for part in parts for word in part])
_FILE_TEXTS = st.one_of(
    st.text(max_size=80),
    st.sampled_from(
        [render_algebra(builtin(name)) for name in ("A", "B", "2b")]
        + [render_script(s) for s in shipped_scripts()[:3]]
    ).flatmap(lambda text: st.lists(st.integers(0, 12), max_size=3).map(
        # drop a few lines of a well-formed file
        lambda cut: "\n".join(
            line for i, line in enumerate(text.splitlines()) if i not in cut))),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(words=_ARGV, texts=st.lists(_FILE_TEXTS, min_size=1, max_size=2))
def test_cli_fuzz_never_tracebacks(capsys, monkeypatch, tmp_path, words, texts):
    # no verify-paper and enumerate orders up to 3: every case is cheap;
    # relative paths (a --dot target) land in the test's directory
    monkeypatch.chdir(tmp_path)
    argv = []
    for word in words:
        if word is _FILE:
            path = tmp_path / f"input{len(argv)}"
            path.write_text(texts[len(argv) % len(texts)], encoding="utf-8")
            word = str(path)
        argv.append(word)
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
