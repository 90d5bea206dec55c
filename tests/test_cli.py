from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from varietylab import cli
from varietylab.derivations import render_script, shipped_scripts
from varietylab.models import builtin, render_algebra


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
    # a directory is an unreadable algebra file, not a crash
    for argv in (["oracle", str(tmp_path), "x = x"], ["variety-of", str(tmp_path)]):
        code, _, err = run(capsys, argv)
        assert code == 2 and err.startswith("error:")


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


def test_variety_of_rejects_non_semigroup(capsys):
    code, _, err = run(capsys, ["variety-of", "builtin:2b"])
    assert code == 1 and "verification failure" in err


def test_lattice_report(capsys, tmp_path):
    dot = tmp_path / "hasse.dot"
    code, out, _ = run(capsys, ["lattice", "--dot", str(dot)])
    assert code == 0
    assert "elements=16 covers=25 modular=false" in out
    assert "atoms=SL,ZM" in out
    text = dot.read_text(encoding="utf-8")
    assert text.count("->") == 25 and '"SL+N" -> "IS";' in text
    # a directory as the dot path: a usage error, and no half-printed report
    code, out, err = run(capsys, ["lattice", "--dot", str(tmp_path)])
    assert code == 2 and out == "" and err.startswith("error:")


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
        ["enumerate", "--order", "2", "--mode", "is", "--jobs", "0"],
        ["verify-paper", "--jobs", "0"],
    ],
)
def test_jobs_below_one_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert "error:" in err and "Traceback" not in err


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
    expected = Path(__file__).resolve().parent.parent / "bench" / "verify_paper.txt"
    code, out, _ = run(capsys, ["--jobs", jobs, "verify-paper"])
    assert code == 0
    assert out == expected.read_text(encoding="utf-8")


def test_parse_errors_name_their_line(capsys, tmp_path):
    algebra = tmp_path / "bad.alg"
    algebra.write_text("size: 2\nomega: 0\n\n0 1\n1 1 1\n", encoding="utf-8")
    code, out, err = run(capsys, ["oracle", str(algebra), "x = x"])
    assert code == 2 and out == ""
    assert err == "error: row '1 1 1' does not have 2 entries (line 5)\n"
    script = tmp_path / "bad.script"
    script.write_text("mode: is\nname: x\ngoal: x = x\n# c\nstart: x\nstep ? \n",
                      encoding="utf-8")
    code, out, err = run(capsys, ["replay", str(script)])
    assert code == 2 and out == ""
    assert err == "error: bad step line 'step ?' (line 6)\n"
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
                 _slot("is", "iz"), _slot("--jobs"), _slot("1", "2")),
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
