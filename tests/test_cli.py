from pathlib import Path

import pytest

from varietylab import cli
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
    from varietylab.derivations import render_script, shipped_scripts

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
