import dataclasses
import re

import pytest

from varietylab import derivations, models
from varietylab.derivations import (
    AXIOM_LABELS,
    Direction,
    Kind,
    Rule,
    Script,
    Step,
    StepError,
    _axioms,
    apply_step,
    load_script,
    parse_script,
    render_script,
    replay,
    shipped_scripts,
    SHIPPED_ORDER,
)
from varietylab.enumeration import enumerate_algebras
from varietylab.verify import corrupt_step_substitution
from varietylab.terms import (
    AXIOM_TEXTS,
    Mode,
    Word,
    ZERO,
    parse_identity,
    parse_term,
)

# scripts that are well formed but for a position of the other mode's kind:
# a root path in flat mode, a factor range in tree mode
WRONG_KIND_STEPS = {
    "mode: is\nname: x\ngoal: xOOO = xO\nstart: xOOO\n": "step A2 L2R at LR sub {} -> xO",
    "mode: iz\nname: x\ngoal: 0'' = 0\nstart: 0''\n": "step A2 L2R at 1..2 sub {} -> 0",
}


def rules_for(mode, extra=()):
    out = {r.label: r for r in _axioms(mode)}
    for r in extra:
        out[r.label] = r
    return out


def test_apply_step_is_examples():
    rules = rules_for(Mode.IS)
    # literal shrink of three constants
    step = Step("A2", Direction.L2R, (2, 4), {}, Word("xO"))
    assert apply_step(Word("xOOO"), step, rules) == Word("xO")
    # unwrap the defining identity across the whole word
    sub = {v: Word(v) for v in "xyz"}
    step = Step("A1", Direction.R2L, (1, 7), sub, Word("xyz"))
    assert apply_step(Word("zOxyzOO"), step, rules) == Word("xyz")
    # needs three constants, only two present
    step = Step("A2", Direction.L2R, (1, 3), {}, Word("O"))
    with pytest.raises(StepError):
        apply_step(Word("xOO"), step, rules)


def test_apply_step_error_cases():
    rules = rules_for(Mode.IS)
    with pytest.raises(StepError, match=r"^unknown rule label 'nope'$"):
        apply_step(Word("xx"), Step("nope", Direction.L2R, (1, 1), {}, Word("x")), rules)
    with pytest.raises(StepError, match=r"^range 1\.\.9 outside word of length 2$"):
        apply_step(Word("xx"), Step("A2", Direction.L2R, (1, 9), {}, Word("x")), rules)
    with pytest.raises(StepError, match=r"^no match at 1\.\.2: expected OOO, found xx$"):
        apply_step(Word("xx"), Step("A2", Direction.L2R, (1, 2), {}, Word("x")), rules)
    iz_rules = rules_for(Mode.IZ)
    with pytest.raises(StepError, match=r"^path 'LLL' leaves the term$"):
        apply_step(parse_term("0'"), Step("A2", Direction.L2R, "LLL", {}, ZERO), iz_rules)
    with pytest.raises(StepError, match=r"^no match at R: expected 0'', found 0$"):
        apply_step(parse_term("0'"), Step("A2", Direction.L2R, "R", {}, ZERO), iz_rules)


def test_apply_step_iz():
    rules = rules_for(Mode.IZ)
    term = parse_term("(0''>x)")
    step = Step("A2", Direction.L2R, "L", {}, parse_term("(0>x)"))
    assert apply_step(term, step, rules) == parse_term("(0>x)")
    # the root, written e, rewrites the whole term
    step = Step("A2", Direction.R2L, "e", {}, parse_term("0''"))
    assert apply_step(ZERO, step, rules) == parse_term("0''")


def test_all_shipped_scripts_pass():
    scripts = shipped_scripts()
    assert len(scripts) >= 10
    for script in scripts:
        assert replay(script), script.name


def test_shipped_proven_rules_cite_earlier_goals():
    seen = []
    for script in shipped_scripts():
        for rule in script.premises:
            if rule.kind is Kind.PROVEN:
                assert (script.mode, rule.identity) in seen, (script.name, rule.label)
        seen.append((script.mode, script.goal))


def test_corrupting_every_step_leaves_the_cached_scripts_unchanged():
    scripts = shipped_scripts()
    before = [render_script(script) for script in scripts]
    mutations = 0
    for script in scripts:
        for idx, step in enumerate(script.steps):
            if not step.substitution:
                continue
            bad = corrupt_step_substitution(script, idx)
            assert bad.steps[idx] != step
            others = script.steps[:idx] + script.steps[idx + 1:]
            assert bad.steps[:idx] + bad.steps[idx + 1:] == others
            result = replay(bad)
            assert not result.passed and result.step == idx, (script.name, idx)
            mutations += 1
    assert mutations == 59
    assert shipped_scripts() is scripts
    assert [render_script(script) for script in scripts] == before
    assert all(replay(script).passed for script in scripts)


def test_shipped_scripts_are_frozen_values():
    script = shipped_scripts()[2]
    step = script.steps[0]
    assert isinstance(script.premises, tuple) and isinstance(script.steps, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        script.start = Word("OOO")
    with pytest.raises(dataclasses.FrozenInstanceError):
        step.result = Word("OOO")
    with pytest.raises(TypeError):
        step.substitution["x"] = Word("O")
    with pytest.raises(dataclasses.FrozenInstanceError):
        replay(script).passed = False
    assert replay(script)


def test_corrupted_claimed_result_fails():
    base = shipped_scripts()[0]
    steps = list(base.steps)
    steps[2] = dataclasses.replace(steps[2], result=Word("OOOOOOO"))
    result = replay(dataclasses.replace(base, steps=tuple(steps)))
    assert not result.passed and result.step == 2


def test_a_binding_of_a_letter_the_rule_lacks_fails_its_step():
    text = render_script(shipped_scripts()[2]).replace(
        "sub {x=x, y=y, z=z}", "sub {q=xx, x=x, y=y, z=z}", 1
    )
    result = replay(parse_script(text))
    assert not result.passed and result.step == 0
    assert result.message == "rule 'A1' has no letter 'q'"


def test_bad_start_and_unfinished_chain_fail():
    base = shipped_scripts()[0]
    assert not replay(dataclasses.replace(base, start=Word("OOO"))).passed
    truncated = dataclasses.replace(base, steps=base.steps[:-1])
    result = replay(truncated)
    assert not result.passed and result.step == len(truncated.steps)


def test_soundness_on_models():
    algebras = {
        Mode.IS: [models.builtin(n) for n in ("trivial", "A", "B", "K", "L", "M", "Z")]
        + list(enumerate_algebras(3, Mode.IS).algebras),
        Mode.IZ: [models.builtin(n) for n in ("trivial", "Z", "2s", "2b")]
        + list(enumerate_algebras(3, Mode.IZ).algebras),
    }
    for script in shipped_scripts():
        assert replay(script)
        for a in algebras[script.mode]:
            if all(models.satisfies(a, r.identity).holds for r in script.premises):
                assert models.satisfies(a, script.goal).holds, (script.name, a)


def test_goals_hold_in_premise_satisfying_builtins():
    # unconditional scripts hold in every builtin of their mode
    for script in shipped_scripts():
        if any(r.kind is Kind.PREMISE for r in script.premises):
            continue
        names = ("trivial", "A", "B", "K", "L", "M", "Z") if script.mode is Mode.IS else (
            "trivial", "Z", "2s", "2b")
        for name in names:
            assert models.satisfies(models.builtin(name), script.goal).holds


def test_script_round_trip():
    for script in shipped_scripts():
        assert parse_script(render_script(script)) == script


def test_load_script(tmp_path):
    script = shipped_scripts()[0]
    path = tmp_path / "s.script"
    path.write_text(render_script(script), encoding="utf-8")
    assert load_script(path) == script


def test_parse_script_rejects():
    with pytest.raises(ValueError):
        parse_script("mode: is\nname: x\n")
    with pytest.raises(ValueError, match="reserved"):
        parse_script(
            "mode: is\nname: x\npremises:\n  A1: xx = x\ngoal: x = x\nstart: x\n"
        )
    with pytest.raises(ValueError, match="bad step"):
        parse_script(
            "mode: is\nname: x\npremises:\ngoal: x = x\nstart: x\nstep huh\n"
        )
    with pytest.raises(ValueError, match="bad position"):
        parse_script(
            "mode: iz\nname: x\npremises:\ngoal: 0 = 0\nstart: 0\n"
            "step A2 L2R at Q sub {} -> 0\n"
        )


def test_parse_script_names_the_line():
    head = "mode: is\nname: x\n# a comment\n\ngoal: x = x\nstart: x\n"
    with pytest.raises(ValueError, match=r"bad step line 'step huh' \(line 7\)$"):
        parse_script(head + "step huh\n")
    with pytest.raises(ValueError, match=r"empty word \(offset 3\) \(line 5\)$"):
        parse_script(head.replace("goal: x = x", "goal: x ="))
    # premises that run to the end of the text: no goal line follows
    with pytest.raises(ValueError, match=r"expected 'goal:', got the end .* \(line 6\)$"):
        parse_script("mode: is\nname: x\npremises:\n  a: x = x\n  b: y = y\n\n")


@pytest.mark.parametrize(
    "bindings, error",
    [
        ("x=x, y=y, z=z, 1=O", "invalid variable name '1'"),
        ("O=x, x=x, y=y, z=z", "invalid variable name 'O'"),
        ("xy=x, z=z", "invalid variable name 'xy'"),
        ("x=x, x=y, y=y, z=z", "letter 'x' bound twice in 'step A1 L2R at 1..3 sub {x=x, x=y"),
    ],
    ids=["digit", "constant", "two-letters", "twice"],
)
def test_parse_script_rejects_a_bad_binding(bindings, error):
    # each binding binds one letter a-z, once; line 7 is omega-tail's first step
    text = render_script(shipped_scripts()[2])
    bad = text.replace("sub {x=x, y=y, z=z}", f"sub {{{bindings}}}", 1)
    assert bad != text and parse_script(text)
    with pytest.raises(ValueError, match=re.escape(error) + r".* \(line 7\)$"):
        parse_script(bad)


def test_parse_script_rejects_a_position_of_the_wrong_kind():
    for head, step in WRONG_KIND_STEPS.items():
        with pytest.raises(ValueError, match=re.escape(repr(step))):
            parse_script(head + step + "\n")
    # the right kind still parses
    assert parse_script(
        "mode: is\nname: x\ngoal: xOOO = xO\nstart: xOOO\n"
        "step A2 L2R at 2..4 sub {} -> xO\n"
    ).steps[0].position == (2, 4)


def test_duplicate_labels_rejected():
    rule = Rule("r", parse_identity("xx = x"), Kind.PREMISE)
    script = Script(Mode.IS, "dup", (rule, rule), parse_identity("x = x"), Word("x"), ())
    result = replay(script)
    assert not result.passed and "duplicate" in result.message


def test_axiom_inventory():
    assert AXIOM_LABELS == ("A1", "A2")
    assert [str(r.identity) for r in _axioms(Mode.IS)] == ["xyz = zOxyzOO", "OOO = O"]
    assert [str(r.identity) for r in _axioms(Mode.IZ)] == [
        "((x>y)>z) = ((z'>x)>(y>z)')'",
        "0'' = 0",
    ]
    assert len(SHIPPED_ORDER) == 12


def test_replay_parses_the_axioms_once_per_mode(monkeypatch):
    scripts = shipped_scripts()
    assert {script.mode for script in scripts} == set(Mode)
    parsed = []
    parse = derivations.parse_identity

    def counting_parse(text, mode=Mode.IS):
        parsed.append(text)
        return parse(text, mode)

    monkeypatch.setattr(derivations, "parse_identity", counting_parse)
    derivations._axioms.cache_clear()
    for _ in range(3):
        for script in scripts:
            assert replay(script)
    assert sorted(parsed) == sorted(AXIOM_TEXTS[Mode.IS] + AXIOM_TEXTS[Mode.IZ])
