import copy
import itertools
import math
import pickle
import string

import pytest
from hypothesis import example, given, settings, strategies as st

from varietylab.models import builtin, check_axioms, evaluate, satisfies
from varietylab.terms import (
    MAX_TERM_DEPTH,
    OMEGA,
    Arrow,
    Identity,
    Mode,
    ParseError,
    Var,
    Word,
    ZERO,
    contains_square,
    content,
    length,
    los,
    normalize_is,
    parse_identity,
    parse_term,
    parse_word,
    substitute,
    substitute_term,
    term_letters,
)

ALPHABET = "xyzO"

words = st.text(alphabet=ALPHABET, min_size=1, max_size=8).map(Word)


def all_words(max_len, alphabet=ALPHABET):
    for k in range(1, max_len + 1):
        for combo in itertools.product(alphabet, repeat=k):
            yield Word("".join(combo))


def test_parse_word_basic():
    assert parse_word("xyz") == Word("xyz")
    assert parse_word("zOxyzOO") == Word("zOxyzOO")
    assert parse_word(" x y\tz ") == Word("xyz")


def test_parse_word_rejects():
    with pytest.raises(ParseError) as exc:
        parse_word("")
    assert exc.value.offset == 0
    with pytest.raises(ParseError) as exc:
        parse_word("xy#z")
    assert exc.value.offset == 2
    with pytest.raises(ParseError):
        parse_word("   ")


def test_word_constructor_rejects_bad_symbols():
    with pytest.raises(ValueError):
        Word("")
    with pytest.raises(ValueError):
        Word("xA")


def test_word_equality_and_hash_are_those_of_its_symbols():
    first, second = "".join(["xy", "O"]), "".join(["x", "yO"])
    assert first is not second
    u, w = Word(first), Word(second)
    assert isinstance(u, str)
    assert u == w and not u != w and u != Word("yxO")
    # equal to and hashed as its text, whichever side the comparison starts from
    assert u == first and first == u and not u != first and not first != u
    assert hash(u) == hash(w) == hash(first)
    assert {u: 1}[first] == 1 and {first: 1}[u] == 1
    assert "xyO" in {u} and u in {"xyO"}
    assert len(u) == 3 and list(u) == ["x", "y", "O"] and type(str(u)) is str
    # + makes a checked Word; a slice is plain text
    assert type(u + "x") is Word and u + Word("x") == "xyOx"
    with pytest.raises(ValueError, match="^invalid word symbol 'A'$"):
        Word("x") + "A"
    assert type(u[:2]) is str and u[:2] == "xy"
    assert repr(Word("xyO")) == "Word('xyO')"


def test_plain_text_is_not_taken_for_a_word():
    with pytest.raises(ValueError, match="^both sides must be Word in mode is$"):
        Identity("x", "y", Mode.IS)
    with pytest.raises(ValueError, match="^both sides must be Word in mode is$"):
        Identity(Word("x"), "y", Mode.IS)
    with pytest.raises(TypeError, match="^cannot evaluate 'x'$"):
        evaluate(builtin("B"), "x", {"x": 0})


def test_a_word_takes_no_attributes_and_survives_pickle_and_deepcopy():
    u = Word("xyO")
    for name in ("symbols", "text"):
        with pytest.raises(AttributeError):
            setattr(u, name, "z")
    for copied in (pickle.loads(pickle.dumps(u)), copy.deepcopy(u), copy.copy(u)):
        assert type(copied) is Word and copied == u


@pytest.mark.parametrize("measure", [content, los])
def test_an_equal_distinct_word_hits_the_measure_cache(measure):
    u = Word("".join(["qr", "sqO"]))
    value = measure(u)
    hits = measure.cache_info().hits
    w = Word("".join(["q", "rsqO"]))
    assert w is not u
    assert measure(w) is value
    assert measure.cache_info().hits == hits + 1


@pytest.mark.parametrize("text, bad", [("xÄy", "Ä"), ("x y", " "), ("xA\tB", "A")])
def test_word_constructor_names_the_first_bad_symbol(text, bad):
    with pytest.raises(ValueError, match=f"^invalid word symbol {bad!r}$"):
        Word(text)


def reference_parse_word(text):
    """Character by character: skip whitespace, keep a-z and O, reject
    anything else at its offset."""
    out = []
    for i, ch in enumerate(text):
        if ch.isspace():
            continue
        if ch == "O" or ch in string.ascii_lowercase:
            out.append(ch)
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    if not out:
        raise ParseError("empty word", len(text))
    return Word("".join(out))


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.offset


# letters, O, the characters of the other syntaxes, a non-ASCII letter, and
# whitespace, Unicode spaces among it
_WORD_TEXT_ALPHABET = (
    string.ascii_lowercase + "O" + string.digits + "=#()>Ä"
    + string.whitespace + "\x1c\u2003\u3000"
)


@settings(max_examples=500)
@given(st.text(alphabet=_WORD_TEXT_ALPHABET, max_size=12))
def test_parse_word_matches_per_character_reference(text):
    assert _parse_outcome(parse_word, text) == _parse_outcome(reference_parse_word, text)


def test_content():
    assert content(Word("xyx")) == {"x", "y"}
    assert content(Word("OO")) == frozenset()
    assert content(Word("zOxyzOO")) == {"x", "y", "z"}


def test_los():
    assert los(Word("xyx")) == Word("yx")
    assert los(Word("zOxyzOO")) == Word("xyz")
    assert los(Word("OO")) is None
    assert los(Word("x")) == Word("x")


def test_los_invariants_exhaustive():
    for w in all_words(5):
        lw = los(w)
        if lw is None:
            assert content(w) == frozenset()
        else:
            assert "O" not in lw
            assert len(set(lw)) == len(lw)
            assert content(lw) == content(w)


def reference_content(w):
    """Symbol by symbol: every symbol but O."""
    return frozenset(ch for ch in w if ch != OMEGA)


def reference_los(w):
    """Each letter at the offset of its last occurrence, in offset order."""
    last = {}
    for i, ch in enumerate(w):
        if ch != OMEGA:
            last[ch] = i
    if not last:
        return None
    return Word("".join(ch for _, ch in sorted((i, ch) for ch, i in last.items())))


def test_word_measures_match_per_character_references():
    checked = 0
    for w in all_words(6):
        assert content(w) == reference_content(w)
        got = los(w)
        assert got == reference_los(w) and (got is None or type(got) is Word)
        checked += 1
    assert checked == 5460


def test_length():
    assert length(Word("xy")) == 2
    assert length(Word("xO")) == math.inf
    assert length(Word("xyz")) == 3
    assert length(Word("O")) == math.inf
    assert math.inf >= 3  # the infinite length passes every finite threshold


def test_contains_square():
    assert contains_square(Word("xyxy"))
    assert not contains_square(Word("xyz"))
    assert contains_square(Word("axxb"))
    assert contains_square(Word("xOxO"))
    assert not contains_square(Word("xO"))
    assert not contains_square(Word("x"))


def test_substitute():
    s = {"x": Word("ab"), "y": Word("O")}
    assert substitute(Word("xyO"), s) == Word("abOO")
    assert substitute(Word("xx"), {"x": Word("O")}) == Word("OO")
    assert substitute(Word("xyz"), {}) == Word("xyz")


def reference_substitute(w, mapping):
    """Symbol by symbol: O is fixed, so is a letter the mapping leaves out."""
    out = ""
    for ch in w:
        out += ch if ch == "O" or ch not in mapping else mapping[ch]
    return Word(out)


@given(
    st.lists(st.text(alphabet="xyzwO", min_size=1, max_size=10).map(Word), min_size=1, max_size=3),
    st.dictionaries(st.sampled_from("xyzO"), words, max_size=4),
)
def test_substitute_matches_per_symbol_reference(family, mapping):
    # mappings may name O, which stays fixed, and leave out letters, w among them
    for w in family:
        assert substitute(w, mapping) == reference_substitute(w, mapping)


@given(words, words, st.dictionaries(st.sampled_from("xyz"), words, max_size=3))
def test_substitute_distributes_over_concat(u, v, s):
    assert substitute(u + v, s) == substitute(u, s) + substitute(v, s)


def test_normalize_is():
    assert normalize_is(Word("xyx")) == Word("yxO")
    assert normalize_is(Word("xy")) == Word("xy")
    assert normalize_is(Word("OO")) == Word("O")
    assert normalize_is(Word("O")) == Word("O")
    assert normalize_is(Word("xO")) == Word("xO")
    assert normalize_is(Word("xxyz")) == Word("xyzO")


def test_normalize_is_idempotent_exhaustive():
    for w in all_words(6):
        assert normalize_is(normalize_is(w)) == normalize_is(w)


@given(words)
def test_word_round_trip(w):
    assert parse_word(str(w)) == w


def test_parse_term_basic():
    assert parse_term("0'") == Arrow(ZERO, ZERO)
    assert parse_term("((x>y)>z)") == Arrow(Arrow(Var("x"), Var("y")), Var("z"))
    assert parse_term("x''") == Arrow(Arrow(Var("x"), ZERO), ZERO)
    assert parse_term(" ( x > 0 ) ' ") == Arrow(Arrow(Var("x"), ZERO), ZERO)


def test_parse_term_rejects():
    with pytest.raises(ParseError) as exc:
        parse_term("(x>y")
    assert exc.value.offset == 0
    with pytest.raises(ParseError):
        parse_term("")
    with pytest.raises(ParseError):
        parse_term("(x y)")
    with pytest.raises(ParseError):
        parse_term("(x>y))")
    with pytest.raises(ParseError):
        parse_term("1")


terms_strategy = st.recursive(
    st.sampled_from([ZERO, Var("x"), Var("y"), Var("z")]),
    lambda sub: st.tuples(sub, sub).map(lambda lr: Arrow(*lr)),
    max_leaves=12,
)


@given(terms_strategy)
def test_term_round_trip(t):
    assert parse_term(str(t)) == t


def reference_parse_term(text):
    """The recursive descent parser that the one-loop parse_term replaced:
    one frame per open parenthesis, a closure per whitespace skip."""
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    def too_deep():
        return ParseError(f"term nested deeper than {MAX_TERM_DEPTH}", pos)

    def parse_inner(depth):
        # depth counts the arrows opened by enclosing parentheses; returns
        # the term and its height, and depth + height never exceeds the bound
        nonlocal pos
        skip_ws()
        if pos >= n:
            raise ParseError("unexpected end of input", pos)
        ch = text[pos]
        height = 0
        if ch == "0":
            pos += 1
            node = ZERO
        elif ch in string.ascii_lowercase:
            pos += 1
            node = Var(ch)
        elif ch == "(":
            if depth >= MAX_TERM_DEPTH:
                raise too_deep()
            open_at = pos
            pos += 1
            left, left_height = parse_inner(depth + 1)
            skip_ws()
            if pos >= n or text[pos] != ">":
                raise ParseError("expected '>'", pos)
            pos += 1
            right, right_height = parse_inner(depth + 1)
            skip_ws()
            if pos >= n or text[pos] != ")":
                raise ParseError("unbalanced '('", open_at)
            pos += 1
            node = Arrow(left, right)
            height = 1 + max(left_height, right_height)
        else:
            raise ParseError(f"unexpected character {ch!r}", pos)
        while True:
            skip_ws()
            if pos < n and text[pos] == "'":
                if depth + height >= MAX_TERM_DEPTH:
                    raise too_deep()
                pos += 1
                node = Arrow(node, ZERO)
                height += 1
            else:
                break
        return node, height

    node, _ = parse_inner(0)
    skip_ws()
    if pos != n:
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    return node


def _term_outcome(text):
    """parse_term's outcome and the reference's: the term, or (message, offset)."""
    outcomes = []
    for parse in (parse_term, reference_parse_term):
        try:
            outcomes.append(parse(text))
        except ParseError as exc:
            outcomes.append((exc.message, exc.offset))
    return outcomes


# the term syntax, whitespace (Unicode spaces among it) and junk: the word
# syntax's O, a digit, '=', '#' and a non-ASCII letter
_TERM_TEXT_ALPHABET = "()>'0xyz" + " \t\n\x1c\u2003\u3000" + "O1=#Ä"


@st.composite
def near_bound_texts(draw):
    """Texts nested 62 to 65 deep, along the left or the right spine, with
    primes on the innermost side and after closing parentheses, and at most
    one character inserted or deleted."""
    depth = draw(st.integers(MAX_TERM_DEPTH - 2, MAX_TERM_DEPTH + 1))
    inner = draw(st.sampled_from(["x", "0", "(x>y)", "(0>z)'"])) + "'" * draw(st.integers(0, 3))
    primes = draw(st.lists(st.sampled_from(["", "", "", "'", " '"]), min_size=depth, max_size=depth))
    if draw(st.booleans()):
        text = "(" * depth + inner + "".join(f">y){p}" for p in primes)
    else:
        text = "".join("(x>" for _ in primes) + inner + "".join(f"){p}" for p in primes)
    edit = draw(st.sampled_from(["keep", "insert", "delete"]))
    if edit != "keep":
        at = draw(st.integers(0, len(text) - 1))
        middle = draw(st.sampled_from(_TERM_TEXT_ALPHABET)) if edit == "insert" else ""
        text = text[:at] + middle + text[at + (edit == "delete"):]
    return text


@st.composite
def spaced_terms(draw):
    """Rendered terms with whitespace, Unicode spaces among it, inserted
    anywhere, between the characters of a prime run too."""
    text = str(draw(terms_strategy))
    for at, space in draw(st.lists(st.tuples(st.integers(0, len(text)), st.sampled_from(" \t\u3000")), max_size=4)):
        text = text[:at] + space + text[at:]
    return text


@settings(max_examples=600)
@given(st.one_of(st.text(alphabet=_TERM_TEXT_ALPHABET, max_size=24), spaced_terms(), near_bound_texts()))
@example("(x y)")
@example("(x")
@example("((x>y)>z")
@example("x'' '")
def test_parse_term_matches_the_recursive_reference(text):
    got, want = _term_outcome(text)
    assert got == want


def test_parse_term_error_messages_and_offsets():
    for text, message, offset in (
        ("", "unexpected end of input", 0),
        ("(x>", "unexpected end of input", 3),
        ("(x y)", "expected '>'", 3),
        ("( x ' ", "expected '>'", 6),
        ("((x>y) z)", "expected '>'", 7),
        (" (x>y", "unbalanced '('", 1),
        ("((x>y)>z>", "unbalanced '('", 0),
        ("(x>y))", "unexpected character ')'", 5),
        ("x y", "unexpected character 'y'", 2),
        ("1", "unexpected character '1'", 0),
        ("(x>O)", "unexpected character 'O'", 3),
    ):
        with pytest.raises(ParseError) as exc:
            parse_term(text)
        assert (exc.value.message, exc.value.offset) == (message, offset), text


def test_a_parsed_term_shares_one_var_per_letter():
    t = parse_term("(x>x)")
    assert t == Arrow(Var("x"), Var("x"))
    assert t.left is t.right
    # equal by value to a leaf built elsewhere, never compared by identity
    assert parse_term("((y>x)>x')").right.left is t.left == Var("x")


def test_term_nodes_are_slotted_and_survive_pickle_and_deepcopy():
    t = parse_term("((x>y)>(z'>x)')'")
    for node in (t, t.left.left.left, ZERO):  # an Arrow, a Var and the Zero
        assert not hasattr(node, "__dict__")
    for copied in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
        assert copied == t and hash(copied) == hash(t) and str(copied) == str(t)
    shared = parse_term("(x>x)")
    assert type(shared.left) is Var and shared.left is shared.right


def test_render_term_uses_prime_sugar():
    assert str(Arrow(Var("x"), ZERO)) == "x'"
    assert str(Arrow(Arrow(Var("x"), Var("y")), ZERO)) == "(x>y)'"
    assert str(Arrow(ZERO, Arrow(ZERO, ZERO))) == "(0>0')"


def test_term_depth_limit():
    primed = "x" + "'" * MAX_TERM_DEPTH
    nested = "(" * MAX_TERM_DEPTH + "x" + ">y)" * MAX_TERM_DEPTH
    a = builtin("2s")
    for text in (primed, nested):
        t = parse_term(text)
        assert parse_term(str(t)) == t and hash(t) == hash(parse_term(text))
        assert term_letters(t) <= {"x", "y"}
        for x in range(2):
            assert evaluate(a, t, {"x": x, "y": 1}) in (0, 1)
        assert satisfies(a, Identity(t, t, Mode.IZ))
    # a prime and a parenthesis count alike
    assert parse_term("(" * (MAX_TERM_DEPTH - 1) + "x'" + ">y)" * (MAX_TERM_DEPTH - 1))
    with pytest.raises(ParseError) as exc:
        parse_term(primed + "'")
    assert exc.value.offset == MAX_TERM_DEPTH + 1
    with pytest.raises(ParseError) as exc:
        parse_term("(" + nested + ">y)")
    assert exc.value.offset == MAX_TERM_DEPTH
    with pytest.raises(ParseError) as exc:
        parse_term("(" * (MAX_TERM_DEPTH - 1) + "x''" + ">y)" * (MAX_TERM_DEPTH - 1))
    assert exc.value.offset == MAX_TERM_DEPTH + 1  # the second prime
    with pytest.raises(ParseError) as exc:
        parse_identity(f"x = {primed}'", Mode.IZ)
    assert exc.value.offset == MAX_TERM_DEPTH + 5


def test_term_letters_and_substitution():
    t = parse_term("((x>y)>x')")
    assert term_letters(t) == {"x", "y"}
    s = substitute_term(t, {"x": ZERO})
    assert s == parse_term("((0>y)>0')")
    assert substitute_term(ZERO, {"x": Var("y")}) == ZERO


def test_parse_identity():
    ident = parse_identity("xyz = zOxyzOO")
    assert ident.lhs == Word("xyz") and ident.rhs == Word("zOxyzOO")
    assert ident.mode is Mode.IS
    iz = parse_identity("0'' = 0", Mode.IZ)
    assert iz.lhs == Arrow(Arrow(ZERO, ZERO), ZERO) and iz.rhs == ZERO


@pytest.mark.parametrize("text, mode", [("xy = yx", Mode.IS), ("(x>y) = y'", Mode.IZ)])
def test_a_mode_given_as_text_is_that_mode(text, mode):
    ident = parse_identity(text, mode.value)
    assert ident == parse_identity(text, mode) and ident.mode is mode
    built = Identity(ident.lhs, ident.rhs, mode.value)
    assert built == ident and built.mode is mode


def test_an_unknown_mode_is_refused_as_check_axioms_refuses_it():
    with pytest.raises(ValueError) as want:
        check_axioms(builtin("A"), "bogus")
    with pytest.raises(ValueError) as parsed:
        parse_identity("x = x", "bogus")
    with pytest.raises(ValueError) as built:
        Identity(Word("x"), Word("x"), "bogus")
    for exc in (parsed, built):
        assert type(exc.value) is ValueError and str(exc.value) == str(want.value)


def test_parse_identity_rejects():
    with pytest.raises(ParseError):
        parse_identity("xyz")
    with pytest.raises(ParseError):
        parse_identity("x = y = z")
    # a right side's error keeps its message and moves its offset to the full text
    for text, mode, message, offset in (
        ("x = ?", Mode.IS, "unexpected character '?'", 4),
        ("0 = (x>y", Mode.IZ, "unbalanced '('", 4),
    ):
        with pytest.raises(ParseError) as exc:
            parse_identity(text, mode)
        assert (exc.value.message, exc.value.offset) == (message, offset)
        assert str(exc.value) == f"{message} (offset {offset})"
    with pytest.raises(ValueError):
        Identity(Word("x"), parse_term("0"), Mode.IS)
