"""The documented-example battery, one pytest case per example."""

import pytest

from varietylab import verify

_EXAMPLES = verify.example_checks()


@pytest.mark.parametrize("result", _EXAMPLES, ids=[r.name for r in _EXAMPLES])
def test_example(result):
    assert result.passed, result.name


def test_a_rejection_example_fails_on_an_unexpected_error(monkeypatch):
    # a bug that raises TypeError is no parse rejection: it must not pass
    parse_term = verify.parse_term

    def broken(text):
        if text == "(x>y":
            raise TypeError("not a parse error")
        return parse_term(text)

    monkeypatch.setattr(verify, "parse_term", broken)
    with pytest.raises(TypeError, match="^not a parse error$"):
        verify.example_checks()
