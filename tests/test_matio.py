"""Matrix and block saddle text formats: round trips and parse failures."""

import re

import numpy as np
import pytest

from gapcert import matio
from gapcert.errors import NotPSD, ParseError


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    for shape in ((1, 1), (3, 2), (4, 4)):
        M = rng.standard_normal(shape)
        back = matio.parse_matrix(matio.format_matrix(M))
        assert np.array_equal(back, M)


def test_matrix_comments_and_blanks():
    text = "# heading\n2 2\n\n1 2  # trailing note\n3 4\n"
    M = matio.parse_matrix(text)
    assert np.array_equal(M, [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\n1 2\n",
        "2 2\n1 2\n3\n",
        "2 2\n1 2\n",
        "1 1\nx\n",
        "0 2\n",
        "1 1\n1\nextra\n",
    ],
)
def test_matrix_parse_errors(text):
    with pytest.raises(ParseError):
        matio.parse_matrix(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 2\n1 2\n3\n", "row 2 has 1 entries, expected 2"),
        ("2 2\n1 2\n3 4 5\n", "row 2 has 3 entries, expected 2"),
        ("2 2\n1 x\n3\n", "row 1 contains a non-numeric entry"),
    ],
)
def test_matrix_parse_error_names_first_bad_row(text, message):
    with pytest.raises(ParseError, match=f"^{message}$"):
        matio.parse_matrix(text)


@pytest.mark.parametrize("token", ["1_000", "\u0661\u0662"])
def test_matrix_rejects_tokens_numpy_does_not_read(token):
    # float() reads underscores and non-ASCII digits; numpy's parser does not
    with pytest.raises(ParseError, match="^row 1 contains a non-numeric entry$"):
        matio.parse_matrix(f"1 2\n1 {token}\n")


def test_block_saddle_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    G = rng.standard_normal((3, 3))
    A = G @ G.T
    B = rng.standard_normal((3, 2))
    C = np.eye(2)
    text = matio.format_block_saddle(matio.parse_block_saddle(_saddle_text(A, B, C)))
    S = matio.parse_block_saddle(text)
    assert np.allclose(S.A, A) and np.allclose(S.B, B) and np.allclose(S.C, C)
    path = tmp_path / "h.txt"
    path.write_text(matio.format_block_saddle(S), encoding="utf-8")
    S2 = matio.read_block_saddle(path)
    assert np.array_equal(S2.A, S.A) and np.array_equal(S2.C, S.C)


def _saddle_text(A, B, C) -> str:
    parts = []
    for name, M in (("A", A), ("B", B), ("C", C)):
        parts.append(name + "\n" + matio.format_matrix(M))
    return "\n".join(parts)


def test_zero_c_section():
    text = "A\n1 1\n2\nB\n1 3\n1 0 0\nC\nzero 3\n"
    S = matio.parse_block_saddle(text)
    assert S.C.shape == (3, 3) and not S.C.any()
    assert "zero 3" in matio.format_block_saddle(S)


def test_section_order_free():
    text = "C\nzero 1\nB\n1 1\n1\nA\n1 1\n1\n"
    S = matio.parse_block_saddle(text)
    assert S.A[0, 0] == 1.0


@pytest.mark.parametrize(
    "text",
    [
        "A\n1 1\n1\nB\n1 1\n1\n",  # missing C
        "A\n1 1\n1\nA\n1 1\n1\nB\n1 1\n1\nC\nzero 1\n",  # duplicate
        "A\n1 1\n1\nB\n1 1\n1\nC\nzero 0\n",  # empty zero block
        "D\n1 1\n1\n",  # unknown section
    ],
)
def test_block_saddle_parse_errors(text):
    with pytest.raises(ParseError):
        matio.parse_block_saddle(text)


def test_block_validation_is_not_a_parse_error():
    # a well-formed file with an indefinite A fails the PSD hypothesis
    text = "A\n1 1\n-1\nB\n1 1\n1\nC\nzero 1\n"
    with pytest.raises(NotPSD):
        matio.parse_block_saddle(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("a b\n1\n", "matrix header must be two integers, got 'a b'"),
        ("1 1\nnan\n", "matrix contains non-finite entries"),
        ("1 1\ninf\n", "matrix contains non-finite entries"),
        ("1 1\n1e999\n", "matrix contains non-finite entries"),
    ],
)
def test_matrix_header_and_entry_errors(text, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        matio.parse_matrix(text)


@pytest.mark.parametrize(
    "line, message",
    [
        ("zero", "zero block must be 'zero k', got 'zero'"),
        ("zero 1 2", "zero block must be 'zero k', got 'zero 1 2'"),
        ("zero x", "zero block size must be an integer, got 'x'"),
    ],
)
def test_zero_c_section_errors(line, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        matio.parse_block_saddle(f"A\n1 1\n1\nB\n1 1\n1\nC\n{line}\n")


def test_seventeen_digit_round_trip():
    M = np.array([[1.0 / 3.0, np.pi], [np.e, 2.0 ** -52]])
    assert np.array_equal(matio.parse_matrix(matio.format_matrix(M)), M)
