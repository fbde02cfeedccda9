"""Block saddle text format: round trips and parse failures."""

import re
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from gapcert import matio
from gapcert.bounds import BlockSaddle
from gapcert.errors import DimensionMismatch, NotPSD, ParseError

from helpers import block_text, count_factorizations, func_calc_AC, matrix_text


def _parse_B(matrix: str, m: int = 1, k: int = 1) -> np.ndarray:
    # the matrix text as the last section, B, of an m x k saddle with A = I and C = 0
    return matio.parse_block_saddle(f"A\n{matrix_text(np.eye(m))}C\nzero {k}\nB\n{matrix}").B


def test_matrix_round_trip():
    rng = np.random.default_rng(0)
    for shape in ((1, 1), (3, 2), (4, 4)):
        M = rng.standard_normal(shape)
        assert np.array_equal(_parse_B(matrix_text(M), *shape), M)


def test_matrix_comments_and_blanks():
    text = "# heading\n2 2\n\n1 2  # trailing note\n3 4\n"
    M = _parse_B(text, 2, 2)
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
    ],
)
def test_matrix_parse_errors(text):
    with pytest.raises(ParseError):
        _parse_B(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 2\n1 2\n3\n", "row 2 has 1 entries, expected 2"),
        ("2 2\n1 2\n3 4 5\n", "row 2 has 3 entries, expected 2"),
        ("2 2\n1 x\n3\n", "row 1 contains a non-numeric entry"),
        # as many tokens as the body needs, but not row by row; the second
        # puts a data inf where row 1's sentinel would land
        ("2 2\n1 2 3\n4\n", "row 1 has 3 entries, expected 2"),
        ("2 2\n1 2 inf\n4\n", "row 1 has 3 entries, expected 2"),
        ("2 2\n1\n2 3 4\n", "row 1 has 1 entries, expected 2"),
        ("2 2\n1 2 nan\n4\n", "row 1 has 3 entries, expected 2"),
    ],
)
def test_matrix_parse_error_names_first_bad_row(text, message):
    with pytest.raises(ParseError, match=f"^{message}$"):
        _parse_B(text)


@pytest.mark.skipif(not matio._X87, reason="the long-double route runs only on x87")
def test_well_formed_body_is_one_fromstring_call(monkeypatch):
    M = np.random.default_rng(3).standard_normal((6, 4))
    body = matrix_text(M).splitlines()[1:]
    calls = []
    fromstring = np.fromstring
    monkeypatch.setattr(np, "fromstring", lambda *a, **k: calls.append(1) or fromstring(*a, **k))
    assert np.array_equal(matio._parse_body(body, 4), M)
    assert len(calls) == 1


@pytest.mark.parametrize("token", ["1_000", "\u0661\u0662", "0x10", "0X1P3", "nan(1)"])
def test_matrix_rejects_tokens_numpy_does_not_read(token):
    # float() reads underscores and non-ASCII digits; numpy's parser does not.
    # strtold reads hex and nan(...); float() does not
    with pytest.raises(ParseError, match="^row 1 contains a non-numeric entry$"):
        _parse_B(f"1 2\n1 {token}\n")


@pytest.mark.parametrize("row", ["1 2e", "1 2x", "1.5.5 2", "1 nan(", "1e 2"])
def test_malformed_row_lets_no_warning_escape(row):
    # numpy 1.x warns and returns the numbers it read where numpy 2 raises
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ParseError, match="^row 1 contains a non-numeric entry$"):
            _parse_B(f"2 2\n{row}\n3 4\n", 2, 2)
    assert not [w for w in seen if issubclass(w.category, (DeprecationWarning, RuntimeWarning))]


@pytest.mark.skipif(not matio._X87, reason="the long-double route runs only on x87")
def test_row_read_short_under_numpy1_is_diagnosed(monkeypatch):
    # numpy 1.x returns the numbers read before the unmatched data, here as
    # many as the row needs, with a DeprecationWarning that is ignored by default
    def fromstring_1x(string, dtype, sep):
        warnings.warn("string or file could not be read to its end due to unmatched data; "
                      "this will raise a ValueError in the future.", DeprecationWarning)
        return np.zeros(len(string.split()), dtype)

    monkeypatch.setattr(np, "fromstring", fromstring_1x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        with pytest.raises(ParseError, match="^row 1 contains a non-numeric entry$"):
            _parse_B("2 2\n1 2e\n3 4\n", 2, 2)
        assert np.array_equal(_parse_B("2 2\n1 2\n3 4\n", 2, 2), [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.skipif(not matio._X87, reason="the long-double route runs only on x87")
def test_short_read_left_a_warning_misplaces_a_sentinel(monkeypatch):
    # numpy 1.x returns the numbers read before unmatched data; where its
    # warning is not made an error, row 2's fourth token stops the read
    # with exactly rows x (cols + 1) numbers, and only the sentinel column
    # tells the read was short
    def fromstring_1x(string, dtype, sep):
        values = []
        for token in string.split():
            try:
                values.append(float(token))
            except ValueError:
                warnings.warn("string or file could not be read to its end due to unmatched data; "
                              "this will raise a ValueError in the future.", DeprecationWarning)
                break
        return np.array(values, dtype)

    monkeypatch.setattr(np, "fromstring", fromstring_1x)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        with pytest.raises(ParseError, match="^row 2 has 4 entries, expected 2$"):
            matio._parse_body(["1 2", "4 5 6 ?"], 2)


def _exactness_tokens() -> list[str]:
    """Tokens whose conversion a double rounding through long double could get wrong."""
    rng = np.random.default_rng(23)
    values = rng.integers(0, 2**64, size=300, dtype=np.uint64).view(np.float64)
    subnormals = rng.integers(1, 2**52, size=40, dtype=np.uint64).view(np.float64)
    tokens = []
    for v in np.concatenate([values, subnormals]):
        tokens += ["%.17g" % v] + ["%.*g" % (digits, v) for digits in range(1, 26)]
    # the exact decimal midpoint between two adjacent doubles, and 1e-45 (relative) either side
    edges = [2.0**e for e in (-1022, -1021, -1, 0, 1, 52, 53, 1023)]
    lows = [*values[np.isfinite(values)][:120], *subnormals[:20], *edges, *np.nextafter(edges, 0), 0.0]
    with localcontext() as exact:
        exact.prec = 2000
        for lo in lows:
            hi = np.nextafter(lo, np.inf)
            mid = (Decimal(float(lo)) + Decimal(float(hi))) / 2
            tokens += [str(mid), str(mid * (1 + Decimal("1e-45"))), str(mid * (1 - Decimal("1e-45")))]
        top = (Decimal(np.finfo(float).max) + Decimal(2) ** 1024) / 2  # where rounding overflows
        tokens += [str(top), str(top * (1 - Decimal("1e-45")))]
    tokens += ["2.4703282292062327e-324", "2.4703282292062328e-324", "4.9406564584124654e-324"]
    tokens += ["2.2250738585072009e-308", "2.2250738585072014e-308", "-2.2250738585072011e-308"]
    tokens += ["1.7976931348623158e308", "1.7976931348623159e308", "1e-5000", "-1e400"]
    tokens += ["-0", "+0.0", "0e0"]
    return tokens


def _assert_body_converts_as_float_does(tokens: list[str], cols: int) -> list[str]:
    """Parses the tokens as a body of cols columns, rows split by alternating separators; returns the body."""
    tokens = tokens + ["0"] * (-len(tokens) % cols)
    seps = (" ", "\t  ")
    body = [seps[i % 2].join(tokens[j : j + cols]) for i, j in enumerate(range(0, len(tokens), cols))]
    got = matio._parse_body(body, cols)
    want = np.array([float(t) for t in tokens]).reshape(-1, cols)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    return body


@pytest.mark.parametrize("x87", [matio._X87, False], ids=["native", "loadtxt"])
def test_body_converts_as_float_does(monkeypatch, x87):
    monkeypatch.setattr(matio, "_X87", x87)
    body = _assert_body_converts_as_float_does(_exactness_tokens(), 7)
    if x87:
        # the one-call read is kept: only rows holding a midpoint or a value
        # outside the normal doubles are re-read
        _, redo = matio._read_long_double(body, 7)
        assert 0 < len(redo) < len(body)


@pytest.mark.parametrize("x87", [matio._X87, False], ids=["native", "loadtxt"])
def test_non_finite_body_converts_as_float_does(monkeypatch, x87):
    # an inf or a NaN among the data sends the long-double read to the row-by-row one
    monkeypatch.setattr(matio, "_X87", x87)
    tokens = ["inf", "Infinity", "-INF", "nan", "-nan", "1e5000", "0.1", "-1e400", "2.5e-324"]
    _assert_body_converts_as_float_does(tokens, 3)


def test_block_saddle_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    G = rng.standard_normal((3, 3))
    A = G @ G.T
    B = rng.standard_normal((3, 2))
    C = np.eye(2)
    S0 = matio.parse_block_saddle(block_text(A, B, C))
    text = block_text(S0.A, S0.B, S0.C)
    S = matio.parse_block_saddle(text)
    assert np.allclose(S.A, A) and np.allclose(S.B, B) and np.allclose(S.C, C)
    path = tmp_path / "h.txt"
    path.write_text(block_text(S.A, S.B, S.C), encoding="utf-8")
    S2 = matio.read_block_saddle(path)
    assert np.array_equal(S2.A, S.A) and np.array_equal(S2.C, S.C)


def test_zero_c_section():
    text = "A\n1 1\n2\nB\n1 3\n1 0 0\nC\nzero 3\n"
    S = matio.parse_block_saddle(text)
    assert S.C.shape == (3, 3) and not S.C.any()


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
        _parse_B(text)


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
    assert np.array_equal(_parse_B(matrix_text(M), 2, 2), M)


def _count_body_parses(monkeypatch) -> list:
    calls = []
    parse_body = matio._parse_body
    monkeypatch.setattr(matio, "_parse_body", lambda *a, **k: calls.append(1) or parse_body(*a, **k))
    return calls


KIRSCH_A = np.array([[2.0, -1.0 / 3.0], [-1.0 / 3.0, 1.0]])


def test_repeated_section_parsed_once(monkeypatch):
    A, B = matrix_text(KIRSCH_A), matrix_text(np.diag([1.0, 3.0]))
    results = []
    for text in (f"A\n{A}B\n{B}C\n{A}", f"C\n{A}B\n{B}A\n{A}"):
        calls = _count_body_parses(monkeypatch)
        S = matio.parse_block_saddle(text)
        assert len(calls) == 2
        assert S.C_equals_A and S.C.tobytes() == S.A.tobytes() == KIRSCH_A.tobytes()
        assert not np.shares_memory(S.C, S.A)
        results.append(S)
    # either order gives the same saddle
    assert all(np.array_equal(getattr(results[0], n), getattr(results[1], n)) for n in "ABC")


def test_section_repeat_ignores_comment_lines(monkeypatch):
    A, B = matrix_text(KIRSCH_A), matrix_text(np.eye(2))
    header, row1, row2 = A.splitlines()
    C = f"{header}\n{row1}  # first row\n# an interleaved note\n{row2}\n"
    calls = _count_body_parses(monkeypatch)
    S = matio.parse_block_saddle(f"A\n{A}B\n{B}C\n{C}")
    assert len(calls) == 2 and S.C_equals_A and not np.shares_memory(S.C, S.A)


def test_section_differing_in_last_token_parsed_in_full(monkeypatch):
    A, B = matrix_text(KIRSCH_A), matrix_text(np.eye(2))
    C = A[: A.rindex(" ")] + " 1.0000000000000002\n"
    calls = _count_body_parses(monkeypatch)
    S = matio.parse_block_saddle(f"A\n{A}B\n{B}C\n{C}")
    assert len(calls) == 3 and not S.C_equals_A
    assert S.C[1, 1] == np.nextafter(1.0, 2.0) and np.array_equal(S.C[0], S.A[0])


@pytest.mark.parametrize("k", [2500, 10_000_000])
def test_zero_block_checked_against_B_before_it_is_built(monkeypatch, k):
    counts = count_factorizations(monkeypatch)
    zeros = []
    np_zeros = np.zeros
    monkeypatch.setattr(np, "zeros", lambda *a, **kw: zeros.append(a) or np_zeros(*a, **kw))
    text = f"A\n2 2\n1 0\n0 1\nB\n2 1\n1\n0\nC\nzero {k}\n"
    with pytest.raises(DimensionMismatch, match=f"^B must be 2x{k}, got 2x1$"):
        matio.parse_block_saddle(text)
    assert zeros == [] and sum(counts.values()) == 0, counts


def test_block_shapes_checked_before_any_factorization(monkeypatch):
    counts = count_factorizations(monkeypatch)
    with pytest.raises(DimensionMismatch, match="^B must be 2x300, got 2x1$"):
        BlockSaddle(np.eye(2), np.ones((2, 1)), np.eye(300))
    with pytest.raises(DimensionMismatch, match="^B must be 300x2, got 2x2$"):
        BlockSaddle(np.eye(300), np.ones((2, 2)), np.eye(2))
    message = "A and C must share a shape, got (300, 300) and (3, 3)"
    with pytest.raises(DimensionMismatch, match=f"^{re.escape(message)}$"):
        func_calc_AC(np.eye(300), np.eye(3), 1.0, lambda x: 1.0)
    assert sum(counts.values()) == 0, counts
