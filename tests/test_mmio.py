import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cnormal, rng
from qritz import mmio
from qritz.errors import IoFailure, ParseError, UnsupportedField
from qritz.mmio import read_matrix_market, write_matrix_market


def test_complex_array_exact(tmp_path):
    path = tmp_path / "a.mtx"
    path.write_text(
        "%%MatrixMarket matrix array complex general\n"
        "2 2\n"
        "1.0 2.0\n"
        "3.0 -4.0\n"
        "0.5 0.0\n"
        "-1.5 1.0\n"
    )
    got = read_matrix_market(path)
    want = np.array([[1 + 2j, 0.5], [3 - 4j, -1.5 + 1j]])
    assert np.array_equal(got, want)


def test_real_array_with_comments(tmp_path):
    path = tmp_path / "r.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n"
        "% generated by hand\n"
        "\n"
        "2 1\n"
        "1.5\n"
        "% midway comment\n"
        "2.5\n"
    )
    assert np.array_equal(read_matrix_market(path), np.array([[1.5], [2.5]]))


def test_integer_coordinate(tmp_path):
    path = tmp_path / "i.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate integer general\n"
        "2 3 2\n"
        "1 3 7\n"
        "2 1 -2\n"
    )
    got = read_matrix_market(path)
    assert got[0, 2] == 7 and got[1, 0] == -2
    assert got[0, 0] == 0


def test_hermitian_coordinate_expansion(tmp_path):
    path = tmp_path / "h.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate complex hermitian\n"
        "2 2 2\n"
        "1 1 2.0 0.0\n"
        "2 1 1.0 -3.0\n"
    )
    got = read_matrix_market(path)
    want = np.array([[2.0 + 0j, 1.0 + 3.0j], [1.0 - 3.0j, 0.0 + 0j]])
    assert np.array_equal(got, want)


def test_symmetric_array_lower_triangle(tmp_path):
    path = tmp_path / "s.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real symmetric\n"
        "2 2\n"
        "1.0\n"
        "2.0\n"
        "3.0\n"
    )
    got = read_matrix_market(path)
    assert np.array_equal(got, np.array([[1.0, 2.0], [2.0, 3.0]]))


def test_pattern_rejected(tmp_path):
    path = tmp_path / "p.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n"
    )
    with pytest.raises(UnsupportedField):
        read_matrix_market(path)


def test_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n2 1\n1.0\nbogus\n"
    )
    with pytest.raises(ParseError, match=":4:"):
        read_matrix_market(path)


def test_missing_entries_rejected(tmp_path):
    path = tmp_path / "short.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 1\n1.0\n")
    with pytest.raises(ParseError):
        read_matrix_market(path)


def test_short_body_refused_before_allocating_the_announced_size(tmp_path):
    path = tmp_path / "huge.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n3000 3000\n1.0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match=r":3: expected 9000000 entries, found 1$"):
            read_matrix_market(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "hdr.mtx"
    path.write_text("MatrixMarket matrix array real general\n1 1\n1.0\n")
    with pytest.raises(ParseError, match=":1:"):
        read_matrix_market(path)


_HEADER = "%%MatrixMarket matrix {} {} {}\n"


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("", 1, "empty file"),
        (_HEADER.format("dense", "real", "general") + "1 1\n1\n", 1, "unsupported format 'dense'"),
        (_HEADER.format("array", "quaternion", "general") + "1 1\n1\n", 1, "unsupported field"),
        (_HEADER.format("array", "real", "upper") + "1 1\n1\n", 1, "unsupported symmetry"),
        (_HEADER.format("array", "real", "general") + "% only a comment\n", 2, "missing size line"),
        (_HEADER.format("array", "real", "general") + "1 1 1\n1\n", 2, "array size line must be 'rows cols'"),
        (_HEADER.format("coordinate", "real", "general") + "1 1\n", 2, "coordinate size line must be"),
        (_HEADER.format("array", "real", "general") + "1 x\n1\n", 2, "malformed size line"),
        (_HEADER.format("array", "real", "general") + "0 1\n", 2, "dimensions must be positive"),
        (_HEADER.format("coordinate", "real", "general") + "2 2 -1\n", 2, "entry count must be >= 0"),
        (_HEADER.format("array", "real", "symmetric") + "2 3\n1\n2\n3\n", 2, "symmetric storage requires a square"),
    ],
    ids=[
        "empty", "format", "field", "symmetry", "no-size-line", "array-layout",
        "coordinate-layout", "malformed", "zero-dimension", "negative-count", "non-square",
    ],
)
def test_header_and_size_line_faults_name_their_line(tmp_path, text, line, message):
    path = tmp_path / "bad.mtx"
    path.write_text(text)
    with pytest.raises(ParseError, match=rf":{line}: {message}"):
        read_matrix_market(path)


def test_out_of_range_index(tmp_path):
    path = tmp_path / "oob.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
    )
    with pytest.raises(ParseError, match=":3:"):
        read_matrix_market(path)


def test_roundtrip_bit_identical(tmp_path, g):
    m = cnormal(g, 4, 3)
    p1 = tmp_path / "m1.mtx"
    p2 = tmp_path / "m2.mtx"
    write_matrix_market(p1, m)
    back = read_matrix_market(p1)
    assert np.array_equal(back, m)
    write_matrix_market(p2, back)
    assert p1.read_bytes() == p2.read_bytes()


def _per_entry_bytes(matrix) -> bytes:
    """The writer's reference format: one ``.16e`` pair per entry, column-major."""
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim == 1:
        m = m[:, None]
    rows, cols = m.shape
    text = f"%%MatrixMarket matrix array complex general\n{rows} {cols}\n"
    for j in range(cols):
        for i in range(rows):
            z = m[i, j]
            text += f"{z.real:.16e} {z.imag:.16e}\n"
    return text.encode("ascii")


_SPECIAL = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, np.inf, np.nan]


@pytest.mark.parametrize(
    "matrix",
    [
        pytest.param(cnormal(rng(5), 3, 5), id="3x5"),
        pytest.param([[2.5 - 1j]], id="1x1"),
        pytest.param(np.arange(4) * (1 - 0.5j), id="1-D"),
        pytest.param([[complex(a, b) for b in _SPECIAL] for a in _SPECIAL], id="special"),
    ],
)
def test_writer_bytes_match_the_per_entry_format(tmp_path, matrix):
    path = tmp_path / "m.mtx"
    write_matrix_market(path, matrix)
    assert path.read_bytes() == _per_entry_bytes(matrix)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0,)])
def test_writer_refuses_a_zero_dimension_and_keeps_the_file(tmp_path, shape):
    path = tmp_path / "kept.mtx"
    write_matrix_market(path, np.eye(2))
    before = path.read_bytes()
    with pytest.raises(ValueError, match="dimensions must be positive"):
        write_matrix_market(path, np.zeros(shape))
    assert path.read_bytes() == before


def test_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        read_matrix_market(tmp_path / "absent.mtx")


def test_integer_beyond_float64_range_names_its_line(tmp_path):
    path = tmp_path / "big.mtx"
    path.write_text(
        "%%MatrixMarket matrix array integer general\n2 1\n1\n" + "9" * 400 + "\n"
    )
    with pytest.raises(ParseError, match=":4: integer of 400 characters"):
        read_matrix_market(path)


def test_non_ascii_byte_names_its_line(tmp_path):
    path = tmp_path / "latin1.mtx"
    path.write_bytes(
        b"%%MatrixMarket matrix array real general\r\n2 1\r\n1.0\r\n2\xe9\r\n"
    )
    with pytest.raises(ParseError, match=":4: non-ASCII byte 0xe9"):
        read_matrix_market(path)


def _long_real_array(newline: str, bad_at: int) -> bytes:
    """A 5000 x 1 real array of ~115 KB whose line ``bad_at`` holds the non-ASCII byte 0xe9."""
    lines = [b"%%MatrixMarket matrix array real general", b"5000 1"]
    lines += [b"1.0000000000000000e+00"] * 5000
    lines[bad_at - 1] = b"2\xe9"
    return newline.encode("ascii").join(lines) + newline.encode("ascii")


@pytest.mark.parametrize("chunk", [mmio._CHUNK, 3])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_non_ascii_byte_past_the_first_chunk_names_its_line(tmp_path, monkeypatch, chunk, newline):
    # Line 4000 starts past the first 64 KiB.
    monkeypatch.setattr(mmio, "_CHUNK", chunk)
    path = tmp_path / "long.mtx"
    path.write_bytes(_long_real_array(newline, 4000))
    with pytest.raises(ParseError, match=r":4000: non-ASCII byte 0xe9$"):
        read_matrix_market(path)


@pytest.mark.parametrize("bad_at", [4, 4000], ids=["same-chunk", "past-the-first-chunk"])
def test_the_first_fault_in_file_order_is_reported(tmp_path, bad_at):
    # A malformed token on line 3 comes before the non-ASCII byte, near or far.
    data = _long_real_array("\n", bad_at).replace(b"1.0000000000000000e+00", b"bogus", 1)
    path = tmp_path / "two-faults.mtx"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=r":3: malformed number 'bogus'$"):
        read_matrix_market(path)


@pytest.mark.parametrize(
    "symmetry, rows, cols",
    [(s, n, n) for s in mmio._SYMMETRIES for n in (1, 3)] + [("general", 4, 2)],
)
def test_array_positions_match_the_column_major_loop(symmetry, rows, cols):
    first = {"general": lambda j: 0, "skew-symmetric": lambda j: j + 1}.get(symmetry, lambda j: j)
    want = [(i, j) for j in range(cols) for i in range(first(j), rows)]
    ii, jj = mmio._entry_positions_array(rows, cols, symmetry)
    assert list(zip(ii.tolist(), jj.tolist())) == want
    assert list(mmio._array_positions(rows, cols, symmetry)) == want


class ScannerReached(Exception):
    pass


@pytest.fixture
def scanner_raises(monkeypatch):
    def scan(*args, **kwargs):
        raise ScannerReached

    monkeypatch.setattr(mmio, "_scan_body", scan)


def test_writer_output_takes_the_bulk_pass(tmp_path, g, scanner_raises):
    m = cnormal(g, 5, 3)
    path = tmp_path / "m.mtx"
    write_matrix_market(path, m)
    assert np.array_equal(read_matrix_market(path), m)


def test_symmetric_integer_array_takes_the_bulk_pass(tmp_path, scanner_raises):
    path = tmp_path / "si.mtx"
    path.write_text(
        "%%MatrixMarket matrix array integer symmetric\n"
        "% leading comments stay before the size line\n"
        "2 2\n"
        "4\n"
        "-7\n"
        "+9\n"
    )
    assert np.array_equal(read_matrix_market(path), np.array([[4, -7], [-7, 9]]))


def test_mid_body_comment_reaches_the_scanner(tmp_path, scanner_raises):
    path = tmp_path / "c.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 1\n1.0\n% note\n2.0\n")
    with pytest.raises(ScannerReached):
        read_matrix_market(path)


# Differential check: the bulk pass must give exactly what the line scanner
# gives, value for value and bit for bit, or leave the scanner to raise.

_ODD_TOKENS = (
    "nan", "-nan", "inf", "-Infinity", "1e999", "-1e999", "1_0", "+5", "-0",
    ".5", "5.", "1E5", "9" * 400, "bogus", "0x10", "1,5", "#", "1.0",
)
_FAULTS = (
    "none", "extra_token", "missing_token", "bad_token", "extra_entry",
    "missing_entry", "comment", "blank", "underscore", "non_finite",
)


# Tokens that read as a zero imaginary part, and as a nonzero one.
_REAL_IMAG = ("0", "-0.0", "0e0")
_NONREAL_IMAG = ("1.0", "-2.5e-300", "5e-324")


def _float_tokens():
    finite = st.floats(allow_nan=False, allow_infinity=False)
    return st.one_of(finite.map(repr), finite.map("{:.16e}".format), finite.map("{:g}".format))


#: Draw weights of the storages and fields: a complex Hermitian body carries the
#: real-diagonal rule and a symmetric one the mirror store, where the bulk pass
#: and the line scanner each look up the diagonal and can disagree.
_SYMMETRY_WEIGHTS = {**dict.fromkeys(mmio._SYMMETRIES, 1), "symmetric": 2, "hermitian": 4}
_FIELD_WEIGHTS = {**dict.fromkeys(mmio._FIELDS, 1), "complex": 2}


def _weighted(weights):
    return st.sampled_from([name for name, weight in weights.items() for _ in range(weight)])


@st.composite
def array_files(draw):
    field = draw(_weighted(_FIELD_WEIGHTS))
    symmetry = draw(_weighted(_SYMMETRY_WEIGHTS))
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4)) if symmetry == "general" else rows
    number = (
        st.integers(-(2**70), 2**70).map(str) if field == "integer" else _float_tokens()
    )
    width = 2 if field == "complex" else 1
    ii, jj = mmio._entry_positions_array(rows, cols, symmetry)
    body = [" ".join(draw(number) for _ in range(width)) for _ in ii]
    # Hermitian storage holds a real diagonal.
    diagonal = np.flatnonzero(ii == jj).tolist() if (field, symmetry) == ("complex", "hermitian") else []
    for k in diagonal:
        body[k] = f"{body[k].split()[0]} {draw(st.sampled_from(_REAL_IMAG))}"
    faults = _FAULTS + (("non_real_diagonal",) if diagonal else ())
    # A one-by-one skew-symmetric body is empty: only faults that add a line apply.
    # A clean body, drawn three times as often as each fault, is where the two
    # readers must agree on a value rather than on an error message.
    fault = draw(
        st.sampled_from(("none", "none") + faults if body else ("none", "extra_entry", "comment", "blank"))
    )
    at = draw(st.integers(0, max(len(body) - 1, 0)))
    if fault == "non_real_diagonal":
        at = draw(st.sampled_from(diagonal))
        body[at] = f"{body[at].split()[0]} {draw(st.sampled_from(_NONREAL_IMAG))}"
    elif fault == "extra_entry":
        body.insert(at, " ".join(draw(number) for _ in range(width)))
    elif fault == "missing_entry":
        del body[at]
    elif fault == "extra_token":
        body[at] += " " + draw(number)
    elif fault == "missing_token":
        body[at] = " ".join(body[at].split()[:-1])
    elif fault == "comment":
        body.insert(at, "% " + draw(st.sampled_from(("note", "", "1.0"))))
    elif fault == "blank":
        body.insert(at, draw(st.sampled_from(("", "   ", "\t"))))
    elif fault != "none":
        odd = {"bad_token": _ODD_TOKENS, "underscore": ("1_0", "-2_5e1"), "non_finite": ("nan", "1e999")}
        tokens = body[at].split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(odd[fault]))
        body[at] = " ".join(tokens)
    header = f"%%MatrixMarket matrix array {field} {symmetry}\n{rows} {cols}\n"
    return header + "\n".join(body) + draw(st.sampled_from(("", "\n")))


def _outcome(path):
    try:
        return read_matrix_market(path)
    except ParseError as exc:
        return str(exc)


def _assert_matches_the_scanner(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.mtx"
        path.write_bytes(data)
        got = _outcome(path)
        with mock.patch.object(mmio, "_bulk_array", return_value=None):
            want = _outcome(path)
    if isinstance(want, str):
        assert isinstance(got, str) and got == want
    else:
        assert isinstance(got, np.ndarray) and got.flags.c_contiguous
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None, database=None)
@given(text=array_files())
def test_bulk_pass_matches_the_line_scanner(text):
    _assert_matches_the_scanner(text.encode("ascii"))


@settings(max_examples=300, deadline=None, database=None)
@given(text=array_files())
def test_bulk_pass_matches_the_line_scanner_in_3_byte_chunks(text):
    # Chunks this short put a chunk boundary on nearly every line.
    with mock.patch.object(mmio, "_CHUNK", 3):
        _assert_matches_the_scanner(text.encode("ascii"))


# Line breaks: str.splitlines, which splits every line the reader reads,
# breaks at \n, \r and \r\n and also at \v, \f and \x1c-\x1e.  The bulk
# pass must match the scanner or leave the file to it.

_UNIVERSAL_NEWLINES = ("\n", "\r\n", "\r")
_SPLITLINES_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e")


@st.composite
def line_break_files(draw):
    field = draw(st.sampled_from(mmio._FIELDS))
    symmetry = draw(st.sampled_from(mmio._SYMMETRIES))
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4)) if symmetry == "general" else rows
    number = st.integers(-(2**60), 2**60).map(str) if field == "integer" else _float_tokens()
    # Half the files break lines only at \n, \r and \r\n.
    breaks = _UNIVERSAL_NEWLINES + (_SPLITLINES_BREAKS if draw(st.booleans()) else ())
    gap = st.sampled_from((" ", "\t", " ") + breaks[3:])
    ii, jj = mmio._entry_positions_array(rows, cols, symmetry)
    body = []
    for i, j in zip(ii, jj):
        tokens = [draw(number) for _ in range(2 if field == "complex" else 1)]
        if (field, symmetry) == ("complex", "hermitian") and i == j:
            tokens[1] = draw(st.sampled_from(_REAL_IMAG))
        # A break between the two tokens of a complex entry splits it for the scanner.
        body.append(tokens[0] + "".join(draw(gap) + t for t in tokens[1:]))
    preamble = [f"%%MatrixMarket matrix array {field} {symmetry}"]
    preamble += ["% note"] * draw(st.integers(0, 1))
    lines = preamble + [f"{rows} {cols}"] + body
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(("", "  ", "\t"))))
    ends = [draw(st.sampled_from(breaks)) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends)).encode("ascii")


@settings(max_examples=300, deadline=None, database=None)
@given(data=line_break_files())
def test_streamed_pass_matches_the_line_scanner_across_line_breaks(data):
    _assert_matches_the_scanner(data)


@settings(max_examples=300, deadline=None, database=None)
@given(data=line_break_files())
def test_streamed_pass_matches_the_line_scanner_across_line_breaks_in_3_byte_chunks(data):
    with mock.patch.object(mmio, "_CHUNK", 3):
        _assert_matches_the_scanner(data)


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_cr_files_take_the_streamed_pass(tmp_path, newline, scanner_raises):
    path = tmp_path / "crlf.mtx"
    lines = ["%%MatrixMarket matrix array complex general", "% note", "", "2 1", "1.5 -2", "", "3 4e-3"]
    path.write_bytes(newline.join(lines).encode("ascii"))
    assert np.array_equal(read_matrix_market(path), [[1.5 - 2j], [3 + 4e-3j]])


@pytest.mark.parametrize("body", ["1.0\x0b2.0", "1.0\x0c2.0", "1.0\x1e2.0"])
def test_a_break_only_splitlines_sees_goes_to_the_scanner(tmp_path, body):
    # str.splitlines reads "1.0<break>2.0" as two lines of one token each,
    # not as one complex entry: the bulk pass refuses them.
    path = tmp_path / "vt.mtx"
    path.write_text(f"%%MatrixMarket matrix array complex general\n1 1\n{body}\n")
    with pytest.raises(ParseError, match=r":3: expected 2 value tokens, got 1$"):
        read_matrix_market(path)
    with mock.patch.object(mmio, "_scan_body", side_effect=ScannerReached):
        with pytest.raises(ScannerReached):
            read_matrix_market(path)


def test_a_preamble_break_only_splitlines_sees_goes_to_the_scanner(tmp_path):
    # Read as one line, "% note<VT>1 1" would be a comment and "1 2" the size
    # line of a 1 x 2 matrix with two entries; str.splitlines reads a 1 x 1
    # size line and one entry too many.
    path = tmp_path / "vt.mtx"
    path.write_text("%%MatrixMarket matrix array complex general\n% note\x0b1 1\n1 2\n5 6\n7 8\n")
    with pytest.raises(ParseError, match=r":5: more entries than the size line announces$"):
        read_matrix_market(path)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_streamed_read_peaks_near_the_matrix_bytes(tmp_path, g, newline):
    # The body streams into the bulk pass: no whole-file bytes, text or
    # list of lines at any line end; the traced peak is the parsed values
    # and the dense result.
    n = 200
    m = cnormal(g, n, n)
    path = tmp_path / "big.mtx"
    write_matrix_market(path, m)
    path.write_bytes(path.read_bytes().replace(b"\n", newline.encode("ascii")))
    tracemalloc.start()
    try:
        got = read_matrix_market(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == m.tobytes()
    assert peak <= 3 * m.nbytes


@pytest.mark.parametrize("form", ["coordinate", "array-with-a-comment"])
def test_scanner_read_peaks_near_the_matrix_bytes(tmp_path, g, form):
    # The scanner reads from the same line source as the bulk pass: the
    # traced peak is the scanned entries and the dense result, not the
    # file held whole.
    n = 200
    m = cnormal(g, n, n)
    path = tmp_path / "big.mtx"
    if form == "coordinate":
        body = "".join(f"{i + 1} {j + 1} {z.real:.17g} {z.imag:.17g}\n" for (i, j), z in np.ndenumerate(m))
        path.write_text(f"%%MatrixMarket matrix coordinate complex general\n{n} {n} {n * n}\n{body}")
    else:
        write_matrix_market(path, m)
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(len(lines) // 2, "% a comment sends the body to the scanner\n")
        path.write_text("".join(lines))
    tracemalloc.start()
    try:
        got = read_matrix_market(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tobytes() == m.tobytes()
    assert peak <= 16 * m.nbytes


def test_streamed_pass_lets_no_warning_escape(tmp_path, recwarn):
    # loadtxt warns on a body without rows; the scanner then raises.
    path = tmp_path / "blank.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n1 1\n  \n\n")
    with pytest.raises(ParseError, match=r":4: expected 1 entries, found 0$"):
        read_matrix_market(path)
    assert not recwarn.list


def test_memory_error_in_the_streamed_pass_is_an_io_failure(tmp_path, monkeypatch):
    path = tmp_path / "m.mtx"
    write_matrix_market(path, np.ones((3, 2)))

    def no_room(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(np, "loadtxt", no_room)
    with pytest.raises(IoFailure, match=r"m\.mtx:2: 3 x 2 dense matrix does not fit in memory$"):
        read_matrix_market(path)


@pytest.mark.parametrize("rows", [1, 2, 3, 4])
def test_hermitian_array_diagonal_must_be_real(tmp_path, rows):
    ii, jj = mmio._entry_positions_array(rows, rows, "hermitian")
    header = f"%%MatrixMarket matrix array complex hermitian\n{rows} {rows}\n"
    values = [f"{k + 1}.0 {0 if i == j else k + 1}.0" for k, (i, j) in enumerate(zip(ii, jj))]
    path = tmp_path / "h.mtx"
    path.write_text(header + "\n".join(values) + "\n")
    got = read_matrix_market(path)
    assert np.array_equal(got, got.conj().T)
    with mock.patch.object(mmio, "_bulk_array", return_value=None):
        assert np.array_equal(read_matrix_market(path), got)
    for k in np.flatnonzero(ii == jj):
        faulty = values.copy()
        faulty[k] = f"{k + 1}.0 5e-324"
        path.write_text(header + "\n".join(faulty) + "\n")
        with pytest.raises(ParseError, match=rf":{k + 3}: hermitian storage needs a real diagonal"):
            read_matrix_market(path)
        # The bulk pass refuses the body, so the scanner is what names the line.
        with mock.patch.object(mmio, "_scan_body", side_effect=ScannerReached):
            with pytest.raises(ScannerReached):
                read_matrix_market(path)


@pytest.mark.parametrize("symmetry", ["general", "hermitian"])
def test_repeated_coordinate_keeps_its_last_value(tmp_path, symmetry):
    path = tmp_path / "rep.mtx"
    path.write_text(
        f"%%MatrixMarket matrix coordinate complex {symmetry}\n"
        "2 2 4\n"
        "2 1 1.0 1.0\n"
        "1 1 4.0 0.0\n"
        "2 1 5.0 -2.0\n"
        "1 1 3.0 0.0\n"
    )
    got = read_matrix_market(path)
    assert got[1, 0] == 5 - 2j and got[0, 0] == 3
    assert got[0, 1] == (5 + 2j if symmetry == "hermitian" else 0)


# Coordinate bodies: a shuffled stored triangle must read bit for bit as the
# entry-by-entry loop below stores it, and one injected fault must raise a
# ParseError that names the faulted line (the last line for a count fault).

_MIRROR = {
    "symmetric": lambda v: v,
    "hermitian": lambda v: v.conjugate(),
    "skew-symmetric": lambda v: -v,
}
_COORDINATE_FAULTS = {
    "out_of_range": "outside",
    "upper_triangle": "must only hold the lower triangle",
    "few_tokens": "coordinate entry needs 'i j value'",
    "bad_index": "malformed indices",
    "bad_value": "malformed number",
    "extra_entry": "more entries than the size line announces",
    "missing_entry": "entries, found",
    "skew_diagonal": "skew-symmetric storage holds no diagonal entry",
    "hermitian_diagonal": "hermitian storage needs a real diagonal entry",
}


def _token_value(tokens, field):
    if field == "integer":
        return complex(int(tokens[0]))
    return complex(*(float(t) for t in tokens))


@st.composite
def coordinate_files(draw):
    field = draw(st.sampled_from(mmio._FIELDS))
    symmetry = draw(st.sampled_from(mmio._SYMMETRIES))
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4)) if symmetry == "general" else rows
    number = (
        st.integers(-(2**70), 2**70).map(str) if field == "integer" else _float_tokens()
    )
    width = 2 if field == "complex" else 1
    ii, jj = mmio._entry_positions_array(rows, cols, symmetry)
    positions = list(zip(ii.tolist(), jj.tolist()))
    stored = draw(st.permutations(positions))[: draw(st.integers(0, len(positions)))]
    if stored and draw(st.booleans()):
        stored.insert(draw(st.integers(0, len(stored))), draw(st.sampled_from(stored)))
    entries = [(i, j, [draw(number) for _ in range(width)]) for i, j in stored]
    # Hermitian storage holds a real diagonal.
    real_diagonal = (field, symmetry) == ("complex", "hermitian")
    for i, j, vals in entries:
        if real_diagonal and i == j:
            vals[1] = draw(st.sampled_from(_REAL_IMAG))

    # With no entries only a count fault applies; a square lower triangle is needed to leave it.
    faults = [
        f for f in _COORDINATE_FAULTS
        if (entries or f == "missing_entry")
        and (f != "upper_triangle" or (symmetry != "general" and rows > 1))
        and (f != "skew_diagonal" or symmetry == "skew-symmetric")
        and (f != "hermitian_diagonal" or real_diagonal)
    ]
    fault = draw(st.sampled_from(["none", *faults]))
    nnz = len(entries)
    lines = [f"{i + 1} {j + 1} {' '.join(vals)}" for i, j, vals in entries]
    at = draw(st.integers(0, max(nnz - 1, 0)))
    if fault == "extra_entry":
        nnz -= 1
        at = nnz
    elif fault == "missing_entry":
        nnz += 1
    elif fault == "out_of_range":
        i, j = entries[at][:2]
        i, j = draw(st.sampled_from([(rows + 1, j + 1), (i + 1, cols + 1), (0, j + 1)]))
        lines[at] = f"{i} {j} {' '.join(entries[at][2])}"
    elif fault == "upper_triangle":
        i = draw(st.integers(1, rows - 1))
        lines[at] = f"{i} {draw(st.integers(i + 1, rows))} {' '.join(entries[at][2])}"
    elif fault == "skew_diagonal":
        d = draw(st.integers(1, rows))
        lines[at] = f"{d} {d} {' '.join(entries[at][2])}"
    elif fault == "hermitian_diagonal":
        d = draw(st.integers(1, rows))
        lines[at] = f"{d} {d} {entries[at][2][0]} {draw(st.sampled_from(_NONREAL_IMAG))}"
    elif fault == "few_tokens":
        lines[at] = " ".join(lines[at].split()[: draw(st.integers(1, 2))])
    elif fault in ("bad_index", "bad_value"):
        tokens = lines[at].split()
        slot = draw(st.integers(0, 1) if fault == "bad_index" else st.integers(2, len(tokens) - 1))
        tokens[slot] = draw(st.sampled_from(("1.5", "x", "1e0") if fault == "bad_index" else ("bogus", "1,5", "0x10")))
        lines[at] = " ".join(tokens)

    body = [(line, k) for k, line in enumerate(lines)]
    noise = st.sampled_from(("", "   ", "\t", "%", "% note", "%1 1 1.0"))
    for _ in range(draw(st.integers(0, 3))):
        body.insert(draw(st.integers(0, len(body))), (draw(noise), None))
    text_lines = [f"%%MatrixMarket matrix coordinate {field} {symmetry}"]
    text_lines += [draw(noise) for _ in range(draw(st.integers(0, 2)))]
    text_lines.append(f"{rows} {cols} {nnz}")
    first_body = len(text_lines) + 1
    text_lines += [line for line, _ in body]
    if fault == "none":
        want = np.zeros((rows, cols), dtype=np.complex128)
        for i, j, vals in entries:
            want[i, j] = _token_value(vals, field)
            if i != j and symmetry != "general":
                want[j, i] = _MIRROR[symmetry](_token_value(vals, field))
        return "\n".join(text_lines) + "\n", want
    if fault == "missing_entry":
        lineno = len(text_lines)
    else:
        lineno = first_body + next(n for n, (_, k) in enumerate(body) if k == at)
    return "\n".join(text_lines) + "\n", (lineno, _COORDINATE_FAULTS[fault])


@settings(max_examples=300, deadline=None, database=None)
@given(case=coordinate_files())
def test_coordinate_bodies_read_exactly_or_name_the_faulted_line(case):
    text, want = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.mtx"
        path.write_text(text)
        got = _outcome(path)
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), got
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    else:
        lineno, message = want
        assert isinstance(got, str) and got.startswith(f"{path}:{lineno}: ") and message in got
