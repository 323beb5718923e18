r"""Matrix Market reader/writer for dense complex matrices.

Reads ``array`` and ``coordinate`` formats with ``real``, ``complex`` and
``integer`` fields; ``symmetric``, ``hermitian`` and ``skew-symmetric``
storage is expanded to the full matrix.  ``pattern`` files carry no values
and are rejected.  Everything is returned dense (complex128): this package
targets desk-scale problems.

The file is opened once, in binary mode, and every line comes from one
source: ``_CHUNK`` bytes at a time, each chunk cut at its last line break,
decoded as ASCII and split by ``str.splitlines``.  Both formats share one
header and size-line rule and one line scanner: a ``coordinate`` data line
is an ``array`` data line with a leading ``i j``.  An ``array`` body goes from
the source into one ``np.loadtxt`` pass, so the file is never held whole.
When that pass refuses the body (a non-ASCII byte, a token it cannot
convert such as a ``%``, a wrong entry count or width, a blank body, a
non-real Hermitian diagonal), the file is rewound and the scanner reads
the body, as it reads every ``coordinate`` body.  The scanner raises a
``ParseError`` naming the first faulty line in file order, or reads what
``float``/``int`` accept but ``loadtxt`` does not (``1_0``, integers
beyond int64).  It takes ``array`` positions one at a time, so a short
body is refused before anything of the announced size is allocated.  A
repeated ``coordinate`` position keeps its last value.  The storage type
binds the diagonal: a ``skew-symmetric`` body holds no diagonal entry and
a ``hermitian`` diagonal entry is real.  The dense output is allocated
once the body is read; a size that does not fit in memory raises
``IoFailure``.

The writer always emits ``array complex general`` with 17 significant
digits, which round-trips float64 exactly.  The body is column-major, so
each column is one ``%`` format call: the bytes of a per-entry
``f"{x:.16e}"`` loop, as both take CPython's ``'e'`` float conversion.  A
matrix with a zero dimension, which no size line may announce, is refused
before the file is opened.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import IoFailure, ParseError, UnsupportedField

_FORMATS = ("array", "coordinate")
_FIELDS = ("real", "complex", "integer")
_SYMMETRIES = ("general", "symmetric", "hermitian", "skew-symmetric")

#: Bytes per read of the line source; a chunk ends at the last line break read.
_CHUNK = 1 << 16

#: The ASCII line breaks of ``str.splitlines``.
_BREAKS = b"\n\r\x0b\x0c\x1c\x1d\x1e"


def _fail(path: str, lineno: int, msg: str):
    raise ParseError(f"{path}:{lineno}: {msg}")


def _parse_value(tokens: list[str], field: str, path: str, lineno: int) -> complex:
    try:
        if field == "complex":
            if len(tokens) != 2:
                _fail(path, lineno, f"expected 2 value tokens, got {len(tokens)}")
            return complex(float(tokens[0]), float(tokens[1]))
        if len(tokens) != 1:
            _fail(path, lineno, f"expected 1 value token, got {len(tokens)}")
        if field == "integer":
            return complex(int(tokens[0]))
        return complex(float(tokens[0]))
    except ValueError:
        _fail(path, lineno, f"malformed number {' '.join(tokens)!r}")
    except OverflowError:
        _fail(path, lineno, f"integer of {len(tokens[0])} characters exceeds the float64 range")


def read_matrix_market(path) -> np.ndarray:
    """Read a Matrix Market file as a dense complex matrix.

    The file is opened once and every line comes from one source.  An
    ``array`` body goes to one ``np.loadtxt`` pass; the line scanner reads a
    body that pass refuses, and every ``coordinate`` body, and raises the
    first fault in file order.

    Raises:
        ParseError: on malformed content, a non-ASCII byte or an integer
            beyond the float64 range; the message names the line.
        UnsupportedField: for ``pattern`` files.
        IoFailure: if the announced dense matrix, or the values the
            ``loadtxt`` pass reads, do not fit in memory.
        OSError: if the file cannot be opened.
    """
    path = str(path)
    with open(path, "rb") as fh:
        lines = itertools.chain.from_iterable(_line_chunks(fh, path))
        fmt, field, symmetry, rows, cols, count, size_lineno = _preamble(lines, path)
        positions = None
        if fmt == "array":
            out = _bulk_array(lines, field, symmetry, rows, cols, count, path, size_lineno)
            if out is not None:
                return out
            fh.seek(0)
            lines = itertools.chain.from_iterable(_line_chunks(fh, path))
            lines = itertools.islice(lines, size_lineno, None)
            positions = _array_positions(rows, cols, symmetry)
        entries = _scan_body(lines, size_lineno, positions, rows, cols, count, field, symmetry, path)
    ii, jj = np.array(list(entries), dtype=np.intp).reshape(-1, 2).T
    vals = np.array(list(entries.values()), dtype=np.complex128)
    return _dense(vals, (ii, jj), rows, cols, symmetry, path, size_lineno)


def _line_chunks(fh, path: str):
    r"""The lines of the binary file ``fh``, without their breaks, as one list per chunk.

    The chunks are those of ``_chunks``, so no line spans two.  A non-ASCII
    byte raises a ``ParseError`` naming its line once the lines before it
    have been yielded.
    """
    lineno = 0
    for chunk in _chunks(fh):
        try:
            lines = chunk.decode("ascii").splitlines()
        except UnicodeDecodeError as exc:
            # The sentinel puts a byte that follows a line break on a line of its own.
            *lines, _ = (chunk[: exc.start].decode("ascii") + "x").splitlines()
            yield lines
            _fail(path, lineno + len(lines) + 1, f"non-ASCII byte 0x{chunk[exc.start]:02x}")
        lineno += len(lines)
        yield lines


def _chunks(fh):
    r"""The bytes of ``fh``, cut after the last line break of ``str.splitlines`` in each read.

    The bytes after the cut go to the next piece, and so does a final
    ``\r`` with its line, since a ``\n`` may follow it.
    """
    parts = []
    for block in iter(lambda: fh.read(_CHUNK), b""):
        cut = 1 + max(block.rfind(brk, 0, len(block) - block.endswith(b"\r")) for brk in _BREAKS)
        if cut:
            yield b"".join([*parts, block[:cut]])
            parts = []
        parts.append(block[cut:])
    yield b"".join(parts)


def _preamble(lines, path: str) -> tuple[str, str, str, int, int, int, int]:
    """``(fmt, field, symmetry, rows, cols, count, size_lineno)`` from the iterator ``lines``.

    Reads the header, the comment and blank lines after it and the size
    line, and leaves ``lines`` after the size line.
    """
    first = next(lines, None)
    if first is None:
        _fail(path, 1, "empty file")
    header = first.split()
    if len(header) != 5 or header[0] != "%%MatrixMarket" or header[1].lower() != "matrix":
        _fail(path, 1, f"bad header {first!r}")
    fmt, field, symmetry = (tok.lower() for tok in header[2:5])
    if field == "pattern":
        raise UnsupportedField(f"{path}:1: pattern matrices carry no values")
    if fmt not in _FORMATS:
        _fail(path, 1, f"unsupported format {fmt!r}")
    if field not in _FIELDS:
        _fail(path, 1, f"unsupported field {field!r}")
    if symmetry not in _SYMMETRIES:
        _fail(path, 1, f"unsupported symmetry {symmetry!r}")

    # Skip comment/blank lines up to the size line.
    lineno = 1
    for line in lines:
        lineno += 1
        if line.strip() and not line.lstrip().startswith("%"):
            break
    else:
        _fail(path, lineno, "missing size line")
    return fmt, field, symmetry, *_size_line(line, fmt, symmetry, path, lineno), lineno


def _no_room(path: str, size_lineno: int, rows: int, cols: int) -> IoFailure:
    return IoFailure(f"{path}:{size_lineno}: {rows} x {cols} dense matrix does not fit in memory")


def _dense(vals, positions, rows, cols, symmetry, path, size_lineno) -> np.ndarray:
    """The dense matrix with ``vals`` at ``positions = (ii, jj)``, mirrored as ``symmetry`` says.

    ``positions=None`` stores every entry in column-major order.
    """
    try:
        out = np.zeros((rows, cols), dtype=np.complex128)
    except MemoryError:
        raise _no_room(path, size_lineno, rows, cols) from None
    if positions is None:
        out.T[...] = vals.reshape(cols, rows)
        return out
    ii, jj = positions
    # Mirror first, so the as-read store below keeps a Hermitian or skew diagonal as read.
    if symmetry == "symmetric":
        out[jj, ii] = vals
    elif symmetry == "hermitian":
        out[jj, ii] = vals.conj()
    elif symmetry == "skew-symmetric":
        out[jj, ii] = -vals
    out[ii, jj] = vals
    return out


def _size_line(line: str, fmt: str, symmetry: str, path: str, lineno: int) -> tuple[int, int, int]:
    """``(rows, cols, entry count)`` from the size line of either format."""
    tokens = line.split()
    layout = "rows cols" if fmt == "array" else "rows cols nnz"
    if len(tokens) != len(layout.split()):
        _fail(path, lineno, f"{fmt} size line must be '{layout}'")
    try:
        rows, cols, *nnz = (int(t) for t in tokens)
    except ValueError:
        _fail(path, lineno, f"malformed size line {line!r}")
    if rows < 1 or cols < 1:
        _fail(path, lineno, "dimensions must be positive")
    if nnz and nnz[0] < 0:
        _fail(path, lineno, "entry count must be >= 0")
    if symmetry != "general" and rows != cols:
        _fail(path, lineno, f"{symmetry} storage requires a square matrix")
    if nnz:
        return rows, cols, nnz[0]
    if symmetry == "general":
        return rows, cols, rows * cols
    return rows, cols, rows * (rows + (-1 if symmetry == "skew-symmetric" else 1)) // 2


def _entry_positions_array(rows: int, cols: int, symmetry: str) -> tuple[np.ndarray, np.ndarray]:
    """Column-major storage positions ``(i, j)`` for the given array symmetry."""
    j, i = np.divmod(np.arange(rows * cols), rows)
    if symmetry == "general":
        return i, j
    keep = i > j if symmetry == "skew-symmetric" else i >= j
    return i[keep], j[keep]


def _array_positions(rows: int, cols: int, symmetry: str):
    """The positions of ``_entry_positions_array``, one ``(i, j)`` at a time."""
    for j in range(cols):
        first = 0 if symmetry == "general" else j + (symmetry == "skew-symmetric")
        for i in range(first, rows):
            yield i, j


def _bulk_array(lines, field, symmetry, rows, cols, count, path, size_lineno) -> np.ndarray | None:
    """The matrix of the ``array`` body left in ``lines`` from one ``np.loadtxt`` pass, or ``None``.

    ``None`` leaves the body to the line scanner: it holds a non-ASCII byte
    or a non-real Hermitian diagonal entry, is blank, or is not ``count``
    rows of the field's width that ``np.loadtxt`` converts (a ``%`` is a
    token it cannot convert).
    """
    try:
        # A blank body is refused here: loadtxt would warn on it.
        first = next((line for line in lines if line.strip()), None)
        if first is None:
            return None
        data = np.loadtxt(
            itertools.chain([first], lines),
            dtype=np.int64 if field == "integer" else np.float64,
            comments=None,
            ndmin=2,
        )
        if data.shape != (count, 2 if field == "complex" else 1):
            return None
        vals = data.view(np.complex128) if field == "complex" else data.astype(np.complex128)
    except (ValueError, ParseError):
        return None
    except MemoryError:
        raise _no_room(path, size_lineno, rows, cols) from None
    vals = vals[:, 0]
    if symmetry == "general":
        return _dense(vals, None, rows, cols, symmetry, path, size_lineno)
    positions = ii, jj = _entry_positions_array(rows, cols, symmetry)
    if symmetry == "hermitian" and vals[ii == jj].imag.any():
        return None  # the scanner names the line of the non-real diagonal entry
    return _dense(vals, positions, rows, cols, symmetry, path, size_lineno)


def _scan_body(lines, size_lineno, positions, rows, cols, count, field, symmetry, path) -> dict:
    """Read ``lines``, the lines after the size line, one at a time; a fault names its line.

    Returns the values in order of first appearance, keyed by their 0-based
    ``(i, j)``: read from a ``coordinate`` line, or, for an ``array`` body,
    the next storage position from the iterator ``positions``.  A repeated
    ``(i, j)`` keeps its last value: NumPy leaves a fancy-index store with
    repeated indices unspecified.
    """
    entries = {}
    seen = 0
    lineno = size_lineno
    for lineno, raw in enumerate(lines, size_lineno + 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        if seen >= count:
            _fail(path, lineno, "more entries than the size line announces")
        tokens = stripped.split()
        if positions is None:
            if len(tokens) < 3:
                _fail(path, lineno, f"coordinate entry needs 'i j value', got {raw!r}")
            try:
                i, j = int(tokens[0]) - 1, int(tokens[1]) - 1
            except ValueError:
                _fail(path, lineno, f"malformed indices in {raw!r}")
            if not (0 <= i < rows and 0 <= j < cols):
                _fail(path, lineno, f"index ({i + 1}, {j + 1}) outside {rows} x {cols}")
            tokens = tokens[2:]
        else:
            i, j = next(positions)
        if symmetry != "general" and i < j:
            _fail(path, lineno, f"{symmetry} storage must only hold the lower triangle")
        if symmetry == "skew-symmetric" and i == j:
            _fail(path, lineno, "skew-symmetric storage holds no diagonal entry")
        value = _parse_value(tokens, field, path, lineno)
        if symmetry == "hermitian" and i == j and value.imag:
            _fail(path, lineno, f"hermitian storage needs a real diagonal entry, got {value}")
        entries[i, j] = value
        seen += 1
    if seen != count:
        _fail(path, lineno, f"expected {count} entries, found {seen}")
    return entries


def write_matrix_market(path, matrix) -> None:
    """Write a dense matrix (a 1-D input as one column) as ``array complex general``.

    Each column is one ``%.16e %.16e`` format call and one write.

    Raises:
        ValueError: if ``matrix`` is not 1-D or 2-D or has a zero dimension;
            the file at ``path`` is then left untouched.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={m.ndim}")
    rows, cols = m.shape
    if rows == 0 or cols == 0:
        raise ValueError(f"cannot write a {rows} x {cols} matrix: dimensions must be positive")
    line = "%.16e %.16e\n" * rows
    with open(str(path), "w", encoding="ascii", newline="\n") as fh:
        fh.write("%%MatrixMarket matrix array complex general\n")
        fh.write(f"{rows} {cols}\n")
        for j in range(cols):
            # A column copy is contiguous, so its float64 view interleaves real and imaginary parts.
            fh.write(line % tuple(m[:, j].copy().view(np.float64).tolist()))
