"""The CSV table format of data, dataset and mask files, read and written.

Other modules call :func:`write`, :func:`read`, :func:`header_row` and
:func:`line_of`; every other name here is private to the codec.
"""

from __future__ import annotations

import csv
from array import array
from itertools import islice

import numpy as np

from .errors import TapkitError, not_utf8


_ROWS_PER_WRITE = 1024
_KEY_NAMES = ("episode id", "t")
_BITS = frozenset("01")


def write(path, header: list[str], blocks) -> None:
    """Write ``header``, then one line per row of each ``(keys, cells)`` block:
    the ``(n, k)`` int keys as ``%d``, then the ``(n, d)`` cells, floats as
    ``%.17g``, which round-trips any float64 exactly, and bools as ``0`` or
    ``1``. Fields are joined by commas and lines end in CRLF, as the csv
    module writes them; the header is UTF-8.

    The bytes are those of Python's ``%`` operator. They are made by NumPy
    ops over chunks of ``_ROWS_PER_WRITE`` rows, see :func:`_text_lines`.
    """
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for keys, cells in blocks:
            for a in range(0, len(keys), _ROWS_PER_WRITE):
                b = a + _ROWS_PER_WRITE
                fh.write(_text_lines(cells[a:b], keys[a:b]))


def _text_lines(cells: np.ndarray, keys: np.ndarray) -> bytes:
    """One line per row: the ``(n, k)`` int64 ``keys`` as ``%d``, then the
    ``(n, d)`` ``cells``, floats as ``%.17g`` and bools as ``0`` or ``1``,
    joined by commas and ended by CRLF.

    Every field is laid out at a fixed width in one zero-padded ``(n, width)``
    uint8 block, a comma before it. NUL is never part of the text, so one
    boolean index over the block leaves the lines.
    """
    n = len(cells)
    fields = [(_int_text(keys.ravel()), keys.shape[1]),
              ((cells.view(np.uint8) + ord("0")).reshape(1, -1) if cells.dtype == bool
               else _float_text(cells.ravel()), cells.shape[1])]
    block = np.zeros((n, sum(m * (len(text) + 1) for text, m in fields) + 2), dtype=np.uint8)
    at = 0
    for text, m in fields:
        w = len(text) + 1
        slots = block[:, at:at + m * w].reshape(n, m, w)
        slots[:, :, 0] = ord(",")
        slots[:, :, 1:] = text.reshape(w - 1, n, m).transpose(1, 2, 0)
        at += m * w
    block[:, 0] = 0  # no comma before a line's first field
    block[:, at:] = (ord("\r"), ord("\n"))
    flat = block.ravel()
    return flat[flat != 0].tobytes()


# The %.17g kernel. For a finite x with decimal exponent X in [-4, 16],
# 10**(16 - X) is an exact double, and Dekker's TwoProduct gives
# |x| * 10**(16 - X) exactly as hi + lo with hi an integer in [1e16, 1e17]:
# its 17-digit rounding is exact in int64. Texts are built as
# sign, "0.00"-style lead, digits with the point.
_POW10 = 10.0 ** np.arange(21)
_TENS = 10 ** np.arange(19, dtype=np.uint64)
_GROUP = np.arange(10_000)
_DIGITS = (_GROUP // np.array([[1000], [100], [10], [1]]) % 10 + ord("0")).astype(np.uint8)
_TRAILING_ZEROS = sum(_GROUP % 10**k == 0 for k in range(1, 5))  # 4 for 0000
_ROW = np.arange(19)[:, None]
_LEAD = np.zeros((5, 21), dtype=np.uint8)  # column X + 4 holds the lead of exponent X
_LEAD[:, :4] = np.frombuffer(b"0.000" b"0.00\0" b"0.0\0\0" b"0.\0\0\0", np.uint8).reshape(4, 5).T


def _veltkamp(a):
    """Split doubles into a 26-bit high part and the exact rest."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _veltkamp(_POW10)


def _significand(a, exponent):
    """The 17 digits of each ``a`` at decimal ``exponent``: ``a * 10**(16 -
    exponent)`` rounded half to even, as int64, with that product exactly as
    ``(hi, lo)``. The product is Dekker's TwoProduct, one rounding per ufunc
    call, so nothing becomes an FMA."""
    k = 16 - exponent
    hi = a * _POW10[k]
    ah, al = _veltkamp(a)
    bh, bl = _POW10_HIGH[k], _POW10_LOW[k]
    lo = al * bl - (((hi - ah * bh) - al * bh) - ah * bl)
    floor_lo = np.floor(lo)
    sig = hi.astype(np.int64) + floor_lo.astype(np.int64)
    rest = lo - floor_lo
    sig += (rest > 0.5) | ((rest == 0.5) & ((sig & 1) == 1))
    return sig, hi, lo


def _decimal(u: np.ndarray, width: int):
    """The last ``width`` decimal digits of each non-negative int, as a
    ``(width, n)`` ASCII array, and its 4-digit groups, lowest first."""
    digits = np.empty((width, len(u)), dtype=np.uint8)
    groups = []
    for stop in range(width, 0, -4):
        high = u // 10_000
        groups.append((u - high * 10_000).astype(np.intp, copy=False))
        start = max(stop - 4, 0)
        digits[start:stop] = _DIGITS[4 - stop + start:].take(groups[-1], axis=1)
        u = high
    return digits, groups


def _int_text(v: np.ndarray) -> np.ndarray:
    """``'%d' % i`` for each value of the 1-D int64 ``v``, as a ``(w + 1, n)``
    uint8 array, ``w`` the digits of the longest: column ``j`` holds the text
    of ``v[j]``, NUL-padded."""
    neg = v < 0
    mag = np.where(neg, ~v, v).astype(np.uint64) + neg  # ~v == -v - 1 fits int64's minimum
    size = np.searchsorted(_TENS[1:], mag, side="right")  # digits - 1
    width = int(size.max(initial=0)) + 1
    digits, _ = _decimal(mag, width)
    digits *= _ROW[:width] >= width - 1 - size
    text = np.empty((width + 1, len(v)), dtype=np.uint8)
    text[0] = neg * ord("-")
    text[1:] = digits
    return text


def _float_text(x: np.ndarray) -> np.ndarray:
    """``'%.17g' % f`` for each value of the 1-D float64 ``x``, as a
    ``(24, n)`` uint8 array: column ``j`` holds the text of ``x[j]`` with
    NULs between and after its parts.

    Zeros and values with ``1e-4 <= |x| < 1e17`` are made by the kernel above.
    Every other value (subnormal, small, huge, nan, inf), and each one whose
    decade ``log10`` misses, is made one at a time by ``%``.
    """
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e17)  # 1e-4 as a double lies above 10**-4
    a = np.where(fast, a, 1.0)  # zeros get 1.0's digits, with the 1 made a 0 below
    e = np.floor(np.log10(a)).astype(np.intp)
    np.clip(e, -4, 16, out=e)  # log10 of a value just below 1e17 may round up to 17
    sig, hi, lo = _significand(a, e)
    # log10 may be one off next to a power of ten: the exact product's decade
    # says so, and % writes those values. None rounds up to 10**17: the
    # product rises with a, and the largest double below 10**(e + 1) makes it
    # 10**17 - 8.3 or less (at e = -2; over 11 where 10**(e + 1) is exact).
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    slow = np.flatnonzero(~fast & (x != 0) | below | above)
    digits, groups = _decimal(sig, 17)
    digits[0] -= x == 0
    tz = _TRAILING_ZEROS[groups[0]]
    run = np.flatnonzero(groups[0] == 0)  # four or more trailing zeros: look further up
    for group in groups[1:4]:
        tz[run] += _TRAILING_ZEROS[group[run]]
        run = run[group[run] == 0]
    q = np.maximum(e, -1)  # the last digit before the point: -1 puts every digit after the lead
    keep = np.maximum(17 - tz, q + 1)
    cut = np.flatnonzero(keep < 17)
    digits[:, cut] *= _ROW[:17] < keep[cut]
    text = np.empty((24, len(x)), dtype=np.uint8)
    text[0] = np.signbit(x) * ord("-")
    text[1:6] = _LEAD.take(e + 4, axis=1)
    body = text[6:]
    left = _ROW[:17] <= q
    body[:17] = digits * left
    body[17] = 0
    body[1:] += digits * ~left
    body[1:] += (_ROW[:17] == q) * (ord(".") * (keep > q + 1)).astype(np.uint8)
    if slow.size:  # each text has at most 24 characters
        text[:, slow] = np.array(["%.17g" % f for f in x[slow].tolist()],
                                 dtype="S24").view(np.uint8).reshape(-1, 24).T
    return text


def read(path, n_keys: int, check_header, mask: bool = False):
    """Read a table written by :func:`write`.

    ``check_header`` gets the header row (None for an empty file) and raises
    if it is wrong; its result is returned first. Every other non-blank line
    holds as many fields as the header: ``n_keys`` int keys, then cells that
    are finite floats or, for a ``mask``, exactly ``0`` or ``1``. Returns the
    header check's result, an ``(n, n_keys)`` int array and an ``(n, d)``
    float (bool for a mask) array.

    The body is parsed by NumPy ops over bytes, see :func:`_parse_lines`.
    Any body they do not take (a blank line, a wrong field count, a ``\\r``
    inside a line, a key past 18 digits, a cell ``float`` refuses, ...) is
    read again by a ``csv`` row loop that gives the same arrays or names the
    offending line; blank lines are skipped there but counted.
    """
    header = header_row(path)
    checked = check_header(header)
    width = len(header)
    d = width - n_keys
    keys, cells = _read_body(path, n_keys, width, mask) or _read_rows(path, n_keys, width, mask)
    keys = np.frombuffer(keys, dtype=np.int64).reshape(-1, n_keys)
    cells = np.frombuffer(cells, dtype=bool if mask else float).reshape(-1, d)
    if not mask and not np.isfinite(cells).all():
        i, j = divmod(int(np.argmin(np.isfinite(cells))), d)
        lineno, row = _find_row(path, i)
        where = "" if n_keys == 1 else " in the row of episode %d, t %d:" % tuple(keys[i])
        raise TapkitError(f"{path}: line {lineno}: non-finite value{where} {row[n_keys + j]!r}")
    return checked, keys, cells


def _read_rows(path, n_keys: int, width: int, mask: bool):
    """The body of a table read row by row with ``csv``: its keys and cells
    as flat int64 and float64 (uint8 for a mask) arrays, or a TapkitError
    naming the first line that is not a row of the table."""
    d = width - n_keys
    keys = array("q")
    cells = array("B" if mask else "d")
    parse = int if mask else float
    rows = _csv_rows(path)
    next(rows)
    for lineno, row in rows:
        if not row:
            continue
        if len(row) != width or mask and not _BITS.issuperset(row[n_keys:]):
            expected = f"{d} mask cells of 0 or 1" if mask else f"{width} fields"
            raise TapkitError(f"{path}: line {lineno}: expected {expected}")
        try:
            keys.extend(map(int, row[:n_keys]))
            cells.extend(map(parse, row[n_keys:]))
        except (ValueError, OverflowError):
            for j, text in enumerate(row):
                try:
                    value = (int if j < n_keys else float)(text)
                except ValueError:
                    what = f"non-integer {_KEY_NAMES[j]}" if j < n_keys else "non-numeric value"
                    raise TapkitError(f"{path}: line {lineno}: {what} {text!r}") from None
                if j < n_keys and not -2**63 <= value < 2**63:
                    raise TapkitError(
                        f"{path}: line {lineno}: {_KEY_NAMES[j]} out of range {text!r}")
    return keys, cells


_PIECE_BYTES = 1 << 17


def _read_body(path, n_keys: int, width: int, mask: bool):
    """The body of a table parsed about ``_PIECE_BYTES`` of whole lines at a
    time by :func:`_parse_lines`, as :func:`_read_rows` returns it, or None
    if a piece is not one it takes or the header is not one plain line.

    A mask's pieces are a quarter of that: its cells take 2 bytes each
    against ~20 for a value, and each field costs the kernel ~65 bytes of
    arrays."""
    keys = array("q")
    cells = array("B" if mask else "d")
    piece = _PIECE_BYTES // 4 if mask else _PIECE_BYTES
    with open(path, "rb") as fh:
        head = fh.readline().removesuffix(b"\n").removesuffix(b"\r")
        if b'"' in head or b"\r" in head:  # a header row csv may not end with this line
            return None
        buf = bytearray()  # never holds a newline between pieces
        while True:
            start = len(buf)
            buf += fh.read(piece) or (b"\n" if buf else b"")  # a last line gets its newline
            if len(buf) == start:
                break
            cut = buf.rfind(b"\n", start) + 1
            if cut:
                with memoryview(buf) as view:
                    part = _parse_lines(view[:cut], n_keys, width, mask)
                if part is None:
                    return None
                keys.frombytes(part[0].view(np.uint8))
                cells.frombytes(part[1].view(np.uint8))
                del buf[:cut]
    return keys, cells


# The reader's digit kernel. A field's digits are read as the 8-byte
# little-endian words that end where the field does, first digit in the
# lowest byte, at most three; the nibbles of the bytes before its digits are
# masked off, and three SWAR multiply-shift steps give each word's value:
# pairs, then groups of 4 and of 8 digits.
_NIBBLES = np.array([0x0F0F0F0F0F0F0F0F >> 8 * z << 8 * z for z in range(9)], dtype=np.uint64)
_WORD_AT = np.array([[0], [8], [16]])
_RUN_MASKS = _NIBBLES[np.clip(24 - np.arange(25) - _WORD_AT, 0, 8)]  # column r: the last r bytes
_SWAR = [(np.uint64(mul), np.uint64(shift), np.uint64(keep)) for mul, shift, keep in (
    (10 * 2**8 + 1, 8, 0x00FF00FF00FF00FF),
    (100 * 2**16 + 1, 16, 0x0000FFFF0000FFFF),
    (10_000 * 2**32 + 1, 32, 0xFFFFFFFF))]


def _parse_lines(body, n_keys: int, width: int, mask: bool):
    """The flat keys and cells of ``body``, whole lines that each end in
    ``\\n``, or None unless :func:`_fields` splits it, each key is plain
    with 1 to 18 digits and, in a mask, each cell is ``0`` or ``1``.

    A plain cell of at most 17 significant digits whose decade lies in
    [-4, 16] is read by :func:`_checked`; every other one (exponent forms,
    a ``+``, a space, more digits, smaller values, a miss there) by
    ``float`` of its bytes, which on ASCII text is ``float`` of its ``csv``
    text; a ValueError there (a quote, non-ASCII text) gives None.
    """
    b = np.frombuffer(body, dtype=np.uint8)
    starts, stops, plain, places, words = _fields(b, n_keys, width) or (None,) * 5
    if starts is None:
        return None
    neg = b[starts[:, :n_keys]] == ord("-")
    run = stops[:, :n_keys] - starts[:, :n_keys] - neg
    if not (plain[:, :n_keys] & (run >= 1) & (run <= 18)).all():
        return None
    keys = _digits(words, stops[:, :n_keys].ravel(), run.ravel())[0].astype(np.int64)
    keys = np.where(neg.ravel(), -keys, keys)
    if mask:
        cell = b[starts[:, n_keys:]]
        if not ((stops[:, n_keys:] - starts[:, n_keys:] == 1)
                & ((cell == ord("0")) | (cell == ord("1")))).all():
            return None
        return keys, cell == ord("1")

    starts, stops, plain, places = (a[:, n_keys:].ravel() for a in (starts, stops, plain, places))
    if (stops - starts).max(initial=0) > csv.field_size_limit():
        return None
    neg = b[starts] == ord("-")
    run = stops - starts - neg  # the digits, with a point as a leading 0
    m, high = _digits(words, stops, run)
    del words  # frees the piece's copy before the rounding check
    e = np.searchsorted(_TENS[1:], m, side="right") - places  # the decade
    fast = plain & (run >= 1) & (run <= 24) & (high < 10)  # m below 10**17
    done = fast & (m == 0)
    take = np.flatnonzero(fast & (m > 0) & (e >= -4) & (e <= 16))
    m, e, places = m[take], e[take], places[take]
    y, hit = _checked(m, e, places)
    cells = np.zeros(len(stops))
    cells[take[hit]] = y[hit]
    done[take[hit]] = True
    np.copysign(cells, 0.5 - neg, out=cells)
    slow = np.flatnonzero(~done)
    for j, a, z in zip(slow.tolist(), starts[slow].tolist(), stops[slow].tolist()):
        try:
            cells[j] = float(body[a:z])
        except ValueError:
            return None
    return keys, cells


def _fields(b: np.ndarray, n_keys: int, width: int):
    """The fields of ``b``, whole lines that each end in ``\\n``, and their
    digits: field ``(i, j)`` is ``b[starts[i, j]:stops[i, j]]``, ``plain``
    says the kernel reads it, and ``places`` counts its digits after a
    point. Last, :func:`_digits`' words over ``b`` with each cell's integer
    digits moved one place over its point and a ``0`` in their place, so
    that every plain field's digits end where it does.

    A field is plain if its only bytes that are not digits are a leading
    ``-`` and, in a cell with a digit, one ``.``. None unless each line holds
    ``width`` fields and each ``\\r`` ends a line, so that ``csv`` splits
    the lines as the kernel does.
    """
    other = np.flatnonzero(b - np.uint8(ord("0")) > 9)  # every byte but the digits
    v = b[other]
    sep = np.flatnonzero((v == ord(",")) | (v == ord("\n")))
    newline = v[sep] == ord("\n")
    n = len(sep) // width
    if (len(sep) != n * width or np.count_nonzero(newline) != n
            or not newline[width - 1::width].all()):
        return None
    stops = other[sep]  # each field's separator, then its end
    starts = np.concatenate([[0], stops[:-1] + 1])
    crlf = b[stops[width - 1::width] - 1] == ord("\r")  # b[-1] is a newline
    if np.count_nonzero(v == ord("\r")) != np.count_nonzero(crlf):
        return None  # a \r inside a line: csv starts a row there, float would strip it
    stops[width - 1::width] -= crlf
    last = sep - 1  # in other: each field's last byte that is not a digit, if any
    last[width - 1::width] -= crlf
    neg = b[starts] == ord("-")
    inside = last - neg - np.concatenate([[-1], sep[:-1]])  # those bytes, a leading - aside
    plain = inside == 0
    dot = np.flatnonzero((inside == 1) & (v[last] == ord(".")))
    dot = dot[dot % width >= n_keys]  # a key with a point is not plain
    point = other[last[dot]]
    del inside, last  # frees them before the piece's copy is made
    lead = point - starts[dot] - neg[dot]  # digits before each point
    places = np.zeros(n * width, dtype=np.intp)
    places[dot] = stops[dot] - point - 1
    plain[dot] = lead + places[dot] > 0  # not a "." or "-." cell
    moved = np.empty(len(b) + 24, dtype=np.uint8)  # 24 zeros, then b with the points dropped
    moved[:24] = ord("0")
    moved[24:] = b
    to = point + 24
    # a run the kernel reads, point included, is at most 24: longer cells go to float
    for k in range(min(int(lead.max(initial=0)), 23)):
        dst = to[np.flatnonzero(lead > k)] - k
        moved[dst] = moved[dst - 1]
    moved[to - lead] = ord("0")
    words = np.ndarray((len(b) + 17,), dtype="<u8", buffer=moved, strides=(1,))
    return (starts.reshape(n, width), stops.reshape(n, width), plain.reshape(n, width),
            places.reshape(n, width), words)


def _digits(words: np.ndarray, stops: np.ndarray, run: np.ndarray):
    """The value ``m`` of the last ``run`` (at most 24) digit bytes before
    each of ``stops``, and the value of the first 8 of those 24 digits:
    ``m`` is exact where that is below 10, and wraps past 10**19."""
    longest = run.max(initial=0)
    first = 2 - int(longest > 8) - int(longest > 16)  # the words no run reaches are 0
    x = words[stops + _WORD_AT[first:]] & _RUN_MASKS[first:].take(np.minimum(run, 24), axis=1)
    for mul, shift, keep in _SWAR:
        x *= mul
        x >>= shift
        x &= keep
    m = x[0]
    for word in x[1:]:
        m = m * _TENS[8] + word
    return m, x[0] if first == 0 else 0


def _checked(m: np.ndarray, e: np.ndarray, places: np.ndarray):
    """``y = m / 10**places`` for each text of significant digits ``m``, at
    most 17, at decade ``e`` in [-4, 16], and whether ``y`` is
    ``float(text)``.

    ``y`` is taken if :func:`_significand`, the writer's exact rounding,
    gives back ``m``'s digits at ``e``, and otherwise the next double toward
    the text is tried once. The doubles there are more than one 17-digit
    step apart, so the one within half a step of the text is the one
    nearest it.
    """
    y = m.astype(float) / _POW10[places]
    want = (m * _TENS[16 - e - places]).astype(np.int64)
    got = _significand(y, e)[0]
    miss = np.flatnonzero(got != want)
    y[miss] = np.nextafter(y[miss], np.where(got[miss] < want[miss], np.inf, 0.0))
    hit = np.ones(len(y), dtype=bool)
    hit[miss] = _significand(y[miss], e[miss])[0] == want[miss]
    return y, hit


def line_of(path, i: int) -> int:
    """Line number of data row ``i`` of a table. Error paths only."""
    return _find_row(path, i)[0]


def _find_row(path, i: int) -> tuple[int, list[str]]:
    """Line number and fields of data row ``i`` of a table (blank lines are
    not rows). Error paths only: it reads the file again."""
    rows = ((lineno, row) for lineno, row in _csv_rows(path) if row)
    return next(islice(rows, i + 1, None))


def header_row(path) -> list[str] | None:
    """The first row of a table, or None for an empty file."""
    return next(_csv_rows(path), (1, None))[1]


def _csv_rows(path):
    """Each row ``csv.reader`` reads from the UTF-8 text at ``path`` with the
    number of the line it starts on, from 1 (a quoted field may span lines);
    a blank line is an empty row. A row the reader refuses (a field longer
    than ``csv.field_size_limit()``, or a NUL before Python 3.11) raises a
    TapkitError that names the line it starts on; a byte that is not UTF-8
    raises one that names its line."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        lineno = 1
        try:
            for row in reader:
                yield lineno, row
                lineno = reader.line_num + 1
        except csv.Error as exc:
            raise TapkitError(f"{path}: line {lineno}: {exc}") from None
        except UnicodeDecodeError:
            raise not_utf8(path) from None
