"""Command-line surface.

Every operation is exposed as a subcommand emitting a machine-readable
envelope: the command, the echoed parameters, the result payload, a flat
index of every interval value as a [lo, hi] pair, and provenance (tool
version, prime-table limit, tolerances).  JSON is the default format;
floats serialize with shortest round-trip representation, which is exact
to the double.  TSV flattens the same numbers to key/value lines, except
for the census where it emits one range value per line.

Floats print byte for byte as ``float.__repr__`` writes them, but long
lists and arrays a block at a time through numpy (``_float_text``), which
covers [1e-20, 1e17).  At ``census --bound 1000000`` (k = 1..3) writing a
value takes 213-271 ns in TSV and 286-322 ns in JSON with the gap rows,
against about 1.1 us by ``float.__repr__``.  A 100000-step greedy walk's
values take 245-369 ns each in JSON (C, D and E) and its exponents 38-57
ns, against 143-151 ns by ``int.__repr__`` (``BENCH_walk_output.json``;
Python 3.11, numpy 2.4, a shared 2-vCPU x86-64 host).

Exit codes: 0 success, 1 domain/precision error, an unwritable ``--out``
or a closed output pipe, 2 verification-suite failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import io
import itertools
import json
import math
import os
import sys

from . import __version__, density, explorer, primes, solver
from .brackets import Bracket
from .errors import SigmaDensityError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERIFY_FAILED = 2
EXIT_USAGE = 64


class Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with EXIT_USAGE."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


# Values of a flat list joined into one piece of the output: a str for
# every value of a census is never held at once.  Against 4096, census
# values, C and D cost 18-28% less a value, since _float_text's cost per
# call falls on twice the values.  16384 saves up to 16% more on census
# values and C but not on D, and holds twice the text
# (BENCH_walk_output.json).
JOIN_BLOCK = 8192
# Fewest floats of a block that _float_text writes, when numpy is loaded:
# it costs about 0.2-0.3 ms a call whatever the block's length, and saves
# about 0.8 us a value over float.__repr__ on census values, 0.4 us on
# values across decades, so the two break even near 400 values (Python
# 3.11, numpy 2.4, one process on a 2-core x86-64 host).
FLOAT_TEXT_MIN = 512
# The text of the ints 0..255, such as a walk's exponents: a block of them
# is written by lookups, at under half the cost of int.__repr__.
_INT_TEXTS = {i: int.__repr__(i) for i in range(256)}


class _Flat:
    """A flat list or array of floats or ints, written by ``rep``
    (``float.__repr__`` or ``int.__repr__``, as json writes them).  With
    a ``width``, the items are the rows of a table, ``width`` at a time."""

    def __init__(self, items, rep, width=None):
        self.items = items
        self.rep = rep
        self.width = width

    def join(self, separator, row_separator=None):
        """The items' text with ``separator`` between them, or
        ``row_separator`` between rows, as pieces of at most JOIN_BLOCK
        items that each start a row.

        Float blocks of at least FLOAT_TEXT_MIN items go to _float_text
        when numpy is loaded."""
        width = self.width or 1
        if self.width is None:
            row_separator = separator
        step = max(1, JOIN_BLOCK // width) * width
        np = sys.modules.get("numpy")  # as in _flat
        pieces = []
        for start in range(0, len(self.items), step):
            block = self.items[start : start + step]
            text = None
            if self.rep is float.__repr__ and np is not None and len(block) >= FLOAT_TEXT_MIN:
                text = _float_text(np, np.asarray(block, dtype=np.float64), separator, row_separator, width)
            if text is None:
                if not isinstance(block, (list, tuple)):
                    block = block.tolist()
                if self.rep is float.__repr__ and not all(map(math.isfinite, block)):
                    raise ValueError("Out of range float values are not JSON compliant")
                texts = map(self.rep, block)
                if self.rep is int.__repr__:
                    try:
                        texts = list(map(_INT_TEXTS.__getitem__, block))
                    except KeyError:
                        pass
                if width > 1:
                    texts = map(separator.join, zip(*[texts] * width))
                text = row_separator.join(texts)
            pieces.append((row_separator if start else "") + text)
        return pieces


def _flat(obj):
    """``obj`` as a _Flat when it is an array, a list or tuple of only
    floats or only ints (bool is not an int here), or a nonempty list or
    tuple of equally long, nonempty lists or tuples of only floats; else
    None."""
    # No array exists unless some code has imported numpy, so it is not
    # imported here.
    np = sys.modules.get("numpy")
    if np is not None and isinstance(obj, np.ndarray):
        return _Flat(np.asarray(obj, dtype=np.float64), float.__repr__)
    if isinstance(obj, (list, tuple)) and obj:
        kinds = set(map(type, obj))
        if all(issubclass(kind, float) for kind in kinds):
            return _Flat(obj, float.__repr__)
        if kinds == {int}:
            return _Flat(obj, int.__repr__)
        if kinds <= {list, tuple} and len(set(map(len, obj))) == 1 and obj[0]:
            items = list(itertools.chain.from_iterable(obj))
            if all(issubclass(kind, float) for kind in set(map(type, items))):
                return _Flat(items, float.__repr__, len(obj[0]))
    return None


# Veltkamp's splitter 2**27 + 1: x * SPLIT - (x * SPLIT - x) is the upper
# half of the bits of x.
_SPLIT = 134217729.0
# Columns of a row of _float_text: the digits and the decimal point, then
# an exponent suffix such as "e-05", then the separator.  A repr that
# _float_text falls back to is at most _REPR characters long.
_DIGITS = 22
_SUFFIX = 4
_REPR = 24
# _float_text writes a value x in [10**d, 10**(d + 1)) for -20 <= d <= 16
# from y = x * 10**j, j = 16 - d; 5**j is one exact double up to j = _EXACT.
_DEEPEST = 36
_EXACT = 22
# Strict bounds on the error of r and of |i + r| - h in _float_text, for
# j > _EXACT.
_R_BOUND = 2.0**-53
_H_BOUND = 2.0**-48


@functools.cache
def _float_tables(np):
    """The constants of _float_text, built on its first call."""
    group = np.arange(10_000)
    chars = np.stack([group // 1000, group // 100 % 10, group // 10 % 10, group % 10], axis=1)
    # Four ASCII digits of each group 0000..9999 as one uint32.
    groups = np.ascontiguousarray(chars + ord("0"), dtype=np.uint8).view(np.uint32).ravel()
    trailing = np.select([group % 1000 == 0, group % 100 == 0, group % 10 == 0], [3, 2, 1], 0)
    trailing[0] = 4
    # 5**j = five_hi[j] + five_lo[j] exactly for j <= _DEEPEST, since
    # 5**36 < 2**84; five_lo is 0 up to j = _EXACT.  Each half comes with
    # its Veltkamp halves, for Dekker's product.
    fives = [5**j for j in range(_DEEPEST + 1)]
    five_hi = np.array([float(f) for f in fives])
    five_lo = np.array([float(f - int(float(f))) for f in fives])
    halves = []
    for half in (five_hi, five_lo):
        c = half * _SPLIT
        high = c - (c - half)
        halves.append((half, high, half - high))
    # decades[i] is the double nearest 10**(i - 20); a value at or above
    # the last one is out of range.
    decades = np.array([float(f"1e{d}") for d in range(-20, 18)])
    # left[d + 6, c]: column c of the text of a value in [10**d, 10**(d + 1))
    # holds a digit left of the point.
    left = np.arange(_DIGITS) <= 4 + np.arange(-6, 16)[:, None]
    return groups, trailing, halves, decades, left


@functools.cache
def _float_masks(np, separators):
    """Which columns of a _float_text row are text, as one row per key
    ((start * 25 + end) * 2 + exponent) * 3 + separator, where the digits
    are columns start..end - 1, exponent says whether the suffix is
    written, and separator is 0 or 1 for ``separators[0]`` or ``[1]`` and
    2 for none."""
    start, end, exponent, separator = (
        axis.reshape(-1, 1)
        for axis in np.meshgrid(np.arange(5), np.arange(25), np.arange(2), np.arange(3), indexing="ij")
    )
    col = np.arange(_DIGITS + _SUFFIX + max(separators))
    length = np.array([*separators, 0])[separator]
    return (
        ((col >= start) & (col < end))
        | ((col >= _DIGITS) & (col < _DIGITS + _SUFFIX) & (exponent == 1))
        | ((col >= _DIGITS + _SUFFIX) & (col < _DIGITS + _SUFFIX + length))
    )


def _dekker(x, x_high, x_low, y, y_high, y_low):
    """Dekker's exact product of two split doubles: x * y = p + e."""
    p = x * y
    return p, ((x_high * y_high - p) + x_high * y_low + x_low * y_high) + x_low * y_low


def _float_text(np, values, separator, row_separator, width):
    """``float.__repr__`` of every value of the float64 array ``values``,
    with ``separator`` between them and ``row_separator`` after every
    ``width``, joined: the text built an array at a time.  None when
    fewer than half the values are in the range below, where the array
    work would be spent for nothing.

    A value x in [10**d, 10**(d + 1)) with -20 <= d <= 16 is written
    from y = x * 10**j, j = 16 - d, which lies in [10**16, 10**17).
    Scaling x by 2**j is exact, and 5**j = P_hi + P_lo exactly with two
    doubles, P_lo = 0 for j <= 22.  Dekker's products give y as
    p + e + p' + e' exactly, from P_hi and P_lo, and TwoSum gives
    e + p' = s + t exactly.  So with N17 = p + rint(s), an integer since
    p >= 2**53 is, r = (s - rint(s)) + (t + e') is y - N17, exactly for
    j <= 22, where p' = e' = t = 0: then N17 is the nearest integer to y
    (p is even, so ties go to even) and r is exact.

    The n-digit candidate nearest x, for n = 16 and 15, is N17 rounded to
    a multiple of 10 or 100, ties to even; its distance from y is an
    integer i plus r.  It parses back to x when that distance is below
    h = ulp(x) / 2 * 10**j, or equal to it when x's mantissa is even:
    x's rounding interval is symmetric, since x is not a power of two.
    For j <= 22, h is an exact double and the double i + r compares with
    h as the exact sum does.  When the spacing g of y, a power of two, is
    at most 1, y and every integer are multiples of g, while
    h = 5**j * g / 2 is an odd multiple of g / 2 near which doubles lie
    at most g / 4 apart (5**j < 2**52): the sum never rounds onto h.
    When g > 1, y is an integer, r = 0 and the sum is i.

    For j > 22 (d <= -7), r and h carry rounding errors, bounded thus.
    p < 2**57, so |e| <= 8; |P_lo| <= 2**-53 P_hi, so |p'| < 16 and
    |e'| <= 2**-50; then |s| < 32 and |t| <= 2**-49.  s - rint(s) is
    exact, t + e' rounds by at most 2**-101 and the last sum, below 1, by
    2**-54: r is within _R_BOUND = 2**-53 of y - N17.  A row whose |r| is
    within _R_BOUND of 0 or 1/2 goes to ``float.__repr__``, so elsewhere
    N17 is the nearest integer and r has the sign of y - N17.  h is taken
    from P_hi alone, within h * 2**-53 of the true h, which is below 11.2
    (h <= y * 2**-53), and i + r below 16 in size rounds by at most
    2**-50: a row whose |i + r| is within _H_BOUND = 2**-48 of h goes to
    ``float.__repr__`` too, so elsewhere the comparison is exact.  No
    distance equals h here: a candidate N at a midpoint between doubles,
    N * 10**-j = (2M + 1) * 2**(E - 1), would be a multiple of
    (2M + 1) * 5**j >= 2**53 * 5**23 > 10**17.

    N17 parses back whenever it is the nearest integer, since h > 0.5.
    At 15 digits the interval holds at most one candidate.  So the
    shortest digits are the 15-digit ones with their trailing zeros
    stripped when they parse back, else the 16-digit ones when they do,
    else N17: the digits of the shortest round-trip repr (Gay's mode 0),
    which picks the nearest digits of that length.  No candidate rounds
    up to 10**(d + 1): that one parses back only to the double nearest
    10**(d + 1), which ``decades`` files under d + 1.

    Every other value goes through ``float.__repr__`` alone: negative
    values, -0.0, powers of two, values outside that range, any value
    whose y misses [10**16, 10**17) since its decade was misjudged, and
    the rows within the bounds above."""
    if not np.isfinite(values).all():
        raise ValueError("Out of range float values are not JSON compliant")
    groups, trailing, (five_hi, five_lo), decades, left = _float_tables(np)
    n = len(values)
    bits = values.view(np.uint64)
    zero = bits == 0
    d = np.searchsorted(decades, values, side="right") - 21
    exact = (d >= -20) & (d <= 16) & (bits & np.uint64(2**52 - 1) != 0)
    if 2 * np.count_nonzero(exact | zero) < n:
        return None
    x = np.where(exact, values, 1.5)  # any value in range, for the rest
    d[~exact] = 0
    j = 16 - d
    shift = j.astype(np.int32)  # np.ldexp is slow with int64 exponents
    scaled = np.ldexp(x, shift)
    c = scaled * _SPLIT
    high = c - (c - scaled)
    hi = [part[j] for part in five_hi]
    p, e = _dekker(scaled, high, scaled - high, *hi)
    deep = j > _EXACT
    any_deep = deep.any()
    s, tail = e, 0.0
    if any_deep:
        p_lo, e_lo = _dekker(scaled, high, scaled - high, *(part[j] for part in five_lo))
        # TwoSum: s + t = e + p_lo exactly; the tail is t + e_lo.
        s = e + p_lo
        v = s - e
        tail = ((e - (s - v)) + (p_lo - v)) + e_lo
    f = np.rint(s)
    n17 = p.astype(np.int64) + f.astype(np.int64)
    r = (s - f) + tail
    if any_deep:
        size = np.abs(r)
        exact &= ~(deep & ((size < _R_BOUND) | (size > 0.5 - _R_BOUND)))
    # y in [10**16, 10**17), now that N17 is its nearest integer.
    exact &= (n17 < 10**17) & ((n17 > 10**16) | ((n17 == 10**16) & (r >= 0)))
    x_bits = x.view(np.uint64)
    h = np.ldexp(hi[0], (x_bits >> np.uint64(52)).astype(np.int32) - 1076 + shift)
    even = (x_bits & np.uint64(1)) == 0

    def nearest(scale):
        """N17 rounded to a multiple of scale, over scale, and whether that
        parses back to x; a row too near the boundary to tell is no
        longer exact."""
        q, b = np.divmod(n17, scale)
        up = (b > scale // 2) | ((b == scale // 2) & ((r > 0) | ((r == 0) & (q & 1 == 1))))
        size = np.abs((b - scale * up) + r)
        if any_deep:
            exact[deep & (np.abs(size - h) < _H_BOUND)] = False
        return q + up, (size < h) | ((size == h) & even)

    n16, fits16 = nearest(10)
    n15, fits15 = nearest(100)
    v = np.where(fits15, n15 * 100, np.where(fits16, n16 * 10, n17))
    v[zero] = 0
    # The 17 digits of v, from four-digit groups, at columns 7..23 of
    # chars, with "0" at columns 0..6 and 24..27.
    words = np.empty((n, 7), np.uint32)
    words[:, 0] = words[:, 6] = groups[0]
    v, last = np.divmod(v, 10_000)
    words[:, 5] = groups[last]
    for k in (4, 3, 2):
        v, g = np.divmod(v, 10_000)
        words[:, k] = groups[g]
    words[:, 1] = groups[v]
    chars = words.view(np.uint8)
    digits = 17 - trailing[last]
    many = np.flatnonzero(last == 0)  # four or more trailing zeros
    digits[many] = 17 - np.argmax(chars[many, 23:6:-1] != ord("0"), axis=1)
    digits[zero] = 1
    # repr writes 1e-05 and 1e+16 with an exponent, 0.0001 and 1e+15 without.
    exponent = (d < -4) | (d > 15)
    point = np.where(exponent, 0, d)
    start = 4 + np.minimum(point, 0)
    end = np.where(exponent, 4 + digits + (digits > 1), np.maximum(4 + digits, 6 + d) + 1)
    encoded = (separator.encode(), row_separator.encode())
    out = np.empty((n, _DIGITS + _SUFFIX + max(map(len, encoded))), np.uint8)
    # Column c of the text holds column c + 3 of chars left of the point,
    # and column c + 2 right of it.
    text = out[:, :_DIGITS]
    if (point == point[0]).all():
        # Every point in one column, as in a block of one decade (every
        # census value is in [1, 10)): three slice copies.
        p = int(point[0])
        text[:, : 5 + p] = chars[:, 3 : 8 + p]
        text[:, 5 + p] = ord(".")
        text[:, 6 + p :] = chars[:, 8 + p : 24]
    else:
        text[...] = chars[:, 2:24]
        np.copyto(text, chars[:, 3:25], where=left[point + 6])
        text[np.arange(n), 5 + point] = ord(".")
    if exponent.any():
        out[:, _DIGITS] = ord("e")
        out[:, _DIGITS + 1] = np.where(d < 0, ord("-"), ord("+"))
        out[:, _DIGITS + 2] = ord("0") + abs(d) // 10
        out[:, _DIGITS + 3] = ord("0") + abs(d) % 10
    kind = np.zeros(n, np.intp)
    kind[width - 1 :: width] = 1
    kind[-1] = 2
    for rows, sep in zip((out, out[width - 1 :: width]), encoded):
        rows[:, _DIGITS + _SUFFIX : _DIGITS + _SUFFIX + len(sep)] = np.frombuffer(sep, np.uint8)
    rest = np.flatnonzero(~(exact | zero))
    if len(rest):
        reprs = list(map(float.__repr__, values[rest].tolist()))
        out[rest, :_REPR] = np.array(reprs, dtype=f"S{_REPR}").view(np.uint8).reshape(-1, _REPR)
        start[rest] = 0
        end[rest] = list(map(len, reprs))
        exponent[rest] = False
    mask = _float_masks(np, tuple(map(len, encoded)))[((start * 25 + end) * 2 + exponent) * 3 + kind]
    return out[mask].tobytes().decode("ascii")


def _convert(obj, path, brackets):
    """Recursively turn results into JSON-ready values, indexing brackets.
    Flat lists of numbers become _Flat, which _json_pieces writes."""
    if isinstance(obj, Bracket):
        brackets[path] = [obj.lo, obj.hi]
        return [obj.lo, obj.hi]
    flat = _flat(obj)
    if flat is not None:
        return flat
    if isinstance(obj, (list, tuple)):
        return [_convert(v, f"{path}[{i}]", brackets) for i, v in enumerate(obj)]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _convert(getattr(obj, f.name), f"{path}.{f.name}" if path else f.name, brackets)
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): _convert(v, f"{path}.{k}" if path else str(k), brackets) for k, v in obj.items()}
    np = sys.modules.get("numpy")  # as in _flat
    if np is not None and isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    return obj


def _envelope(command, parameters, result, prime_limit, tolerances):
    brackets = {}
    payload = _convert(result, "", brackets)
    return {
        "command": command,
        "parameters": parameters,
        "result": payload,
        "brackets": brackets,
        "provenance": {
            "version": __version__,
            "prime_limit": prime_limit,
            "tolerances": tolerances,
        },
    }


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}[{i}]")
    elif isinstance(obj, _Flat):
        items = obj.items if isinstance(obj.items, (list, tuple)) else obj.items.tolist()
        for i, text in enumerate(map(obj.rep, items)):
            if obj.width is None:
                yield f"{prefix}[{i}]", text
            else:
                yield f"{prefix}[{i // obj.width}][{i % obj.width}]", text
    else:
        yield prefix, obj


def _json_pieces(envelope):
    """``json.dumps(envelope, indent=2, allow_nan=False) + "\\n"`` as a list
    of strings, with each _Flat written by its blocked join at the
    indentation json would give it.

    json.dumps writes a _Flat as a placeholder string: a NUL character,
    which no other string of an envelope holds, and its index."""
    flats = []

    def placeholder(obj):
        if not isinstance(obj, _Flat):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        flats.append(obj)
        return f"\0{len(flats) - 1}"

    text = json.dumps(envelope, indent=2, allow_nan=False, default=placeholder)
    pieces = []
    start = 0
    for i, flat in enumerate(flats):
        token = f'"\\u0000{i}"'
        at = text.index(token, start)
        pieces.append(text[start:at])
        start = at + len(token)
        if not len(flat.items):
            pieces.append("[]")
            continue
        line = text[text.rindex("\n", 0, at) + 1 : at]
        outer = "\n" + " " * (len(line) - len(line.lstrip(" ")))
        inner = outer + "  "
        if flat.width is None:
            pieces += ["[" + inner, *flat.join("," + inner), outer + "]"]
        else:
            cell = inner + "  "
            rows = flat.join("," + cell, inner + "]," + inner + "[" + cell)
            pieces += ["[" + inner + "[" + cell, *rows, inner + "]" + outer + "]"]
    pieces.append(text[start:] + "\n")
    return pieces


def _check_out(path):
    """Raise the error that writing ``path`` would give, before any work:
    its directory must exist and be writable, and ``path`` must be neither
    a directory nor an existing file that cannot be written.  Nothing is
    created or truncated, so a request that then fails leaves an existing
    file as it was."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(directory):
        code = errno.ENOTDIR if os.path.exists(directory) else errno.ENOENT
    elif not os.access(path if os.path.exists(path) else directory, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise SigmaDensityError(f"cannot write {path}: {os.strerror(code)}")


def _write(pieces, args):
    """Write the strings ``pieces`` to ``--out`` when given, else to stdout.

    An unbuffered stdout (``python -u``) writes through to the raw file,
    and its text layer drops whatever a short write leaves, so there each
    piece is written as bytes until the raw file has taken all of it, or
    a closed pipe raises.  A ``--out`` that cannot be written is an error."""
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise SigmaDensityError(f"cannot write {args.out}: {exc.strerror}") from None
        return
    raw = getattr(sys.stdout, "buffer", None)
    if not isinstance(raw, io.RawIOBase):
        sys.stdout.writelines(pieces)
        return
    sys.stdout.flush()
    for piece in pieces:
        data = memoryview(piece.encode(sys.stdout.encoding, sys.stdout.errors))
        while data:
            data = data[raw.write(data) :]


def _emit(envelope, args):
    if args.format == "json":
        _write(_json_pieces(envelope), args)
    else:
        _write(["".join(f"{key}\t{value}\n" for key, value in _flatten(envelope))], args)


@functools.cache
def build_parser() -> Parser:
    """The argument parser, built once per process: nothing mutates it
    after it is built, and each parse fills a fresh namespace."""
    parser = Parser(prog="sigma-density", description=__doc__.splitlines()[0])
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
    parser.add_argument("--prime-limit", type=int, default=primes.DEFAULT_LIMIT)
    parser.add_argument("--out", default=None, help="write output to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eta", help="density threshold for a given k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=finite_float, default=solver.DEFAULT_EPS)

    p = sub.add_parser("eta-limit", help="the k -> infinity threshold")
    p.add_argument("--eps", type=finite_float, default=solver.LIMIT_EPS)

    p = sub.add_parser("thresholds", help="per-m thresholds and the selector for k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=finite_float, default=solver.DEFAULT_EPS)

    p = sub.add_parser("table", help="thresholds and constants for k = 1..kmax")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--eps", type=finite_float, default=solver.DEFAULT_EPS)

    p = sub.add_parser("density", help="density verdict for (k, r)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=finite_float, required=True)

    p = sub.add_parser("approximate", help="greedy approximation of a log-range target")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=finite_float, required=True)
    p.add_argument("--x", type=finite_float, required=True)
    p.add_argument("--steps", type=int, required=True)

    p = sub.add_parser("census", help="empirical range census up to a bound")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=finite_float, required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--resolution", type=finite_float, default=None)

    p = sub.add_parser("verify", help="verification suites")
    p.add_argument(
        "--suite",
        choices=("gap-lemma", "inequalities", "monotonicity", "all"),
        required=True,
    )
    return parser


def _suite_gap_lemma(table):
    report = primes.verify_gap_lemma(table)
    return {
        "suite": "gap-lemma",
        "passed": report.passed,
        "report": report,
        "margin": 2**0.5 - report.max_ratio,
    }


def _suite_cover(name, report):
    return {
        "suite": name,
        "passed": report.all_passed,
        "report": report,
        "margin": min(c.min_slack for c in report.checks),
    }


def _run_verify(args, table):
    suites = []
    if args.suite in ("gap-lemma", "all"):
        suites.append(_suite_gap_lemma(table))
    if args.suite in ("inequalities", "all"):
        suites.append(_suite_cover("inequalities", density.check_inequalities()))
    if args.suite in ("monotonicity", "all"):
        suites.append(_suite_cover("monotonicity", density.check_monotonicity(table)))
    for suite in suites:
        status = "PASS" if suite["passed"] else "FAIL"
        print(f"{status} {suite['suite']} (margin {suite['margin']:.6g})", file=sys.stderr)
    return suites, all(s["passed"] for s in suites)


def main(argv=None) -> int:
    try:
        return _main(build_parser().parse_args(argv))
    except BrokenPipeError:
        # The reader closed stdout (``| head``).  Point stdout at devnull,
        # so that the interpreter's flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR


def _main(args) -> int:
    tolerances = {}
    try:
        if args.out:
            _check_out(args.out)
        table = primes.load_or_sieve(args.prime_limit)
        if args.command == "eta":
            tolerances["eps"] = args.eps
            result = solver.eta(table, args.k, args.eps)
            params = {"k": args.k, "eps": args.eps}
        elif args.command == "eta-limit":
            tolerances["eps"] = args.eps
            result = solver.eta_limit(table, args.eps)
            params = {"eps": args.eps}
        elif args.command == "thresholds":
            tolerances["eps"] = args.eps
            thresholds = {m: solver.r_threshold(table, args.k, m, args.eps) for m in (1, 2, 4)}
            result = {
                "thresholds": thresholds,
                "m_min": solver.select_m(table, args.k, thresholds, args.eps),
            }
            params = {"k": args.k, "eps": args.eps}
        elif args.command == "table":
            tolerances["eps"] = args.eps
            result = solver.eta_table(table, args.kmax, args.eps)
            params = {"kmax": args.kmax, "eps": args.eps}
        elif args.command == "density":
            result = density.density_report(table, args.k, args.r)
            params = {"k": args.k, "r": args.r}
        elif args.command == "approximate":
            result = explorer.greedy_approximate(table, args.k, args.r, args.x, args.steps)
            params = {"k": args.k, "r": args.r, "x": args.x, "steps": args.steps}
        elif args.command == "census":
            result = explorer.range_census(
                table, args.k, args.r, args.bound, args.resolution
            )
            params = {
                "k": args.k,
                "r": args.r,
                "bound": args.bound,
                "resolution": result.resolution,
            }
            if args.format == "tsv":
                _write([*_flat(result.values).join("\n"), "\n"], args)
                return EXIT_OK
        elif args.command == "verify":
            suites, ok = _run_verify(args, table)
            envelope = _envelope(
                args.command,
                {"suite": args.suite},
                {"suites": suites},
                table.limit,
                tolerances,
            )
            _emit(envelope, args)
            return EXIT_OK if ok else EXIT_VERIFY_FAILED
        else:  # pragma: no cover - argparse enforces the choices
            raise AssertionError(args.command)
        _emit(_envelope(args.command, params, result, table.limit, tolerances), args)
    except SigmaDensityError as exc:
        print(f"sigma-density: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
