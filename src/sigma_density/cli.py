"""Command-line surface.

Every operation is exposed as a subcommand emitting a machine-readable
envelope: the command, the echoed parameters, the result payload, a flat
index of every interval value as a [lo, hi] pair, and provenance (tool
version, prime-table limit, tolerances): the limit is primes.DEFAULT_LIMIT,
or a walk's bound on its last prime where larger.  JSON is the default
format; floats serialize with shortest round-trip representation, which
is exact to the double.  TSV flattens the same numbers to key/value
lines, except for the census where it emits one range value per line.

Every flat column of numbers that a result holds is a numpy array, and
the arrays are the only values written a block at a time, byte for byte
as json writes their items: ints by ``int.__repr__``, anything else as
float64 by ``float.__repr__``.  A block whose runs of equal values are
RUN_LENGTH long or longer on average takes one repr a run
(``_run_text``): a 100000-step greedy walk's partial sums C, a step
function, and its exponents take 4-7 ns a value.  Any other block, and
every table, goes to ``_array_text``: orjson writes it in json's
indented layout, nested to the array's depth, with the shortest
round-trip digits (Ryu), and ``_repr_layout`` rewrites the three
layouts where orjson's differs from repr's (1e16, 1e-7, 0.0000123).
At ``census --bound 1000000`` (k = 1..3) writing a value takes 39-60 ns
in JSON and 44-67 ns in TSV, a census's gap rows 224-355 ns, and the
D and E of three 100000-step walks 88-299 and 40-93 ns
(``BENCH_census_array_speed.json``; Python 3.11, numpy 2.4, orjson 3.8,
a shared 2-vCPU x86-64 host).  An envelope's TSV takes an array's texts
from the same writers (_array_pieces), a block of lines at a time.

Output is written as ASCII bytes a piece at a time as it is made, to
stdout or ``--out``, once every check that can refuse the request has
passed: a request holds about a block of JOIN_BLOCK values of its
output, and a refused one writes nothing.

Exit codes: 0 success, 1 domain/precision error or an unwritable
``--out`` or stdout, 2 verification-suite failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
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
    """An argument parser whose usage errors exit with EXIT_USAGE, and
    whose help goes to stdout through :func:`_write`, as every output
    does, so that a closed or full stdout exits as a command's does."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)

    def _print_message(self, message, file=None):
        if file is not None and file is not sys.stdout:
            super()._print_message(message, file)
        elif message:
            _write([message.encode()], argparse.Namespace(out=None))


def finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


# Values of a flat list joined into one piece of the output, and lines of
# an envelope's TSV.  Each piece is written as it is made, so a request
# holds one piece's text and the arrays that make it, 2.8-3.5 MB at 8192
# values under tracemalloc, whatever the length of its output.  With
# _array_text, blocks of 4096, 8192 and 16384 values cost the same a
# value within the host's noise, on census values and a walk's C, D and
# E (BENCH_orjson_writer.json).
JOIN_BLOCK = 8192
# Least mean length of the runs of equal values of a block that _run_text
# writes: a run costs it 0.3 us as ints and 0.75 us as floats of 17
# digits, and _array_text costs 20 and 66 ns a value, so the two break
# even at runs 12-16 values long, on blocks of 512 to 8192 values
# (Python 3.11, numpy 2.4, orjson 3.8, one process on a 2-core x86-64
# host).
RUN_LENGTH = 16


def _array_pieces(array, depth=None):
    """The text of the 1-D or 2-D array ``array``, ints or float64, as an
    iterator of bytes pieces of at most JOIN_BLOCK values that each start
    a row, made as they are taken: json.dumps(indent=2)'s items of the
    array ``depth`` levels deep, or with no ``depth`` a 1-D array's values
    a line each; a piece after the first starts with the separator.  A
    float value that is not finite raises json's ValueError here, before
    any piece is made: the array's min or max is then NaN or infinite.

    1-D blocks go to _run_text first, and to _array_text if that
    declines; rows go to _array_text."""
    if array.dtype.kind == "f" and array.size:
        if not (math.isfinite(array.min()) and math.isfinite(array.max())):
            raise ValueError("Out of range float values are not JSON compliant")
    separator = b"\n" if depth is None else b",\n" + b"  " * (depth + 1)
    step = JOIN_BLOCK if array.ndim == 1 else max(1, JOIN_BLOCK // array.shape[1])

    def pieces():
        for start in range(0, len(array), step):
            block = array[start : start + step]
            text = _run_text(block, separator) if array.ndim == 1 else None
            if text is None:
                text = _array_text(block, depth)
            yield separator + text if start else text

    return pieces()


def _run_text(values, separator):
    """``repr`` of every value of the flat array ``values`` with the bytes
    ``separator`` between them, each run of equal bit patterns (-0.0 and
    0.0 apart) written by one ``repr``; None when the runs are shorter than
    RUN_LENGTH on average, where _array_text pays better.  A greedy
    walk's exponents and partial sums C are such runs."""
    import numpy as np  # loaded: the array is numpy's

    bits = values.view(f"u{values.itemsize}")
    changes = bits[1:] != bits[:-1]
    if (np.count_nonzero(changes) + 1) * RUN_LENGTH > len(values):
        return None
    ends = [*(np.flatnonzero(changes) + 1).tolist(), len(values)]
    starts = [0, *ends[:-1]]
    texts = [repr(value).encode() for value in values[starts].tolist()]
    text = b"".join([(one + separator) * (end - start) for one, start, end in zip(texts, starts, ends)])
    return text[: len(text) - len(separator)]


def _array_text(block, depth=None):
    """_array_pieces' bytes of the 1-D or 2-D array ``block``, ints or
    finite floats: orjson's shortest round-trip digits (Ryu) in repr's
    layout (_repr_layout), and json's layout when nested in ``depth``
    single-item lists.  Lines take orjson's compact text, a byte replaced:
    2x as fast as replacing the indented text's separators."""
    import orjson  # as numpy, loaded only where an array is written

    # orjson refuses a view that is not C-contiguous and misreads a
    # byte-swapped array.
    block = block.astype(block.dtype.newbyteorder("="), order="C", copy=False)
    nested, option = block, orjson.OPT_SERIALIZE_NUMPY
    if depth is not None:
        option |= orjson.OPT_INDENT_2
        for _ in range(depth):
            nested = [nested]
    text = orjson.dumps(nested, option=option)
    if block.dtype.kind == "f":
        text = _repr_layout(block, text)
    if depth is None:
        return text[1:-1].replace(b",", b"\n")
    # Less the lines that open the block and the lists around it, with the
    # indent of its first item, and those that close them.
    return text[(depth + 1) * (depth + 4) : len(text) - (depth + 1) * (depth + 2)]


def _is_digit(chars):
    return (chars >= ord("0")) & (chars <= ord("9"))


def _repr_layout(block, text):
    """orjson's ``text`` of the float array ``block`` with the three changes
    that make it ``float.__repr__``'s: e16 -> e+16, e-7 -> e-07, and
    0.0000123 -> 1.23e-05, for the values in [1e-5, 1e-4), which repr
    writes with an exponent and orjson without.  Text already in repr's
    layout is left as it is."""
    import numpy as np

    size = np.abs(block)
    fifth = ((size >= 1e-5) & (size < 1e-4)).any()
    if not fifth and b"e" not in text:
        return text
    # Padding, so that each look below past a point stays in the array.
    chars = np.frombuffer(text + bytes(24), np.uint8).copy()
    e = np.flatnonzero(chars == ord("e"))
    minus = e[chars[e + 1] == ord("-")]
    # Bytes to put in, each before the byte at ``at``: a sign before the
    # digits of a positive exponent, a 0 before the digit of a negative one.
    at = [e[_is_digit(chars[e + 1])] + 1, minus[~_is_digit(chars[minus + 3])] + 2]
    put = [np.full(len(at[0]), ord("+")), np.full(len(at[1]), ord("0"))]
    drop = []
    if fifth:
        # At each "0.0000" that starts a value, the first digit after it
        # moves left of the point, "0.000" goes (and the point, when no
        # digit follows it) and "e-05" goes in before the value's end.
        point = np.flatnonzero((chars[1:] == ord(".")) & (chars[:-1] == ord("0"))) + 1
        point = point[~_is_digit(chars[point - 2])]
        for i in range(1, 5):
            point = point[chars[point + i] == ord("0")]
        chars[point + 4] = chars[point + 5]
        chars[point + 5] = ord(".")
        end = point + 6 + np.argmin(_is_digit(chars[point[:, None] + np.arange(6, 24)]), axis=1)
        drop = np.concatenate([(point[:, None] + np.arange(-1, 4)).ravel(), point[end == point + 6] + 5])
        drop.sort()
        at.append(np.repeat(end, 4))
        put.append(np.tile(np.frombuffer(b"e-05", np.uint8), len(end)))
    at = np.concatenate(at)
    kept = np.delete(chars[: len(text)], drop)
    return np.insert(kept, at - np.searchsorted(drop, at), np.concatenate(put)).tobytes()


def _convert(obj, path, brackets):
    """Recursively turn results into JSON-ready values, indexing brackets.
    An int array is kept as it is and any other array becomes float64, an
    array that _json_pieces and _tsv_pieces write by _array_pieces."""
    if isinstance(obj, Bracket):
        brackets[path] = [obj.lo, obj.hi]
        return [obj.lo, obj.hi]
    if isinstance(obj, (list, tuple)):
        return [_convert(v, f"{path}[{i}]", brackets) for i, v in enumerate(obj)]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _convert(getattr(obj, f.name), f"{path}.{f.name}" if path else f.name, brackets)
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): _convert(v, f"{path}.{k}" if path else str(k), brackets) for k, v in obj.items()}
    # No array exists unless some code has imported numpy, so it is not
    # imported here.
    np = sys.modules.get("numpy")
    if np is not None and isinstance(obj, np.ndarray):
        return obj if obj.dtype.kind in "iu" else obj.astype(np.float64, copy=False)
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


def _tsv_pieces(obj, prefix=""):
    """The TSV of ``obj`` as bytes, a line of key, tab and value a value: a
    piece per scalar line, and a piece per block of an array's
    _array_pieces, which writes its values' texts as the JSON writer does.
    An array is keyed as a flat list, a table's cells too: no command
    writes a table in TSV, since the census writes its values only."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _tsv_pieces(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _tsv_pieces(v, f"{prefix}[{i}]")
    elif (np := sys.modules.get("numpy")) is not None and isinstance(obj, np.ndarray):
        start = 0
        for piece in _array_pieces(obj.reshape(-1)):
            # A piece after the first starts with its separator; text lines cost 0.7x bytes' %.
            texts = piece.decode().removeprefix("\n").split("\n")
            yield "".join([f"{prefix}[{i}]\t{text}\n" for i, text in enumerate(texts, start)]).encode()
            start += len(texts)
    else:
        yield f"{prefix}\t{obj}\n".encode()


def _json_pieces(envelope):
    """``json.dumps(envelope, indent=2, allow_nan=False) + "\\n"`` as an
    iterator of ASCII bytes, with each array written by _array_pieces at
    the depth json would give it.  Every error json.dumps would raise is
    raised by this call, before any piece is taken: the skeleton (the
    envelope less its arrays) is dumped, and each array's _array_pieces
    checks its values, here.

    json.dumps writes an array as a placeholder string: a NUL character,
    which no other string of an envelope holds, and its index."""
    np = sys.modules.get("numpy")
    arrays = []

    def placeholder(obj):
        if np is None or not isinstance(obj, np.ndarray):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        arrays.append(obj)
        return f"\0{len(arrays) - 1}"

    text = json.dumps(envelope, indent=2, allow_nan=False, default=placeholder).encode()
    parts = []
    start = 0
    for i, array in enumerate(arrays):
        token = b'"\\u0000%d"' % i
        at = text.index(token, start)
        parts.append([text[start:at]])
        start = at + len(token)
        if not array.size:
            parts.append([b"[]"])
            continue
        line = text[text.rindex(b"\n", 0, at) + 1 : at]
        depth = (len(line) - len(line.lstrip(b" "))) // 2
        outer = b"\n" + b"  " * depth
        parts += [[b"[" + outer + b"  "], _array_pieces(array, depth), [outer + b"]"]]
    parts.append([text[start:] + b"\n"])
    return itertools.chain.from_iterable(parts)


def _check_out(path):
    """Raise the error that writing ``path`` would give, before any work:
    its directory must exist and be writable, and ``path`` must be neither
    a directory nor an existing file that cannot be written.  Nothing is
    created or truncated here, and _write opens ``path`` only once every
    other check that can refuse the request has passed (json's errors
    too: _json_pieces raises them before its first piece), so a refused
    request leaves an existing file as it was.  The output is streamed,
    so a failure while it is written, such as an interrupt or running out
    of memory, leaves the file truncated or partly written."""
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
    """Write the ASCII bytes of the iterable ``pieces`` to ``--out`` when
    given, else to stdout's binary layer, each as it is taken: no more
    than a piece of the output is held at once.  A stdout with no binary
    layer, such as an io.StringIO, takes each piece as text.

    Each piece is written until the layer has taken it all, which a
    buffered layer does at once and an unbuffered one, the raw file
    (``python -u``), may not; the layer is flushed after the last piece.
    A stdout that fails is pointed at devnull, so that the exit flush
    cannot fail again; a closed pipe raises BrokenPipeError, and any other
    failure, or a ``--out`` that cannot be written, is an error."""
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.writelines(pieces)
        except OSError as exc:
            raise SigmaDensityError(f"cannot write {args.out}: {exc.strerror}") from None
        return
    if sys.stdout is None:  # started with no file descriptor 1
        raise SigmaDensityError(f"cannot write stdout: {os.strerror(errno.EBADF)}")
    binary = getattr(sys.stdout, "buffer", None)
    if binary is None:
        sys.stdout.writelines(piece.decode() for piece in pieces)
        return
    try:
        sys.stdout.flush()
        for piece in pieces:
            data = memoryview(piece)
            while data:
                data = data[binary.write(data) :]
        binary.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            raise
        raise SigmaDensityError(f"cannot write stdout: {exc.strerror}") from None


def _emit(envelope, args):
    _write(_json_pieces(envelope) if args.format == "json" else _tsv_pieces(envelope), args)


@functools.cache
def build_parser() -> Parser:
    """The argument parser, built once per process: nothing mutates it
    after it is built, and each parse fills a fresh namespace."""
    parser = Parser(prog="sigma-density", description=__doc__.splitlines()[0])
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
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
    p.add_argument("--suite", choices=(*SUITES, "all"), required=True)
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


# The verify suites, in the order ``--suite`` lists them and ``--suite all``
# runs them.
SUITES = {
    "gap-lemma": _suite_gap_lemma,
    "inequalities": lambda table: _suite_cover("inequalities", density.check_inequalities()),
    "monotonicity": lambda table: _suite_cover("monotonicity", density.check_monotonicity(table)),
    "selector": lambda table: _suite_cover("selector", density.check_selector(table)),
}


def _run_verify(args, table):
    suites = [SUITES[name](table) for name in (SUITES if args.suite == "all" else [args.suite])]
    for suite in suites:
        status = "PASS" if suite["passed"] else "FAIL"
        print(f"{status} {suite['suite']} (margin {suite['margin']:.6g})", file=sys.stderr)
    return {"suites": suites}, all(s["passed"] for s in suites)


def main(argv=None) -> int:
    try:
        return _main(build_parser().parse_args(argv))
    except BrokenPipeError:
        # The reader closed stdout (``| head``); _write pointed it at devnull.
        return EXIT_ERROR
    except SigmaDensityError as exc:  # --help to a stdout that failed
        print(f"sigma-density: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def _main(args) -> int:
    # The subcommand's options, in the order they are declared.
    parameters = {
        name: value
        for name, value in vars(args).items()
        if name not in ("format", "out", "command")
    }
    tolerances = {"eps": args.eps} if "eps" in parameters else {}
    code = EXIT_OK
    try:
        if args.out:
            _check_out(args.out)
        limit = primes.DEFAULT_LIMIT
        if args.command == "approximate":
            # No walk the capacity admits takes more steps than the clamp
            # (k >= 1), and a longer one fails that check, not the sieve's.
            steps = min(args.steps, explorer.GREEDY_MAX_ENTRIES // 2)
            limit = max(limit, math.ceil(primes.nth_prime_bound(steps)))
        table = primes.load_or_sieve(limit)
        if args.command == "eta":
            result = solver.eta(table, args.k, args.eps)
        elif args.command == "eta-limit":
            result = solver.eta_limit(table, args.eps)
        elif args.command == "thresholds":
            result = {
                "thresholds": {m: solver.r_threshold(table, args.k, m, args.eps) for m in density.LEVELS},
                "m_min": solver.m_selector(args.k),
            }
        elif args.command == "table":
            result = solver.eta_table(table, args.kmax, args.eps)
        elif args.command == "density":
            result = density.density_report(table, args.k, args.r)
        elif args.command == "approximate":
            result = explorer.greedy_approximate(table, args.k, args.r, args.x, args.steps)
        elif args.command == "census":
            if args.format == "tsv":
                values = explorer.census_values(table, args.k, args.r, args.bound, args.resolution)[2]
                _write(itertools.chain(_array_pieces(values), [b"\n"]), args)
                return EXIT_OK
            result = explorer.range_census(table, args.k, args.r, args.bound, args.resolution)
            parameters["resolution"] = result.resolution
        else:  # verify
            result, passed = _run_verify(args, table)
            code = EXIT_OK if passed else EXIT_VERIFY_FAILED
        _emit(_envelope(args.command, parameters, result, table.limit, tolerances), args)
    except SigmaDensityError as exc:
        print(f"sigma-density: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
