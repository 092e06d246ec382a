"""Command-line surface.

Every operation is exposed as a subcommand emitting a machine-readable
envelope: the command, the echoed parameters, the result payload, a flat
index of every interval value as a [lo, hi] pair, and provenance (tool
version, prime-table limit, tolerances).  JSON is the default format;
floats serialize with shortest round-trip representation, which is exact
to the double.  TSV flattens the same numbers to key/value lines, except
for the census where it emits one range value per line.

Exit codes: 0 success, 1 domain/precision error, an unwritable ``--out``
or a closed output pipe, 2 verification-suite failure, 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import io
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
# every value of a census is never held at once.
JOIN_BLOCK = 4096


class _Flat:
    """A flat list or array of floats or ints, written by ``rep``
    (``float.__repr__`` or ``int.__repr__``, as json writes them)."""

    def __init__(self, items, rep):
        self.items = items
        self.rep = rep

    def join(self, separator):
        """The items' text with ``separator`` between them, as pieces of
        JOIN_BLOCK items."""
        pieces = []
        for start in range(0, len(self.items), JOIN_BLOCK):
            block = self.items[start : start + JOIN_BLOCK]
            if not isinstance(block, (list, tuple)):
                block = block.tolist()
            if self.rep is float.__repr__ and not all(map(math.isfinite, block)):
                raise ValueError("Out of range float values are not JSON compliant")
            pieces.append((separator if start else "") + separator.join(map(self.rep, block)))
        return pieces


def _flat(obj):
    """``obj`` as a _Flat when it is an array, or a list or tuple of only
    floats or only ints (bool is not an int here), else None."""
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
    return None


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
        for i, text in enumerate(map(obj.rep, obj.items)):
            yield f"{prefix}[{i}]", text
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
        pieces += ["[" + inner, *flat.join("," + inner), outer + "]"]
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
            result = solver.eta_limit(args.eps)
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
