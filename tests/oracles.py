"""Reference routes that the library replaced with faster ones giving the
same results bit for bit: each power of a prime took its own log, each
log local factor its own power, and the CLI wrote each float of its
output by its own ``float.__repr__``."""

import math

from mpmath import iv


def iv_pow(base, expo):
    """base**expo for interval base > 0 and arbitrary interval exponent."""
    return iv.exp(expo * iv.log(base))


def log_local_factor_iv(p: int, k: int, r_iv):
    """Interval enclosure of log(sum_{j=0}^k p^{-jr})."""
    x = iv_pow(iv.mpf(p), -r_iv)
    return iv.log((1 - x ** (k + 1)) / (1 - x))


def repr_join(values, separator, row_separator=None, width=None):
    """``float.__repr__`` of each of ``values`` with ``separator`` between
    them, or ``row_separator`` after every ``width`` of them: the join
    json gives, which the CLI's float writer must match byte for byte."""
    values = [float(v) for v in values]
    if not all(map(math.isfinite, values)):
        raise ValueError("Out of range float values are not JSON compliant")
    texts = map(float.__repr__, values)
    if width is None:
        return separator.join(texts)
    return row_separator.join(map(separator.join, zip(*[texts] * width)))
