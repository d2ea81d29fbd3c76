"""Slow, obviously correct references that the tests check the library against."""

from fractions import Fraction

import numpy as np

from whlab import LatticeDist, TruncatedData, convolve, delta
from whlab.errors import DomainError


def convolve_exact(a: LatticeDist, b: LatticeDist) -> tuple[int, list[Fraction]]:
    """Exact-rational direct convolution.

    Float weights are taken at their exact binary values. Returns the
    untrimmed (offset, coefficient) pair.
    """
    if a.is_zero or b.is_zero:
        return (0, [])
    fa = [Fraction(float(x)) for x in a.weights]
    fb = [Fraction(float(x)) for x in b.weights]
    out = [Fraction(0)] * (len(fa) + len(fb) - 1)
    for i, x in enumerate(fa):
        if x == 0:
            continue
        for j, y in enumerate(fb):
            out[i + j] += x * y
    return (a.offset + b.offset, out)


def convolution_power(mu: LatticeDist, n: int) -> LatticeDist:
    """n-fold convolution power by binary exponentiation; n = 0 gives delta_0."""
    if n < 0:
        raise DomainError("convolution power needs n >= 0")
    result = delta(0)
    base = mu
    k = n
    while k:
        if k & 1:
            result = convolve(result, base)
        k >>= 1
        if k:
            base = convolve(base, base)
    return result


def cross_correlation_direct(mu: LatticeDist, n: int) -> float:
    """sum_{k <= 0} mu(n - k) mu(k), computed by direct summation.

    The reference for the half-line identity that
    ``reconstruct.correlation_lhs_from_data`` evaluates from r1 and r2.
    """
    if n < 1:
        raise DomainError("cross-correlation is defined for n >= 1")
    if mu.is_zero:
        return 0.0
    lo = max(mu.min_index, n - mu.max_index)
    hi = min(0, mu.max_index, n - mu.min_index)
    if lo > hi:
        return 0.0
    k = np.arange(lo, hi + 1)
    return float(np.dot(mu.weights[k - mu.offset], mu.weights[(n - k) - mu.offset]))


def data_from_powers(powers) -> TruncatedData:
    """Half-line data whose table row n-1 holds powers[n-1] on 0..W-1, W one
    past the highest index of any power (at least 1)."""
    width = max([1] + [r.max_index + 1 for r in powers if not r.is_zero])
    table = np.zeros((len(powers), width))
    for row, r in zip(table, powers):
        if not r.is_zero:
            row[r.min_index : r.max_index + 1] = r.weights
    return TruncatedData(len(powers), table)


def back_substitute(rhs, coef) -> np.ndarray:
    """x with rhs[i] = sum_{d>=0} coef[d] x[i + d], x zero past the end of rhs.

    The scalar loop that ``reconstruct._back_substitute`` must match bit
    for bit: one row at a time from the last, each subtracting its known
    terms in increasing d, then dividing by coef[0].
    """
    x = np.zeros(len(rhs))
    for i in range(len(rhs) - 1, -1, -1):
        acc = rhs[i]
        for d in range(1, min(len(coef), len(rhs) - i)):
            acc -= x[i + d] * coef[d]
        x[i] = acc / coef[0]
    return x


def splitmix64_finalizer(z: int) -> int:
    """splitmix64's output mix of a 64-bit integer, on Python ints: the
    three rounds that ``montecarlo._mix64`` runs on uint64 arrays."""
    mask = (1 << 64) - 1
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)
