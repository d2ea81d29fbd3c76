"""Slow, obviously correct references that the tests check the library against."""

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate

import numpy as np

from whlab import UPWARD, LatticeDist, TruncatedData, convolve, delta
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
    """splitmix64's output mix of a 64-bit integer, on Python ints (Steele,
    Lea & Flood, "Fast splittable pseudorandom number generators", OOPSLA
    2014): the three rounds that ``montecarlo._mix64`` runs on uint64 arrays."""
    mask = (1 << 64) - 1
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


GOLD = 0x9E3779B97F4A7C15


def walk_by_walk(mu: LatticeDist, side: str, n_samples: int, max_steps: int, seed: int):
    """(counts, censored) of ``sample_ladder(mu, side, n_samples, max_steps,
    seed)``, one walk and one step at a time on Python ints.

    Walk i's key is F(seed + GOLD (i + 1)) and its step n's deviate is
    u = (F(key + GOLD n) >> 11) 2**-53, sums modulo 2**64, F the splitmix64
    finalizer; the step is the first atom whose cumulative weight exceeds
    u, with the last cumulative weight set to 1.0. counts maps each first
    crossing (epoch, height) to its number of walks.
    """
    mask = (1 << 64) - 1
    values = [int(k) for k in mu.indices()]
    cdf = list(accumulate(float(w) for w in mu.weights))
    cdf[-1] = 1.0
    counts = {}
    censored = 0
    for i in range(n_samples):
        key = splitmix64_finalizer((seed + GOLD * (i + 1)) & mask)
        position = 0
        for n in range(1, max_steps + 1):
            u = (splitmix64_finalizer((key + GOLD * n) & mask) >> 11) * 2.0**-53
            position += values[bisect_right(cdf, u)]
            if (position >= 0) if side == UPWARD else (position < 0):
                counts[n, position] = counts.get((n, position), 0) + 1
                break
        else:
            censored += 1
    return counts, censored
