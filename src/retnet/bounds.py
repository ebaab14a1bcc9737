"""Exact evaluation of the counting formulas and inequality bounds.

The lower bounds are one counting argument: 2^(t*e) * T(n+2r) / r! pairs of a
network and a displayed t-set (T the tree count, e = r rooted or n + 3r - 3
unrooted) must cover all C(T(n), t) t-sets.  Every comparison is exact or in
`mpmath.iv` (outward rounding); `formula_lower_bound`'s endpoints are the one
exception, rounded to nearest at 53 bits.  Exact integers are budgeted in bits.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import NamedTuple, Optional

from . import generate
from .errors import DomainError, TTooLarge
from .model import ROOTED, UNROOTED

_IV_PREC = 192  # bits; comfortably above the 128-bit requirement


class RealInterval(NamedTuple):
    """A certified enclosure [lo, hi] of a real number, endpoints rational."""

    lo: Fraction
    hi: Fraction

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def radius(self) -> Fraction:
        return (self.hi - self.lo) / 2

    def __float__(self) -> float:
        return float(self.midpoint)


class BoundReport(NamedTuple):
    name: str
    parameters: dict
    lhs: object = None
    rhs: object = None
    holds: bool = False


def _mpf_to_fraction(x) -> Fraction:
    import mpmath

    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    num = -man if sign else man
    if exp >= 0:
        return Fraction(num * (1 << exp))
    return Fraction(num, 1 << -exp)


def _iv_to_interval(x) -> RealInterval:
    return RealInterval(_mpf_to_fraction(x.a), _mpf_to_fraction(x.b))


# ---------------------------------------------------------------------------
# elementary exact counts


def double_factorial(k: int) -> int:
    """k(k-2)(k-4)...; 1 for k <= 0 so formulas degrade gracefully at tiny n, r."""
    if k <= 0:
        return 1
    return math.prod(range(k, 1, -2))


def _tree_arg(n: int, mode: str) -> int:
    """k with T(n) = k!!: 2n - 3 rooted, 2n - 5 unrooted."""
    return 2 * n - (3 if mode == ROOTED else 5)


def _exponent(n: int, r: int, mode: str) -> int:
    """e with at most 2^e displayed trees per network: r rooted, n + 3r - 3 unrooted."""
    return r if mode == ROOTED else n + 3 * r - 3


def _tree_bits(n: int, mode: str) -> int:
    """An upper estimate of lg T(n): k!! has (k + 1) // 2 factors below 2^bit_length(k)."""
    k = _tree_arg(n, mode)
    return max(k + 1, 0) // 2 * k.bit_length()


def _relaxed_bits(n: int, r: int) -> int:
    return n * n.bit_length() + r * r.bit_length() + 2 * n + 6 * r


def _check_bits(bits: int) -> None:
    """Refuse exact integers of more than RETNET_BUDGET bits before any is built."""
    generate.check_budget((bits,), f"exact integers of about {bits} bits")


def tree_count(n: int, mode: str = ROOTED) -> int:
    """T(n): (2n-3)!! rooted / (2n-5)!! unrooted trees on leaf set [n]."""
    if n < 1:
        raise ValueError("n must be at least 1")
    _check_bits(_tree_bits(n, mode))
    return double_factorial(_tree_arg(n, mode))


def tree_set_count(n: int, t: int, mode: str = ROOTED) -> int:
    """Exact number of t-element sets of trees on [n]."""
    if t < 1:
        raise ValueError("t must be at least 1")
    _check_bits(t * _tree_bits(n, mode))
    m = tree_count(n, mode)
    if t > m:
        raise TTooLarge(f"t = {t} exceeds the {m} trees on {n} leaves")
    return math.comb(m, t)


def tree_set_count_bounds(n: int, t: int, mode: str = ROOTED) -> BoundReport:
    """The count together with its two closed-form lower bounds, as exact rationals.

    Chain: C(m, t) >= (m/t)^t > (base/2)^(t*base') / t^t with base n
    (rooted, n >= 5) or n-1 (unrooted, n >= 6).
    """
    _check_bits(3 * t * _tree_bits(n, mode))  # the count and its two bounds
    count = tree_set_count(n, t, mode)
    m = tree_count(n, mode)
    lb1 = Fraction(m, t) ** t
    base = n if mode == ROOTED else n - 1
    lb2 = Fraction(base, 2) ** (t * base) / Fraction(t) ** t
    floor = 5 if mode == ROOTED else 6
    holds = count >= lb1 and (n < floor or lb1 > lb2)
    return BoundReport("tree-set-count-chain", {"n": n, "t": t, "mode": mode},
                       lhs=count, rhs=(lb1, lb2), holds=holds)


class NetworkCountBound(NamedTuple):
    tight: Fraction          # T(n + 2r) / r!
    relaxed: Optional[int]   # None where the factorial form is undefined


_RELAXED_FROM = {ROOTED: 1, UNROOTED: 2}  # k, the least r of the relaxed form


def _relaxed(n: int, r: int, mode: str) -> Optional[int]:
    """n! (r-k)! 2^(2n+6r-3k), or None for r < k."""
    k = _RELAXED_FROM[mode]
    return math.factorial(n) * math.factorial(r - k) << 2 * n + 6 * r - 3 * k if r >= k else None


def network_count_bound(n: int, r: int, mode: str = ROOTED) -> NetworkCountBound:
    """Both upper bounds on the number of network classes with n leaves, r reticulations."""
    if n < 1 or r < 0:
        raise DomainError("need n >= 1 and r >= 0")
    _check_bits(_tree_bits(n + 2 * r, mode) + _relaxed_bits(n, r))
    return NetworkCountBound(Fraction(tree_count(n + 2 * r, mode), math.factorial(r)),
                             _relaxed(n, r, mode))


def pair_count_bound(n: int, t: int, r: int, mode: str = ROOTED) -> int:
    """Upper bound 2^(t*e) times the relaxed network count on pairs (network, displayed t-set)."""
    if n < 1 or t < 1:
        raise DomainError("need n >= 1 and t >= 1")
    if r < _RELAXED_FROM[mode]:
        raise DomainError(f"{mode} pair bound needs r >= {_RELAXED_FROM[mode]}")
    _check_bits(t * _exponent(n, r, mode) + _relaxed_bits(n, r))
    return _relaxed(n, r, mode) << t * _exponent(n, r, mode)


# ---------------------------------------------------------------------------
# certified log-scale arithmetic for huge parameters

_EXACT_BITS = 4096  # exact integers up to about this size are cheaper than loading mpmath


def _iv():
    # imported on first use: `import retnet` and the commands that evaluate
    # no interval bound never load mpmath
    import mpmath

    mpmath.iv.prec = _IV_PREC
    return mpmath.iv


def _lg_factorial(m: int):
    """An `mpmath.iv` enclosure of lg m!, by Robbins' bounds for m >= 2:
    ln m! in [S + 1/(12m+1), S + 1/(12m)], S = ln(2 pi m)/2 + m ln m - m."""
    iv = _iv()
    if m < 2:
        return iv.mpf(0)
    mm = iv.mpf(m)
    s = iv.log(2 * iv.pi * mm) / 2 + mm * iv.log(mm) - mm
    return (s + 1 / (12 * mm + iv.mpf([0, 1]))) / iv.log(2)


def _lg_double_factorial(k: int):
    """An `mpmath.iv` enclosure of lg k!! for odd k = 2m - 1: lg (2m)! - m - lg m!."""
    m = (k + 1) // 2
    return _lg_factorial(2 * m) - m - _lg_factorial(m)


def _lg_binomial_of_df(df_arg: int, t: int):
    """An `mpmath.iv` enclosure of lg C(M, t) with M = df_arg!!, for huge M."""
    lgm = _lg_double_factorial(df_arg)
    # lg C(M,t) in [t*lg(M-t+1) - lg t!, t*lg M - lg t!]; for lg M > 64 the slack
    # lg(M-t+1) >= lg M - 3t*2^(-lg M) is certified.
    if not lgm.a > 64:
        raise DomainError(f"{df_arg}!! is too small for the certified slack (needs lg > 64)")
    return t * (lgm - _iv().mpf([0, 3 * t]) / 2 ** 64) - _lg_factorial(t)


def _pair_bound_tight_holds(n: int, t: int, r: int, mode: str) -> bool:
    """Decide 2^(t*e) * T(n+2r) / r! >= C(T(n), t): in lg scale past _EXACT_BITS,
    and in exact integers below it or where the two enclosures overlap."""
    bits = _tree_bits(n + 2 * r, mode) + t * _tree_bits(n, mode)
    # k!! > 2^((k-1)/2), so lg T(n) > 64 as the slack needs
    if bits > _EXACT_BITS and _tree_arg(n, mode) > 128:
        lhs = (t * _exponent(n, r, mode) + _lg_double_factorial(_tree_arg(n + 2 * r, mode))
               - _lg_factorial(r))
        holds = lhs >= _lg_binomial_of_df(_tree_arg(n, mode), t)
        if holds is not None:
            return holds
    _check_bits(bits)
    m = tree_count(n, mode)
    if t > m:
        return True  # no t-sets exist at all
    return (tree_count(n + 2 * r, mode) << t * _exponent(n, r, mode)
            >= math.comb(m, t) * math.factorial(r))


def counting_lower_bound(n: int, t: int, mode: str = ROOTED) -> int:
    """Least r whose pair-count bound can cover all t-sets of trees on [n].

    Any worst-case displaying network needs at least this many
    reticulations.  Search range is 0..(t-1)n, where the trivial network
    guarantees success.
    """
    if n < 2 or t < 1:
        raise ValueError("need n >= 2 and t >= 1")
    # the predicate is monotone in r and holds at (t - 1)n, so that point is never tested
    return bisect.bisect_left(range((t - 1) * n), True,
                              key=lambda r: _pair_bound_tight_holds(n, t, r, mode))


def formula_lower_bound(n: int, t: int, mode: str = ROOTED) -> RealInterval:
    """Closed-form worst-case reticulation lower bound, certified.

    Exact rational when both lg n and lg t are integral; otherwise an
    interval at >= 128-bit working precision.
    """
    if n < 6 or t < 1:
        raise ValueError("need n >= 6 and t >= 1")
    exact = _is_power_of_two(n) and _is_power_of_two(t)
    if exact:
        lg_n = Fraction(n.bit_length() - 1)
        lg_t = Fraction(t.bit_length() - 1)
    else:
        iv = _iv()
        lg_n = iv.log(iv.mpf(n)) / iv.log(2)
        lg_t = iv.log(iv.mpf(t)) / iv.log(2)
    if mode == ROOTED:
        num = (t - 1) * n * lg_n - 6 * t * n - t * lg_t
        den = lg_n + t + lg_t
    else:
        num = (t - 1) * n * lg_n - t * (8 * n + lg_n + lg_t - 1)
        den = lg_n + 3 * t + lg_t
    v = num / den
    return RealInterval(v, v) if exact else _iv_to_interval(v)


def _is_power_of_two(k: int) -> bool:
    return k >= 1 and k & (k - 1) == 0


# ---------------------------------------------------------------------------
# lemma suite


def verify_math_lemmas(kmax: int) -> list[BoundReport]:
    """Exact verification of the arithmetic groundwork.

    Covers the double-factorial identity, the binomial factorial bound,
    and the three factorial sandwich lemmas, over their stated ranges up
    to kmax.
    """
    if kmax < 6:
        raise ValueError("kmax must be at least 6")
    # a partial sum of e = sum 1/k!: a lemma that holds with it in place of e holds with e
    e_lo = sum(Fraction(1, math.factorial(k)) for k in range(30))
    reports: list[BoundReport] = []

    for k in range(0, kmax + 1):
        lhs = double_factorial(2 * k - 1)
        rhs = Fraction(math.factorial(2 * k), 2 ** k * math.factorial(k))
        reports.append(BoundReport("double-factorial-identity", {"k": k},
                                   lhs=lhs, rhs=rhs, holds=lhs == rhs))

    for a in range(0, kmax + 1):
        for b in range(0, kmax + 1 - a):
            lhs = math.factorial(a + b)
            rhs = 2 ** (a + b) * math.factorial(a) * math.factorial(b)
            reports.append(BoundReport("split-factorial-bound", {"a": a, "b": b},
                                       lhs=lhs, rhs=rhs, holds=lhs <= rhs))

    for m in range(1, kmax + 1):
        q = Fraction(m, m + 1) ** m
        reports.append(BoundReport("power-ratio-sandwich", {"n": m}, lhs=q, rhs=(Fraction(1, 2),),
                                   holds=q <= Fraction(1, 2) and e_lo > 1 / q))  # 1/e < q

    for m in range(6, kmax + 1):
        fact, upper = math.factorial(m), Fraction(m, 2) ** m
        # (m/e)^m < m!  <=>  m^m < m! * e^m
        reports.append(BoundReport("factorial-sandwich", {"n": m}, lhs=fact, rhs=(upper,),
                                   holds=fact < upper and Fraction(m) ** m < fact * e_lo ** m))

    for m in range(5, kmax + 1):
        lhs = double_factorial(2 * m - 3)
        rhs = Fraction(m, 2) ** m
        reports.append(BoundReport("double-factorial-growth", {"n": m},
                                   lhs=lhs, rhs=rhs, holds=lhs > rhs))

    return reports
