"""Exact evaluation of the counting formulas and inequality bounds.

All comparisons are decided either in exact integer/rational arithmetic
or by certified interval arithmetic (>= 128-bit working precision, with
Robbins' bounds for huge factorials).  No floating-point comparison ever
decides a report.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import DomainError, TTooLarge
from .model import ROOTED

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


def tree_count(n: int, mode: str = ROOTED) -> int:
    """(2n-3)!! rooted trees / (2n-5)!! unrooted trees on leaf set [n]."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return double_factorial(2 * n - 3 if mode == ROOTED else 2 * n - 5)


def tree_set_count(n: int, t: int, mode: str = ROOTED) -> int:
    """Exact number of t-element sets of trees on [n]."""
    if t < 1:
        raise ValueError("t must be at least 1")
    m = tree_count(n, mode)
    if t > m:
        raise TTooLarge(f"t = {t} exceeds the {m} trees on {n} leaves")
    return math.comb(m, t)


def tree_set_count_bounds(n: int, t: int, mode: str = ROOTED) -> BoundReport:
    """The count together with its two closed-form lower bounds, as exact rationals.

    Chain: C(m, t) >= (m/t)^t > (base/2)^(t*base') / t^t with base n
    (rooted, n >= 5) or n-1 (unrooted, n >= 6).
    """
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
    tight: Fraction          # (2n+4r-3)!!/r! rooted, (2n+4r-5)!!/r! unrooted
    relaxed: Optional[int]   # None where the factorial form is undefined


def network_count_bound(n: int, r: int, mode: str = ROOTED) -> NetworkCountBound:
    """Both upper bounds on the number of network classes with n leaves, r reticulations."""
    if n < 1 or r < 0:
        raise DomainError("need n >= 1 and r >= 0")
    if mode == ROOTED:
        tight = Fraction(double_factorial(2 * n + 4 * r - 3), math.factorial(r))
        relaxed = (math.factorial(n) * math.factorial(r - 1) * 2 ** (2 * n + 6 * r - 3)
                   if r >= 1 else None)
    else:
        tight = Fraction(double_factorial(2 * n + 4 * r - 5), math.factorial(r))
        relaxed = (math.factorial(n) * math.factorial(r - 2) * 2 ** (2 * n + 6 * r - 6)
                   if r >= 2 else None)
    return NetworkCountBound(tight, relaxed)


def pair_count_bound(n: int, t: int, r: int, mode: str = ROOTED) -> int:
    """Upper bound on pairs (network, displayed t-set) from the corollary forms."""
    if n < 1 or t < 1:
        raise DomainError("need n >= 1 and t >= 1")
    if mode == ROOTED:
        if r < 1:
            raise DomainError("rooted pair bound needs r >= 1")
        return 2 ** (r * t) * math.factorial(n) * math.factorial(r - 1) * 2 ** (2 * n + 6 * r - 3)
    if r < 2:
        raise DomainError("unrooted pair bound needs r >= 2")
    return 2 ** ((t + 2) * (n + 3 * r - 3)) * math.factorial(n) * math.factorial(r - 2)


# ---------------------------------------------------------------------------
# certified log-scale arithmetic for huge parameters

_EXACT_DF_LIMIT = 400  # below this, plain big integers are cheap


def _iv():
    # imported on first use: `import retnet` and the commands that evaluate
    # no interval bound never load mpmath
    import mpmath

    mpmath.iv.prec = _IV_PREC
    return mpmath.iv


def _lg_factorial(m: int) -> RealInterval:
    """Certified enclosure of lg m!."""
    iv = _iv()
    if m < 2:
        return RealInterval(Fraction(0), Fraction(0))
    if m <= 2000:
        return _iv_to_interval(iv.log(iv.mpf(math.factorial(m))) / iv.log(2))
    # Robbins: ln m! in [S + 1/(12m+1), S + 1/(12m)], S = ln(2*pi*m)/2 + m ln m - m
    mm = iv.mpf(m)
    s = iv.log(2 * iv.pi * mm) / 2 + mm * iv.log(mm) - mm
    lo = s + iv.mpf(1) / (12 * mm + 1)
    hi = s + iv.mpf(1) / (12 * mm)
    ln = _iv_to_interval(lo / iv.log(2))
    hn = _iv_to_interval(hi / iv.log(2))
    return RealInterval(ln.lo, hn.hi)


def _lg_double_factorial(k: int) -> RealInterval:
    """Certified enclosure of lg k!! for odd k (k = 2m-1)."""
    if k <= 0:
        return RealInterval(Fraction(0), Fraction(0))
    m = (k + 1) // 2
    f2m = _lg_factorial(2 * m)
    fm = _lg_factorial(m)
    return RealInterval(f2m.lo - m - fm.hi, f2m.hi - m - fm.lo)


def _lg_binomial_of_df(df_arg: int, t: int) -> RealInterval:
    """Certified enclosure of lg C(M, t) with M = df_arg!!, for huge M."""
    lgm = _lg_double_factorial(df_arg)
    lgtf = _lg_factorial(t)
    # lg C(M,t) in [t*lg(M-t+1) - lg t!, t*lg M - lg t!]; for lg M > 64
    # the slack lg(M-t+1) >= lg M - 3t*2^(-lg M) is certified.
    if not lgm.lo > 64:
        raise DomainError(f"{df_arg}!! is too small for the certified slack (needs lg > 64)")
    slack = Fraction(3 * t, 2 ** 64)
    lo = t * (lgm.lo - slack) - lgtf.hi
    hi = t * lgm.hi - lgtf.lo
    return RealInterval(lo, hi)


def _pair_bound_tight_holds(n: int, t: int, r: int, mode: str) -> bool:
    """Decide 2^{rt} * tight-network-bound >= |S_{n,t}| rigorously."""
    if mode == ROOTED:
        df_net, df_tree = 2 * n + 4 * r - 3, 2 * n - 3
        lhs_pow = r * t
    else:
        df_net, df_tree = 2 * n + 4 * r - 5, 2 * n - 5
        lhs_pow = t * (n + 3 * r - 3)
    if df_tree > _EXACT_DF_LIMIT:
        lhs = _lg_double_factorial(df_net)
        lgr = _lg_factorial(r)
        lhs = RealInterval(lhs.lo + lhs_pow - lgr.hi, lhs.hi + lhs_pow - lgr.lo)
        rhs = _lg_binomial_of_df(df_tree, t)
        if lhs.lo >= rhs.hi or lhs.hi < rhs.lo:
            return lhs.lo >= rhs.hi
        # inconclusive interval: settle exactly (only reachable at razor-thin margins)
    m = double_factorial(df_tree)
    if t > m:
        return True  # no t-sets exist at all
    return 2 ** lhs_pow * double_factorial(df_net) >= math.comb(m, t) * math.factorial(r)


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
    """Exact / interval-certified verification of the arithmetic groundwork.

    Covers the double-factorial identity, the binomial factorial bound,
    and the three factorial sandwich lemmas, over their stated ranges up
    to kmax.
    """
    if kmax < 6:
        raise ValueError("kmax must be at least 6")
    iv = _iv()
    e_iv = _iv_to_interval(iv.exp(1))
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
        upper_ok = q <= Fraction(1, 2)
        # 1/e < q  <=>  e > 1/q, certified via the lower endpoint of e
        lower_ok = e_iv.lo > 1 / q
        reports.append(BoundReport("power-ratio-sandwich", {"n": m},
                                   lhs=q, rhs=(Fraction(1, 2),), holds=upper_ok and lower_ok))

    for m in range(6, kmax + 1):
        fact = math.factorial(m)
        upper_ok = fact < Fraction(m, 2) ** m
        # (m/e)^m < m!  <=>  m^m < m! * e^m, certified via lower endpoint of e^m
        en = _iv_to_interval(iv.exp(m))
        lower_ok = Fraction(m) ** m < fact * en.lo
        reports.append(BoundReport("factorial-sandwich", {"n": m},
                                   lhs=fact, rhs=(Fraction(m, 2) ** m,),
                                   holds=upper_ok and lower_ok))

    for m in range(5, kmax + 1):
        lhs = double_factorial(2 * m - 3)
        rhs = Fraction(m, 2) ** m
        reports.append(BoundReport("double-factorial-growth", {"n": m},
                                   lhs=lhs, rhs=rhs, holds=lhs > rhs))

    return reports
