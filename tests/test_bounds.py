import math
from fractions import Fraction

import mpmath
import pytest

import oracles
from retnet import bounds
from retnet.errors import BudgetExceeded, DomainError, TTooLarge
from retnet.model import ROOTED, UNROOTED


def test_double_factorial_small():
    assert [bounds.double_factorial(k) for k in (-1, 0, 1, 3, 5, 7)] == \
        [1, 1, 1, 3, 15, 105]


def test_double_factorial_is_the_product_of_its_factors():
    # a balanced product tree; large k cross several levels of it
    for k in [*range(-3, 201), 1001, 4096, 20001]:
        assert bounds.double_factorial(k) == math.prod(range(k, 1, -2)), k


def test_tree_count_closed_forms():
    assert bounds.tree_count(7, ROOTED) == 10395
    assert bounds.tree_count(8, UNROOTED) == 10395
    assert bounds.tree_count(1, ROOTED) == 1
    assert bounds.tree_count(3, UNROOTED) == 1


def test_tree_set_count_and_bounds():
    n, t = 6, 2
    m = bounds.tree_count(n, ROOTED)
    assert bounds.tree_set_count(n, t, ROOTED) == math.comb(m, t)
    rep = bounds.tree_set_count_bounds(n, t, ROOTED)
    assert rep.holds
    with pytest.raises(TTooLarge):
        bounds.tree_set_count(3, 10, ROOTED)


def test_tree_set_count_bounds_counts_the_trees_once(monkeypatch):
    calls = []
    tree_count = bounds.tree_count
    monkeypatch.setattr(bounds, "tree_count", lambda n, mode: calls.append(n) or tree_count(n, mode))
    assert bounds.tree_set_count_bounds(6, 3, ROOTED).lhs == math.comb(945, 3)
    assert calls == [6]


def test_network_count_bound_chain():
    b = bounds.network_count_bound(3, 2, ROOTED)
    assert b.tight == Fraction(bounds.double_factorial(2 * 3 + 4 * 2 - 3),
                               math.factorial(2))
    assert b.relaxed is not None and b.tight <= b.relaxed
    # relaxed side undefined at r = 0 (rooted) and r <= 1 (unrooted)
    assert bounds.network_count_bound(3, 0, ROOTED).relaxed is None
    assert bounds.network_count_bound(3, 1, UNROOTED).relaxed is None


def test_pair_count_bound_domain():
    assert bounds.pair_count_bound(3, 2, 1, ROOTED) > 0
    with pytest.raises(DomainError):
        bounds.pair_count_bound(3, 2, 0, ROOTED)
    with pytest.raises(DomainError):
        bounds.pair_count_bound(3, 2, 1, UNROOTED)
    # n or t below 1: no float from a negative power of 2, no factorial() error
    for n, t, r, mode in [(3, -5, 2, UNROOTED), (3, -2, 1, ROOTED), (-3, 2, 1, ROOTED),
                          (3, 0, 2, ROOTED), (0, 2, 2, UNROOTED)]:
        with pytest.raises(DomainError, match=r"need n >= 1 and t >= 1"):
            bounds.pair_count_bound(n, t, r, mode)


def test_counting_lower_bound_tiny():
    assert bounds.counting_lower_bound(3, 2, ROOTED) == 0
    assert bounds.counting_lower_bound(4, 2, ROOTED) == 1


def test_counting_lower_bound_matches_a_linear_scan():
    for mode in (ROOTED, UNROOTED):
        for n in range(2, 13):
            for t in range(1, 5):
                top = (t - 1) * n
                holds = [r for r in range(top) if bounds._pair_bound_tight_holds(n, t, r, mode)]
                scan = holds[0] if holds else top
                assert bounds.counting_lower_bound(n, t, mode) == scan, (n, t, mode)


def test_counting_lower_bound_monotone_in_n():
    vals = [bounds.counting_lower_bound(n, 2, ROOTED) for n in (8, 16, 32, 64)]
    assert vals == sorted(vals)


def _exact_pair_bound_holds(n, t, r, mode):
    tree_arg = 2 * n - 3 if mode == ROOTED else 2 * n - 5
    e = r if mode == ROOTED else n + 3 * r - 3
    return (2 ** (t * e) * bounds.double_factorial(tree_arg + 4 * r)
            >= math.comb(bounds.double_factorial(tree_arg), t) * math.factorial(r))


def _no_exact_path(*_):
    raise AssertionError("the exact path ran")


def test_counting_lower_bound_exact_vs_interval_agree(monkeypatch):
    # past _EXACT_BITS the interval path decides; the exact form, written out here, must agree
    points = [(n, t) for n in range(203, 261, 5) for t in (2, 3)] + [(1000, 3)]
    for mode in (ROOTED, UNROOTED):
        for n, t in points:
            with monkeypatch.context() as m:
                m.setattr(bounds, "tree_count", _no_exact_path)
                r = bounds.counting_lower_bound(n, t, mode)
                near = (r - 1, r, r + 1)
                decided = [bounds._pair_bound_tight_holds(n, t, s, mode) for s in near]
            assert decided == [False, True, True], (n, t, mode)
            assert decided == [_exact_pair_bound_holds(n, t, s, mode) for s in near], (n, t, mode)


def test_counting_lower_bound_path_follows_integer_size(monkeypatch):
    # n = 150 is small, but C(T(150), 3000) has about 3 million bits: the interval path
    # decides, and where it could not, the exact form would be refused before it is built
    monkeypatch.setattr(bounds, "tree_count", _no_exact_path)
    for mode in (ROOTED, UNROOTED):
        assert bounds.counting_lower_bound(150, 3000, mode) > 0
    monkeypatch.setattr(bounds, "_lg_binomial_of_df",
                        lambda *_: bounds.RealInterval(Fraction(0), Fraction(10 ** 9)))
    with pytest.raises(BudgetExceeded, match="exact integers of about"):
        bounds.counting_lower_bound(150, 3000)


def test_counting_lower_bound_is_total_past_a_machine_word():
    # (t - 1)n = 2 * 10^30 has no range(); the bisection runs on plain integers
    n = 10 ** 30
    r = bounds.counting_lower_bound(n, 3)
    assert 0 < r < 2 * n
    assert [bounds._pair_bound_tight_holds(n, 3, s, ROOTED) for s in (r - 1, r)] == [False, True]


# the enclosures against values at 600 bits, and their widths against 2^-100, or for the
# Robbins enclosures against the `mpmath.iv` oracle's width plus 2^-100 per unit of argument
def _contains(iv, value) -> bool:
    return mpmath.mpf(iv.lo.numerator) / iv.lo.denominator <= value \
        <= mpmath.mpf(iv.hi.numerator) / iv.hi.denominator


def _iv_width(x) -> Fraction:
    with mpmath.workprec(600):  # the 192-bit ends, exactly
        lo, hi = (oracles.mpf_to_fraction(end) for end in (x.a, x.b))
    return hi - lo


LG_ARGS = (1, 2, 3, 5, 10, 100, 250, 1000, 2001, 4096, 10 ** 5, 10 ** 6, 2 ** 25 - 1,
           2 ** 25 + 1, 3 ** 100, 2 ** 200 - 1, 10 ** 400 + 1)


def test_lg_encloses_lg():
    with mpmath.workprec(600):
        for m in LG_ARGS:
            iv = bounds._lg(m)
            assert _contains(iv, mpmath.log(m, 2)) and iv.hi - iv.lo <= Fraction(1, 2 ** 100), m
    for k in (0, 1, 7, 128, 1000):
        assert bounds._lg(2 ** k) == (k, k)


def test_lg_e_and_lg_pi_enclose_their_values():
    lg_e, lg_pi = bounds._lg_e_pi()
    with mpmath.workprec(600):
        assert _contains(lg_e, mpmath.log(mpmath.e, 2))
        assert _contains(lg_pi, mpmath.log(mpmath.pi, 2))
        for x in (5, 239):  # Machin's two series, each within its stated radius
            s, d = bounds._atan_inv(x)
            assert s - d < mpmath.atan(mpmath.mpf(1) / x) * 2 ** bounds._Q < s + d, x
    assert max(lg_e.hi - lg_e.lo, lg_pi.hi - lg_pi.lo) <= Fraction(1, 2 ** 100)


def test_lg_factorial_encloses_lg_factorial():
    with mpmath.workprec(600):
        for m in (2, 3, 10, 100, 250, 1000, 2000, 2001, 4096, 10 ** 5, 10 ** 6, 2 ** 25):
            iv = bounds._lg_factorial(m)
            assert _contains(iv, mpmath.loggamma(m + 1) / mpmath.log(2)) and iv.lo < iv.hi, m
            extra = iv.hi - iv.lo - _iv_width(oracles.iv_lg_factorial(m))
            assert extra <= Fraction(m, 2 ** 100), m
    assert bounds._lg_factorial(0) == bounds._lg_factorial(1) == (0, 0)


def test_lg_double_factorial_encloses_lg_double_factorial():
    with mpmath.workprec(600):
        for k in (3, 5, 99, 1001, 4097, 2 * 10 ** 6 + 1, 2 ** 26 - 1):
            m = (k + 1) // 2
            iv = bounds._lg_double_factorial(k)
            lg = (mpmath.loggamma(2 * m + 1) - mpmath.loggamma(m + 1)) / mpmath.log(2) - m
            assert _contains(iv, lg), k
            extra = iv.hi - iv.lo - _iv_width(oracles.iv_lg_double_factorial(k))
            assert extra <= Fraction(k, 2 ** 100), k


def test_lg_binomial_of_df_encloses_lg_binomial():
    with mpmath.workprec(600):
        # 37!! is about 2^72.8, just past the lg M > 64 that the slack needs
        for k, t in [(37, 4096), (201, 2), (257, 3), (401, 16), (1001, 5), (1001, 300)]:
            M = bounds.double_factorial(k)
            iv = bounds._lg_binomial_of_df(k, t)
            lg = sum(mpmath.log(mpmath.mpf(M - i), 2) for i in range(t)) \
                - mpmath.loggamma(t + 1) / mpmath.log(2)
            assert _contains(iv, lg), (k, t)
            extra = iv.hi - iv.lo - _iv_width(oracles.iv_lg_binomial_of_df(k, t))
            assert extra <= Fraction(t * k, 2 ** 100), (k, t)


def test_formula_lower_bound_unrounded_ends_enclose_the_bound(monkeypatch):
    # before `_nearest53` rounds them, the ends enclose the real bound
    monkeypatch.setattr(bounds, "_nearest53", lambda x: x)
    with mpmath.workprec(600):
        for n in (6, 7, 100, 1000, 4097, 12345, 10 ** 6, 10 ** 30 + 1):
            for t in (1, 2, 3, 5, 7, 10, 17):
                lg_n, lg_t = mpmath.log(n, 2), mpmath.log(t, 2)
                rooted = ((t - 1) * n * lg_n - 6 * t * n - t * lg_t) / (lg_n + t + lg_t)
                unrooted = (((t - 1) * n * lg_n - t * (8 * n + lg_n + lg_t - 1))
                            / (lg_n + 3 * t + lg_t))
                for mode, value in ((ROOTED, rooted), (UNROOTED, unrooted)):
                    assert _contains(bounds.formula_lower_bound(n, t, mode), value), (n, t, mode)


def test_formula_lower_bound_equals_the_mpmath_oracle():
    # the five interval-path points of the benchmark, a grid, and two past 10^300
    points = [(100, 3, ROOTED), (1000, 5, ROOTED), (1000, 6, UNROOTED), (10 ** 6, 10, ROOTED),
              (12345, 7, ROOTED), (10 ** 300 + 1, 3, ROOTED), (10 ** 400 + 1, 3, UNROOTED)]
    points += [(n, t, mode) for n in (6, 7, 10, 63, 65, 100, 1000, 4097, 99991)
               for t in (1, 2, 3, 4, 5, 8, 17) for mode in (ROOTED, UNROOTED)]
    for n, t, mode in points:
        iv = bounds.formula_lower_bound(n, t, mode)
        if n & n - 1 or t & t - 1:
            assert iv == oracles.iv_formula_lower_bound(n, t, mode), (n, t, mode)
        else:
            assert iv.exact, (n, t, mode)


def test_formula_lower_bound_exact_rational_point():
    iv = bounds.formula_lower_bound(2 ** 16, 4, ROOTED)
    assert iv.exact
    assert iv.midpoint == Fraction(1572856, 22)


def test_formula_lower_bound_interval_path():
    iv = bounds.formula_lower_bound(1000, 3, ROOTED)
    assert iv.hi - iv.lo < Fraction(2, 10 ** 6)
    with pytest.raises(ValueError):
        bounds.formula_lower_bound(4, 2, ROOTED)


def test_formula_lower_bound_unrooted():
    iv = bounds.formula_lower_bound(2 ** 12, 4, UNROOTED)
    assert iv.hi < bounds.formula_lower_bound(2 ** 12, 4, ROOTED).hi


def test_verify_math_lemmas_all_hold():
    reps = bounds.verify_math_lemmas(32)
    assert reps
    assert all(r.holds for r in reps)
    names = {r.name for r in reps}
    assert names == {"double-factorial-identity", "split-factorial-bound",
                     "power-ratio-sandwich", "factorial-sandwich",
                     "double-factorial-growth"}


def test_binomial_slack_refuses_small_argument():
    # the certified slack needs lg(df_arg!!) > 64; this must hold under -O too
    with pytest.raises(DomainError):
        bounds._lg_binomial_of_df(5, 2)


# formula_lower_bound's intervals are not yet enclosures: `_nearest53` rounds each
# endpoint to nearest at 53 bits, the one float rounding left in `bounds`; every other
# enclosure keeps its exact ends.  These fail until it rounds outward, which changes
# formula-lower's stored benchmark outputs.  They call pytest.fail, not assert, so
# that they still fail under -O.
_NOT_ENCLOSURES = "_nearest53 rounds interval endpoints to nearest at 53 bits"


@pytest.mark.xfail(strict=True, reason=_NOT_ENCLOSURES)
def test_enclosure_of_e_lies_above_a_partial_sum():
    partial = sum(Fraction(1, math.factorial(k)) for k in range(30))  # < e
    e_hi = partial + Fraction(2, math.factorial(30))  # > e
    if not bounds._nearest53(e_hi) > partial:
        pytest.fail("the upper end of the enclosure of e lies below e")


@pytest.mark.xfail(strict=True, reason=_NOT_ENCLOSURES)
def test_formula_lower_bound_interval_has_width():
    iv = bounds.formula_lower_bound(100, 3)
    if not iv.lo < iv.hi:
        pytest.fail("an irrational bound is enclosed by one point")
