import math
from fractions import Fraction

import pytest

from retnet import bounds
from retnet.errors import BudgetExceeded, DomainError, TTooLarge
from retnet.model import ROOTED, UNROOTED


def test_double_factorial_small():
    assert [bounds.double_factorial(k) for k in (-1, 0, 1, 3, 5, 7)] == \
        [1, 1, 1, 3, 15, 105]


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
    monkeypatch.setattr(bounds, "_lg_binomial_of_df", lambda *_: bounds._iv().mpf([0, 10 ** 9]))
    with pytest.raises(BudgetExceeded, match="exact integers of about"):
        bounds.counting_lower_bound(150, 3000)


def test_lg_factorial_encloses_lg_factorial():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workprec(600):
        for m in (2, 3, 10, 100, 250, 1000, 2000, 2001, 4096, 10 ** 5, 10 ** 6, 2 ** 25):
            lo, hi = (mpmath.mpf(end) for end in bounds._lg_factorial(m)._mpi_)
            lg = mpmath.loggamma(m + 1) / mpmath.log(2)
            assert lo <= lg <= hi and lo < hi, m


def test_formula_lower_bound_exact_rational_point():
    iv = bounds.formula_lower_bound(2 ** 16, 4, ROOTED)
    assert iv.exact
    assert iv.midpoint == Fraction(1572856, 22)


def test_formula_lower_bound_interval_path():
    iv = bounds.formula_lower_bound(1000, 3, ROOTED)
    assert iv.radius < Fraction(1, 10 ** 6)
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


# formula_lower_bound's intervals are not yet enclosures: `_mpf_to_fraction` rounds
# each endpoint to nearest at 53 bits, the one float left in `bounds`; every other
# interval stays in `mpmath.iv`.  These fail until it rounds outward, which changes
# formula-lower's stored benchmark outputs.  They call pytest.fail, not assert, so
# that they still fail under -O.
_NOT_ENCLOSURES = "_mpf_to_fraction rounds interval endpoints to nearest at 53 bits"


@pytest.mark.xfail(strict=True, reason=_NOT_ENCLOSURES)
def test_enclosure_of_e_lies_above_a_partial_sum():
    partial = sum(Fraction(1, math.factorial(k)) for k in range(30))  # < e
    if not bounds._iv_to_interval(bounds._iv().exp(1)).hi > partial:
        pytest.fail("the upper end of the enclosure of e lies below e")


@pytest.mark.xfail(strict=True, reason=_NOT_ENCLOSURES)
def test_formula_lower_bound_interval_has_width():
    iv = bounds.formula_lower_bound(100, 3)
    if not iv.lo < iv.hi:
        pytest.fail("an irrational bound is enclosed by one point")
