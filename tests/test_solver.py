import math
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv

from oracles import (
    iv_bracket,
    iv_pow,
    library_bracket,
    limit_equation,
    log_g_iv_oracle,
    r1_surrogate,
    selector_oracle,
    t_sign_oracle,
    v_func,
)
from sigma_density import density, solver, zeta
from sigma_density.brackets import Bracket
from sigma_density.errors import CapacityError, DomainError, PrecisionError
from sigma_density.zeta import exponent


def eta_defining_sign(k, r):
    """The paper's defining equation for eta_k in log form, as its own
    interval expression: an oracle for :func:`solver.eta`, which solves
    the same equation as T_k(m_k, r) = 0."""
    r_iv = iv.mpf(r)
    if k == 1:
        lhs = 2 * iv.log(1 + iv_pow(iv.mpf(2), -r_iv))
    else:
        s2 = iv.mpf(0)
        s3 = iv.mpf(0)
        for j in range(k + 1):
            s2 += iv_pow(iv.mpf(2), -j * r_iv)
            s3 += iv_pow(iv.mpf(3), -j * r_iv)
        lhs = iv.log(s2) + iv.log(s3) + iv.log(1 + iv_pow(iv.mpf(3), -r_iv))
    return iv_bracket(lhs - log_g_iv_oracle(k, r_iv))


# solver.eta(table, k) at the default eps
ETA_BRACKETS = {
    1: (1.8646345674817102, 1.864634567539912),
    2: (1.886908414499799, 1.8869084145580008),
    3: (1.887751789835904, 1.8877517898941059),
    4: (1.8877891206707802, 1.887789120728982),
    5: (1.8877908418155973, 1.887790841873799),
    6: (1.887790922657953, 1.887790922716155),
    7: (1.887790926499275, 1.8877909265574766),
    8: (1.8877909266738802, 1.887790926732082),
    9: (1.8877909266738802, 1.887790926732082),
    10: (1.8877909266738802, 1.887790926732082),
}

# the residuals those solves print: T_k(m_k, .) at the bracket's midpoint
ETA_RESIDUALS = {
    1: (3.948659690174808e-12, 3.948659690174809e-12),
    2: (2.0566570677364218e-12, 2.0566570677364226e-12),
    3: (-3.793416919277442e-12, -3.7934169192774406e-12),
    4: (3.1798327675458726e-12, 3.1798327675458734e-12),
    5: (-1.9215333895763868e-13, -1.9215333895763863e-13),
    6: (4.998700247573563e-13, 4.998700247573565e-13),
    7: (1.7561120510900387e-12, 1.7561120510900391e-12),
    8: (5.869486150544885e-13, 5.869486150544887e-13),
    9: (-6.852438208184304e-13, -6.852438208184301e-13),
    10: (-7.461073296705422e-13, -7.46107329670542e-13),
}


def no_guide(r):
    """A guide that never clears GUIDE_ERROR: every sign is a certified test."""
    return math.nan


def sign_of(value):
    """A sign test that reads the sign of ``value``."""
    return lambda r: value(r).certified_sign()


def assert_certified_root(table, result, sign_fn):
    assert not result.boundary
    assert sign_fn(result.value.lo).certified_sign() == -1
    assert sign_fn(result.value.hi).certified_sign() == 1


class TestRThreshold:
    def test_k1_m1_location(self, table):
        root = solver.r_threshold(table, 1, 1)
        assert 1.864633 < root.value.lo and root.value.hi < 1.8877909
        assert root.value.width <= 1e-10
        assert_certified_root(table, root, lambda r: density.t_func(table, 1, 1, r))

    def test_ordering_k1(self, table):
        r1 = solver.r_threshold(table, 1, 1)
        r2 = solver.r_threshold(table, 1, 2)
        assert r2.value.lo > r1.value.hi

    def test_root_exists_for_m1(self, table):
        for k in (1, 2, 5, 12):
            root = solver.r_threshold(table, k, 1)
            assert not root.boundary
            assert root.value.hi < 2

    def test_m4_boundary_flagged(self, table):
        root = solver.r_threshold(table, 1, 4)
        assert root.boundary
        assert root.value.lo == root.value.hi == 2.0
        assert root.residual.nonpositive()

    def test_residual_small(self, table):
        root = solver.r_threshold(table, 2, 2, eps=1e-10)
        assert abs(root.residual.mid) < 10 * root.value.width

    def test_monotone_in_k(self, table):
        for m in (1, 2):
            prev = solver.r_threshold(table, 1, m)
            for k in (2, 3, 4):
                cur = solver.r_threshold(table, k, m)
                assert cur.value.lo > prev.value.hi
                prev = cur
        # m = 4 stays at the boundary for every k
        for k in (1, 2, 6):
            assert solver.r_threshold(table, k, 4).boundary

    def test_invalid_m(self, table):
        with pytest.raises(DomainError):
            solver.r_threshold(table, 1, 3)


class TestSelector:
    def test_values(self, table):
        # the rule against the selector solved for each k
        for k in (*range(1, 11), 30, math.inf):
            assert solver.m_selector(k) == selector_oracle(table, k) == (1 if k == 1 else 2)
        # eta_inf = R_inf(2)
        assert solver.eta(table, math.inf).value == solver.r_threshold(table, math.inf, 2).value

    def test_invalid_k(self):
        with pytest.raises(DomainError):
            solver.m_selector(0)


class TestEta:
    def test_k1_location(self, table):
        eta1 = solver.eta(table, 1)
        assert 1.864633 < eta1.value.lo and eta1.value.hi < 1.8877909

    def test_brackets_the_defining_equation(self, table):
        for k in (1, 2, 3, 7, 12, 20):
            assert_certified_root(table, solver.eta(table, k), lambda r: eta_defining_sign(k, r))

    def test_strictly_increasing_in_k(self, table):
        # consecutive thresholds converge geometrically, so the later pairs
        # need tighter brackets before they separate
        for k in range(1, 10):
            for eps in (1e-10, 1e-12, 1e-13):
                a = solver.eta(table, k, eps)
                b = solver.eta(table, k + 1, eps)
                if b.value.lo > a.value.hi:
                    break
            else:
                raise AssertionError(f"eta({k + 1}) not certified above eta({k})")

    def test_residual_of_defining_equation(self, table):
        for k in (1, 4):
            result = solver.eta(table, k)
            assert abs(result.residual.mid) < 10 * max(result.value.width, 1e-12)

    def test_pinned_brackets(self, table):
        # the brackets and residuals `eta --k 1..10` and `eta-limit` print,
        # bit for bit
        for k, (lo, hi) in ETA_BRACKETS.items():
            root = solver.eta(table, k)
            assert root.value == Bracket(lo, hi), k
            assert root.residual == Bracket(*ETA_RESIDUALS[k]), k
            assert root.iterations == 34
        limit = solver.eta_limit(table)
        assert limit.value == Bracket(1.8877909263246693, 1.8877909272558986)
        assert limit.residual == Bracket(1.1980814953738852e-11, 1.1980814953738855e-11)
        assert limit.iterations == 30

    def test_approaches_limit(self, table):
        eta30 = solver.eta(table, 30)
        limit = solver.eta_limit(table, 1e-9)
        assert abs(eta30.value.mid - limit.value.mid) < 1e-6
        for k in (1, 5, 15, 30):
            assert solver.eta(table, k).value.lo < limit.value.hi


class TestEtaLimit:
    # the limit equation is T_inf(2, .); tests/oracles.py keeps its closed
    # form, the solver's route before it solved T at k = inf
    def test_guide_within_the_solver_margin(self, table):
        # solver.GUIDE_ERROR assumes the guide is within 2e-15 on [1.0001, 2]
        for r in (1.0001, 1.2, 1.6, 1.88, 1.89, 2.0):
            b = limit_equation(r)
            assert b.lo - 2e-15 <= density.t_float(table, math.inf, 2, r) <= b.hi + 2e-15

    @settings(max_examples=40, deadline=None)
    @given(r=st.floats(min_value=1.0001, max_value=40.0))
    def test_t_at_k_inf_meets_the_closed_form(self, table, r):
        t, closed = density.t_func(table, math.inf, 2, r), limit_equation(r)
        assert t.lo <= closed.hi and closed.lo <= t.hi

    @settings(max_examples=40, deadline=None)
    @given(r=st.floats(min_value=1.0001, max_value=40.0))
    def test_log_free_sign_is_the_sign_of_the_full_size_bracket(self, table, r):
        full = limit_equation(r).certified_sign()
        assert t_sign_oracle(table, math.inf, 2, r, zeta.FULL_SIZE) == full
        assert density.t_sign(table, math.inf, 2, r) in (None, full)

    def test_published_value(self, table):
        result = solver.eta_limit(table, 1e-9)
        assert result.value.width <= 1e-9
        assert result.value.lo <= 1.8877909 <= result.value.hi or abs(
            result.value.mid - 1.8877909
        ) < 1e-7

    def test_residual(self, table):
        result = solver.eta_limit(table, 1e-9)
        r = result.value.mid
        lhs = (2**r / (2**r - 1)) * ((3**r + 1) / (3**r - 1))
        assert abs(lhs - library_bracket(zeta.zeta_iv(exponent(r))[0]).mid) < 1e-8

    def test_is_eta_at_a_large_k(self, table):
        # at k = 10^9, zeta((k+1)r) - 1 and x^(k+1) lie below every bracket's
        # width: the same walk
        assert solver.eta(table, 10**9, 1e-10).value == solver.eta_limit(table, 1e-10).value

    def test_is_eta_at_k_inf(self, table):
        limit = solver.eta_limit(table, 1e-10)
        assert solver.eta(table, math.inf, 1e-10) == replace(limit, method="bisection on T at m_k")


class TestR1Surrogate:
    def test_location(self, table):
        result = r1_surrogate(table, 1e-8)
        assert abs(result.value.mid - 1.864633) < 1e-5

    def test_below_true_threshold(self, table):
        surrogate = r1_surrogate(table, 1e-8)
        true_root = solver.r_threshold(table, 1, 1)
        assert surrogate.value.hi < true_root.value.lo

    def test_sign_change_across_bracket(self, table):
        result = r1_surrogate(table, 1e-8)
        assert v_func(table, 1, 1, result.value.lo) < 0
        assert v_func(table, 1, 1, result.value.hi) > 0

    def test_pinned_bracket(self, table):
        # bisection of [1.5, 7/3] by the shared walk
        result = r1_surrogate(table, 1e-8)
        assert (result.value.lo, result.value.hi) == (1.8646329852441947, 1.864632991453012)
        assert result.iterations == 27


class TestBisection:
    def test_indeterminate_sign_raises(self):
        # certified at both ends, indeterminate at every midpoint
        ends = {solver._START: Bracket(-2.0, -1.0), 2.0: Bracket(1.0, 2.0)}

        def value(r):
            return ends.get(r, Bracket(-1.0, 1.0))

        with pytest.raises(PrecisionError, match="indeterminate"):
            solver._solve(value, sign_of(value), no_guide, 1e-10, "test")

    def test_uncertified_start_raises(self):
        def value(r):
            return Bracket(1.0, 2.0) if r > 1.5 else Bracket(-1.0, 1.0)

        with pytest.raises(PrecisionError):
            solver._solve(value, sign_of(value), no_guide, 1e-10, "test")

    def test_a_bracket_at_2_that_straddles_0_raises(self):
        def value(r):
            return Bracket(-1.0, 1.0) if r == 2.0 else Bracket(-2.0, -1.0)

        with pytest.raises(PrecisionError, match="^test: sign not certified positive at r = 2$"):
            solver._solve(value, sign_of(value), no_guide, 1e-10, "test")

    def test_an_undecided_replay_falls_back_to_the_certified_walk(self):
        # The guide brackets the root, and the sign test is undecided
        # within GUIDE_NEAR of it: the replay gives up there, and the
        # certified walk then raises at a midpoint as near.
        root = 1.5 + 2**-20

        def value(r):
            if abs(r - root) <= solver.GUIDE_NEAR:
                return Bracket(-1.0, 1.0)
            return Bracket(1.0, 2.0) if r > root else Bracket(-2.0, -1.0)

        guide = Counting(lambda r: (r - root) * 1e-2)
        with pytest.raises(PrecisionError, match="indeterminate") as raised:
            solver._solve(value, sign_of(value), guide, 1e-14, "test")
        mid = float(str(raised.value).split("at r = ")[1].split(" in ")[0])
        assert abs(mid - root) <= solver.GUIDE_NEAR
        # the replay reached a midpoint where only a certified test decides
        assert any(abs(r - root) <= solver.GUIDE_NEAR for (r,) in guide.args)

    def test_refining_equals_solving_at_the_finer_eps(self, table):
        # bisection is deterministic: a 1e-10 bracket walked on to 1e-12 is
        # the 1e-12 solve, which the certified_only fixture relies on
        coarse = solver.r_threshold(table, 3, 2, 1e-10)
        sign = lambda r: density.t_func(table, 3, 2, r).certified_sign()  # noqa: E731
        lo, hi, steps = solver._walk(sign, coarse.value.lo, coarse.value.hi, 1e-12)
        fine = solver.r_threshold(table, 3, 2, 1e-12)
        assert (Bracket(lo, hi), coarse.iterations + steps) == (fine.value, fine.iterations)


@pytest.fixture(scope="module")
def certified_only(table):
    """The certified-only solve of T_k(m, .), the oracle for the guided
    one, keyed by (k, m, eps).  The 1e-13 root continues the certified
    1e-10 walk, which equals a fresh solve (see TestBisection)."""
    roots = {}

    def solve(k, m, eps):
        if (k, m, eps) not in roots:
            value = partial(density.t_func, table, k, m)
            if eps == 1e-13:
                coarse = solve(k, m, 1e-10)
                sign = lambda r: value(r).certified_sign()  # noqa: E731
                lo, hi, steps = solver._walk(sign, coarse.value.lo, coarse.value.hi, eps)
                roots[k, m, eps] = replace(
                    coarse,
                    value=Bracket(lo, hi),
                    iterations=coarse.iterations + steps,
                    residual=value(0.5 * (lo + hi)),
                )
            else:
                sign = partial(density.t_sign, table, k, m)
                roots[k, m, eps] = solver._solve(value, sign, no_guide, eps, "bisection on T")
        return roots[k, m, eps]

    return solve


class Counting:
    """A certified function, a value or a sign test, that records each
    evaluation's arguments."""

    def __init__(self, fn):
        self.fn = fn
        self.args = []

    def __call__(self, *args):
        self.args.append(args)
        return self.fn(*args)

    @property
    def calls(self):
        return len(self.args)


def counting_t(monkeypatch):
    """Count the solver's evaluations of T: (values, sign tests)."""
    value, sign = Counting(density.t_func), Counting(density.t_sign)
    monkeypatch.setattr(solver, "t_func", value)
    monkeypatch.setattr(solver, "t_sign", sign)
    return value, sign


class TestGuidedBisection:
    @pytest.mark.parametrize("eps", [1e-10, 1e-13])
    @pytest.mark.parametrize("k", range(1, 13))
    def test_r_threshold_is_the_certified_walk(self, table, certified_only, k, eps):
        for m in (1, 2):
            assert solver.r_threshold(table, k, m, eps) == certified_only(k, m, eps)
        assert solver.r_threshold(table, k, 4, eps).boundary

    @pytest.mark.parametrize("eps", [1e-10, 1e-13])
    @pytest.mark.parametrize("k", range(1, 13))
    def test_eta_is_the_certified_walk(self, table, certified_only, k, eps):
        oracle = certified_only(k, solver.m_selector(k), eps)
        assert solver.eta(table, k, eps) == replace(oracle, method="bisection on T at m_k")

    @pytest.mark.parametrize("eps", [solver.LIMIT_EPS, 1e-12])
    def test_eta_limit_is_the_certified_walk(self, table, eps):
        # the certified-only walk on the limit equation's closed form
        oracle = solver._solve(
            limit_equation,
            sign_of(limit_equation),
            no_guide,
            eps,
            "bisection on limit equation",
        )
        root = solver.eta_limit(table, eps)
        assert (root.value, root.iterations) == (oracle.value, oracle.iterations)

    @pytest.mark.parametrize(
        "lie",
        [lambda t, r: -1.0, lambda t, r: t(r) + 1e-3, lambda t, r: float("nan")],
        ids=["always-negative", "shifted", "nan"],
    )
    def test_a_lying_guide_falls_back_to_the_certified_walk(self, table, certified_only, lie):
        sign = Counting(partial(density.t_sign, table, 3, 2))
        guide = partial(lie, partial(density.t_float, table, 3, 2))
        value = partial(density.t_func, table, 3, 2)
        root = solver._solve(value, sign, guide, 1e-10, "bisection on T")
        assert root == certified_only(3, 2, 1e-10)
        # the certified walk tests every midpoint
        assert sign.calls > root.iterations

    @pytest.mark.parametrize(
        "guide", [no_guide, lambda r: -1.0, lambda r: 1.0], ids=["nan", "always-negative", "always-positive"]
    )
    def test_a_guide_that_brackets_no_root_takes_only_the_certified_walk(
        self, table, monkeypatch, certified_only, guide
    ):
        # no replay: the printed bracket at 2, the sign at the start, one
        # sign test a midpoint and the residual
        def replay(*args):
            raise AssertionError("a guide that brackets no root was replayed")

        oracle = certified_only(3, 2, 1e-10)
        monkeypatch.setattr(solver, "_guide_root", replay)
        value = Counting(partial(density.t_func, table, 3, 2))
        sign = Counting(partial(density.t_sign, table, 3, 2))
        root = solver._solve(value, sign, guide, 1e-10, "bisection on T")
        assert root == oracle
        assert (value.calls, sign.calls) == (2, root.iterations + 1)

    @pytest.mark.parametrize(
        "lie",
        [lambda r: 1.0, lambda r: 1.0 if r == 2.0 else -1.0],
        ids=["always-positive", "positive-only-at-2"],
    )
    @pytest.mark.parametrize("k", [1, 4])
    def test_a_guide_lying_at_2_keeps_the_boundary(self, table, monkeypatch, certified_only, k, lie):
        # T_k(4, 2) <= 0: the boundary verdict rests on a certified T(2),
        # whether the walk ends away from 2 or on it
        assert density.t_func(table, k, 4, 2.0).nonpositive()
        monkeypatch.setattr(solver, "t_float", lambda table, k, m, r: lie(r))
        root = solver.r_threshold(table, k, 4)
        assert root.boundary
        assert root == certified_only(k, 4, solver.DEFAULT_EPS)

    def test_a_root_takes_at_most_15_guide_evaluations(self, table, monkeypatch):
        # regula falsi finds the guide's root, and only midpoints within
        # GUIDE_NEAR of it read the guide again: 34 or more before
        guides = []

        def guide(table, k, m, r):
            guides.append(r)
            return density.t_float(table, k, m, r)

        monkeypatch.setattr(solver, "t_float", guide)
        for k in [*range(1, 13), math.inf]:
            for m in (1, 2):
                if k == math.inf and m == 1:
                    continue
                guides.clear()
                root = solver.r_threshold(table, k, m)
                assert root.iterations >= 34
                assert len(guides) == len(set(guides)) <= 15, (k, m)
        guides.clear()
        solver.eta_limit(table)
        assert len(guides) <= 15

    def test_the_guide_root_is_the_float_root(self, table):
        for k, m in ((1, 1), (3, 2), (math.inf, 2)):
            guide = partial(density.t_float, table, k, m)
            g = solver._guide_root(guide, solver._START, 2.0, guide(solver._START), guide(2.0))
            assert abs(guide(g)) <= solver.GUIDE_ROOT_VALUE or guide(g - 1e-13) < 0 < guide(g + 1e-13)
        # a linear guide lands on its root
        assert solver._guide_root(lambda r: r - 1.7, 1.0, 2.0, -0.7, 0.3) == pytest.approx(1.7, abs=1e-15)

    def test_r_threshold_certifies_few_points(self, table, monkeypatch):
        # the full-size residual and one endpoint sign test
        value, sign = counting_t(monkeypatch)
        root = solver.r_threshold(table, 3, 2)
        assert root.iterations == 34
        assert (value.calls, sign.calls) == (1, 1)

    @pytest.mark.parametrize(
        "k, m, side, end", [(1, 1, 1, "lo"), (3, 2, -1, "hi")], ids=["positive", "negative"]
    )
    def test_a_certified_residual_certifies_only_the_end_across_the_root(
        self, table, monkeypatch, k, m, side, end
    ):
        # T(mid) > 0 and T(lo) < 0 put a root in (lo, mid), and T(hi) >
        # T(mid) since T is increasing; symmetrically for T(mid) < 0
        value, sign = counting_t(monkeypatch)
        root = solver.r_threshold(table, k, m)
        assert root.residual.certified_sign() == side
        assert [args[3] for args in value.args] == [root.value.mid]
        assert [args[3] for args in sign.args] == [getattr(root.value, end)]

    def test_a_straddling_residual_certifies_both_ends(self):
        # f(r) = r - 1.7, whose full-size bracket is 2 eps wide, so it
        # straddles 0 at the final midpoint; the sign test decides the ends
        eps = 1e-10

        def f(r):
            return Bracket(r - 1.7 - 2 * eps, r - 1.7 + 2 * eps)

        def f_sign(r):
            return Bracket.exact(r - 1.7).certified_sign()

        sign = Counting(f_sign)
        root = solver._solve(f, sign, lambda r: r - 1.7, eps, "test")
        assert root.residual.certified_sign() is None
        assert [args[0] for args in sign.args] == [root.value.lo, root.value.hi]
        assert root == solver._solve(f, f_sign, no_guide, eps, "test")

    def test_a_boundary_certifies_only_2(self, table, monkeypatch):
        # the boundary prints its bracket at 2: one full-size value, no sign test
        value, sign = counting_t(monkeypatch)
        assert solver.r_threshold(table, 1, 4).boundary
        assert (value.calls, sign.calls) == (1, 0)

    def test_eta_certifies_the_endpoints_and_the_residual(self, table, monkeypatch):
        # the residual, then the one endpoint on the other side of the root
        log_g = Counting(density.log_g_iv)  # density.t_at's
        monkeypatch.setattr(density, "log_g_iv", log_g)
        _, sign = counting_t(monkeypatch)
        assert solver.eta(table, 4).iterations == 34
        assert (log_g.calls, sign.calls) == (1, 1)

    def test_eta_limit_certifies_the_endpoints_and_the_residual(self, table, monkeypatch):
        # the residual, then the one endpoint on the other side of the root
        log_g = Counting(density.log_g_iv)  # density.t_at's
        monkeypatch.setattr(density, "log_g_iv", log_g)
        _, sign = counting_t(monkeypatch)
        assert solver.eta_limit(table).iterations == 30
        assert (log_g.calls, sign.calls) == (1, 1)

    def test_an_undecided_sign_test_escalates_to_the_full_size(self, table, monkeypatch):
        # at 1e-13 the lower endpoint of R_7(1) is within the sign size's
        # width of the root; the sign of its printed full-size T bracket
        # decides it, and the solve is still the certified-only walk
        oracle = solver._solve(
            partial(density.t_func, table, 7, 1),
            partial(density.t_sign, table, 7, 1),
            no_guide,
            1e-13,
            "bisection on T",
        )
        value, sign = counting_t(monkeypatch)
        product_sizes = []
        original = zeta.zeta_iv

        def spy(s, size=zeta.FULL_SIZE):
            product_sizes.append(size)
            return original(s, size)

        # density.zeta_iv is the product sign test's; the log form goes
        # through zeta.log_g_iv
        monkeypatch.setattr(density, "zeta_iv", spy)
        root = solver.r_threshold(table, 7, 1, 1e-13)
        assert root == oracle
        assert root.value.lo == 1.9401015191900979
        assert [args[3] for args in value.args] == [1.9401015191900979, root.value.mid]
        assert 1.9401015191900979 in [args[3] for args in sign.args]
        # no product sign test at the full size
        assert product_sizes and set(product_sizes) == {zeta.SIGN_SIZE}

    def test_eta_never_escalates_at_the_default_eps(self, table, monkeypatch):
        log_g = Counting(density.log_g_iv)  # density.t_at's
        monkeypatch.setattr(density, "log_g_iv", log_g)
        _, sign = counting_t(monkeypatch)
        for k in range(1, 11):
            solver.eta(table, k)
        # every full-size evaluation is a residual, and every root takes
        # one endpoint sign test
        assert (log_g.calls, sign.calls) == (10, 10)


def test_zeta_calls_over_the_solve_set(table, monkeypatch):
    # every threshold of k = 1..10 and the limit at two tolerances: the
    # sign tests read their powers from the zeta tables without changing
    # how often a sign-size test is undecided and escalates
    sizes = []
    original = zeta.zeta_iv

    def spy(s, size=zeta.FULL_SIZE):
        sizes.append(size)
        return original(s, size)

    for module in (zeta, density, solver):
        monkeypatch.setattr(module, "zeta_iv", spy)
    for eps in (1e-10, 1e-13):
        for k in range(1, 11):
            for m in (1, 2, 4):
                solver.r_threshold(table, k, m, eps)
        solver.eta_limit(table, eps)
    assert (sizes.count(zeta.FULL_SIZE), sizes.count(zeta.SIGN_SIZE)) == (124, 255)


def _row(table, k, eps=solver.DEFAULT_EPS):
    root = solver.r_threshold(table, k, solver.m_selector(k), eps)
    return solver.EtaRow(k=k, m_min=solver.m_selector(k), thresholds={}, eta=root)


class TestEtaTable:
    def test_small_table(self, table):
        tab = solver.eta_table(table, 3)
        assert [row.k for row in tab.rows] == [1, 2, 3]
        assert tab.rows[0].m_min == 1
        assert all(row.m_min == 2 for row in tab.rows[1:])
        for row in tab.rows:
            assert 1 < row.eta.value.lo and row.eta.value.hi < 2
            assert row.thresholds[4].boundary
            assert row.eta is row.thresholds[row.m_min]

    def test_solves_each_threshold_once(self, table, monkeypatch):
        calls = []
        for name in ("r_threshold", "eta"):
            original = getattr(solver, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(solver, name, spy)
        tab = solver.eta_table(table, 20)
        assert calls == ["r_threshold"] * 60
        # every row's eta is its threshold at m_k, at the requested eps
        for row in tab.rows:
            assert row.eta.value.width <= solver.DEFAULT_EPS
            assert row.eta == solver.r_threshold(table, row.k, solver.m_selector(row.k))

    def test_rows_tied_at_the_floor_are_accepted(self, table):
        # from k = 12 adjacent brackets overlap at 1e-14; the lemma orders them
        eleven, twelve = _row(table, 11, 1e-14), _row(table, 12, 1e-14)
        assert twelve.eta.value.lo <= eleven.eta.value.hi
        solver.EtaTable(rows=(eleven, twelve))

    def test_certified_decrease_raises(self, table):
        one, two = _row(table, 1), _row(table, 2)
        with pytest.raises(PrecisionError, match=r"eta\(1\) is certified below eta\(2\)"):
            solver.EtaTable(rows=(two, one))

    def test_invariants(self, table):
        one, two = _row(table, 1), _row(table, 2)
        solver.EtaTable(rows=(one, two))

    def test_k_max_above_capacity_solves_nothing(self, table, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("eta_table must not solve above its capacity")

        monkeypatch.setattr(solver, "r_threshold", no_solve)
        with pytest.raises(CapacityError, match=f"try {solver.ETA_TABLE_MAX_K} or less$"):
            solver.eta_table(table, solver.ETA_TABLE_MAX_K + 1)
