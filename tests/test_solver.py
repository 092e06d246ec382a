from dataclasses import replace
from functools import partial

import pytest
from mpmath import iv

from sigma_density import density, solver
from sigma_density.brackets import Bracket
from sigma_density.errors import CapacityError, DomainError, PrecisionError
from sigma_density.zeta import iv_pow, log_g_iv, to_iv


def eta_defining_sign(k, r):
    """The paper's defining equation for eta_k in log form, as its own
    interval expression: an oracle for :func:`solver.eta`, which solves
    the same equation as T_k(m_k, r) = 0."""
    r_iv = to_iv(r)
    if k == 1:
        lhs = 2 * iv.log(1 + iv_pow(iv.mpf(2), -r_iv))
    else:
        s2 = iv.mpf(0)
        s3 = iv.mpf(0)
        for j in range(k + 1):
            s2 += iv_pow(iv.mpf(2), -j * r_iv)
            s3 += iv_pow(iv.mpf(3), -j * r_iv)
        lhs = iv.log(s2) + iv.log(s3) + iv.log(1 + iv_pow(iv.mpf(3), -r_iv))
    return Bracket.from_iv(lhs - log_g_iv(k, r_iv))


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
        assert solver.m_selector(table, 1) == 1
        assert solver.m_selector(table, 2) == 2
        assert solver.m_selector(table, 10) == 2


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

    def test_approaches_limit(self, table):
        eta30 = solver.eta(table, 30)
        limit = solver.eta_limit(1e-9)
        assert abs(eta30.value.mid - limit.value.mid) < 1e-6
        for k in (1, 5, 15, 30):
            assert solver.eta(table, k).value.lo < limit.value.hi


class TestEtaLimit:
    def test_guide_within_the_solver_margin(self):
        # solver.GUIDE_ERROR assumes the guide is within 2e-15 on [1.0001, 2]
        for r in (1.0001, 1.2, 1.6, 1.88, 1.89, 2.0):
            b = solver._limit_sign(r)
            assert b.lo - 2e-15 <= solver._limit_guide(r) <= b.hi + 2e-15

    def test_published_value(self, table):
        result = solver.eta_limit(1e-9)
        assert result.value.width <= 1e-9
        assert result.value.lo <= 1.8877909 <= result.value.hi or abs(
            result.value.mid - 1.8877909
        ) < 1e-7

    def test_residual(self):
        import math

        result = solver.eta_limit(1e-9)
        r = result.value.mid
        lhs = (2**r / (2**r - 1)) * ((3**r + 1) / (3**r - 1))
        from sigma_density.zeta import zeta

        assert abs(lhs - zeta(r, 1e-10).mid) < 1e-8


class TestR1Surrogate:
    def test_location(self, table):
        result = solver.r1_surrogate(table, 1e-8)
        assert abs(result.value.mid - 1.864633) < 1e-5

    def test_below_true_threshold(self, table):
        surrogate = solver.r1_surrogate(table, 1e-8)
        true_root = solver.r_threshold(table, 1, 1)
        assert surrogate.value.hi < true_root.value.lo

    def test_sign_change_across_bracket(self, table):
        result = solver.r1_surrogate(table, 1e-8)
        assert density.v_func(table, 1, 1, result.value.lo) < 0
        assert density.v_func(table, 1, 1, result.value.hi) > 0

    def test_pinned_bracket(self, table):
        # bisection of [1.5, 7/3] by the shared walk
        result = solver.r1_surrogate(table, 1e-8)
        assert (result.value.lo, result.value.hi) == (1.8646329852441947, 1.864632991453012)
        assert result.iterations == 27


class TestBisection:
    def test_indeterminate_sign_raises(self):
        start = solver.RootResult(Bracket(1.0001, 2.0), 0, Bracket(1.0, 1.0), "test")
        with pytest.raises(PrecisionError):
            solver._bisect(lambda r: Bracket(-1.0, 1.0), start, 1e-10)

    def test_uncertified_start_raises(self):
        def sign_fn(r):
            return Bracket(1.0, 2.0) if r > 1.5 else Bracket(-1.0, 1.0)

        with pytest.raises(PrecisionError):
            solver._solve(sign_fn, sign_fn(2.0), 1e-10, "test")

    def test_refining_equals_solving_at_the_finer_eps(self, table):
        coarse = solver.r_threshold(table, 3, 2, 1e-10)
        refined = solver._bisect(lambda r: density.t_func(table, 3, 2, r), coarse, 1e-12)
        assert refined == solver.r_threshold(table, 3, 2, 1e-12)


@pytest.fixture(scope="module")
def certified_only(table):
    """The certified-only solve of T_k(m, .), the oracle for the guided
    one, keyed by (k, m, eps).  The 1e-13 root continues the 1e-10 walk,
    which equals a fresh solve (see TestBisection)."""
    roots = {}

    def solve(k, m, eps):
        if (k, m, eps) not in roots:
            sign_fn = partial(density.t_func, table, k, m)
            if eps == 1e-13:
                roots[k, m, eps] = solver._bisect(sign_fn, solve(k, m, 1e-10), eps)
            else:
                roots[k, m, eps] = solver._solve(sign_fn, sign_fn(2.0), eps, "bisection on T")
        return roots[k, m, eps]

    return solve


class CountingSign:
    """A certified function that counts its evaluations."""

    def __init__(self, sign_fn):
        self.sign_fn = sign_fn
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        return self.sign_fn(*args)


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
        oracle = certified_only(k, solver._m_k(k), eps)
        assert solver.eta(table, k, eps) == replace(oracle, method="bisection on T at m_k")

    @pytest.mark.parametrize("eps", [solver.LIMIT_EPS, 1e-12])
    def test_eta_limit_is_the_certified_walk(self, eps):
        oracle = solver._solve(
            solver._limit_sign, solver._limit_sign(2.0), eps, "bisection on limit equation"
        )
        assert solver.eta_limit(eps) == oracle

    @pytest.mark.parametrize(
        "lie",
        [lambda t, r: -1.0, lambda t, r: t(r) + 1e-3, lambda t, r: float("nan")],
        ids=["always-negative", "shifted", "nan"],
    )
    def test_a_lying_guide_falls_back_to_the_certified_walk(self, table, certified_only, lie):
        sign_fn = CountingSign(partial(density.t_func, table, 3, 2))
        guide = partial(lie, partial(density.t_float, table, 3, 2))
        root = solver._solve(sign_fn, sign_fn(2.0), 1e-10, "bisection on T", guide)
        assert root == certified_only(3, 2, 1e-10)
        # the certified walk tests every midpoint
        assert sign_fn.calls > root.iterations

    def test_r_threshold_certifies_few_points(self, table, monkeypatch):
        sign_fn = CountingSign(density.t_func)
        monkeypatch.setattr(solver, "t_func", sign_fn)
        root = solver.r_threshold(table, 3, 2)
        assert root.iterations == 34
        assert sign_fn.calls <= 8


def _row(table, k, eps=solver.DEFAULT_EPS):
    root = solver.r_threshold(table, k, solver._m_k(k), eps)
    return solver.EtaRow(k=k, m_min=solver._m_k(k), thresholds={}, eta=root)


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
        for name in ("r_threshold", "eta", "_refine"):
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
            assert row.eta == solver.r_threshold(table, row.k, solver._m_k(row.k))

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
        with pytest.raises(PrecisionError, match="differs from m_k"):
            solver.EtaTable(rows=(one, solver.EtaRow(k=2, m_min=1, thresholds={}, eta=two.eta)))

    def test_k_max_above_capacity_solves_nothing(self, table, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("eta_table must not solve above its capacity")

        monkeypatch.setattr(solver, "r_threshold", no_solve)
        with pytest.raises(CapacityError) as excinfo:
            solver.eta_table(table, solver.ETA_TABLE_MAX_K + 1)
        assert excinfo.value.suggested_bound == solver.ETA_TABLE_MAX_K
