import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nck import norms
from nck.exceptions import DegenerateWeight, DimensionMismatch, NonFinite, NormOverflow, ZeroWitness
from nck.linalg import trace_norm
from nck.norms import (
    dual_norm,
    pairing_certificate,
    triple_norm,
    weighted_triple_norm,
)

RNG = np.random.default_rng(512)


def random_tuple(d, n, rng=RNG):
    return rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))


def first_column_units(d):
    x = np.zeros((d, d, d), dtype=complex)
    x[np.arange(d), np.arange(d), 0] = 1.0
    return x


class TestTripleNorm:
    def test_scalar_one(self):
        assert triple_norm([[[1.0 + 0j]]]) == pytest.approx(1.0)

    def test_orthogonal_ranges(self):
        x = np.zeros((2, 2, 2), dtype=complex)
        x[0, 0, 0] = 1.0
        x[1, 1, 1] = 1.0
        assert triple_norm(x) == pytest.approx(1.0)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_first_column_units(self, d):
        # oracle: direct Gram computation; columns pile up d-fold, rows spread
        x = first_column_units(d)
        col = sum(x[i].conj().T @ x[i] for i in range(d))
        row = sum(x[i] @ x[i].conj().T for i in range(d))
        assert np.linalg.norm(col, 2) == pytest.approx(d)
        assert np.linalg.norm(row, 2) == pytest.approx(1.0)
        assert triple_norm(x) == pytest.approx(np.sqrt(d))


class TestWeightedTripleNorm:
    def test_all_weights_one_is_column_norm(self):
        x = random_tuple(3, 2)
        col = sum(x[i].conj().T @ x[i] for i in range(3))
        assert weighted_triple_norm(x, np.ones(3)) == pytest.approx(
            np.sqrt(np.linalg.norm(col, 2))
        )

    def test_scalar_half_weight(self):
        assert weighted_triple_norm([[[1.0 + 0j]]], [0.5]) == pytest.approx(1 / np.sqrt(2))

    def test_half_weights_scale_identity(self):
        x = random_tuple(4, 3)
        assert weighted_triple_norm(x, np.full(4, 0.5)) == pytest.approx(
            triple_norm(x) / np.sqrt(2), rel=1e-12
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            weighted_triple_norm(random_tuple(3, 2), [0.5, 0.5])


def two_call_primal_norm(x, nu=None):
    """Reference: each Gram's top eigenvalue from its own ``gram_norm`` call."""
    x = np.asarray(x, dtype=complex)
    if nu is None:
        col, row = norms._col_gram(x), norms._row_gram(x)
    else:
        w = np.asarray(nu, dtype=float)
        col, row = norms._col_gram(x, w), norms._row_gram(x, 1.0 - w)
    return max(
        float(np.sqrt(max(norms.gram_norm(col), 0.0))),
        float(np.sqrt(max(norms.gram_norm(row), 0.0))),
    )


class TestPrimalNormInOneCall:
    """Both Grams' top eigenvalues from one stacked ``eigvalsh`` give, bit for
    bit, the primal norms of one ``gram_norm`` call per Gram."""

    def test_bit_equal_to_two_calls(self):
        rng = np.random.default_rng(1818)
        for k in range(200):
            d, n = (int(v) for v in rng.integers(0, 5, 2))
            x = random_tuple(d, n, rng) * 10.0 ** rng.uniform(-4, 4)
            nu = rng.uniform(0.0, 1.0, d)
            assert triple_norm(x) == two_call_primal_norm(x), (k, d, n)
            assert weighted_triple_norm(x, nu) == two_call_primal_norm(x, nu), (k, d, n)

    def test_empty_tuple_is_zero(self):
        x = np.zeros((2, 0, 0), dtype=complex)
        assert triple_norm(x) == 0.0
        assert weighted_triple_norm(x, [0.5, 0.5]) == 0.0


class TestNormOverflow:
    """A finite tuple whose Grams overflow has no finite norm; each norm that
    reads it raises, and no numpy warning escapes (tier-1 turns one into an
    error)."""

    HUGE = pytest.mark.parametrize(
        "x", [np.full((3, 1, 1), 1e160 + 0j), np.full((3, 2, 2), 1e200 * (1 + 1j))],
        ids=["real", "complex"],
    )

    @HUGE
    def test_primal_norms_raise(self, x):
        with pytest.raises(NormOverflow, match="overflows") as exc:
            triple_norm(x)
        assert isinstance(exc.value, NonFinite)
        with pytest.raises(NormOverflow, match="overflows"):
            weighted_triple_norm(x, [0.3, 0.5, 0.7])

    @HUGE
    @pytest.mark.parametrize("nu", [None, [0.3, 0.5, 0.7]], ids=["unweighted", "weighted"])
    def test_dual_norm_raises(self, x, nu):
        with pytest.raises(NormOverflow, match="overflows"):
            dual_norm(x, nu=nu)

    def test_large_finite_norms_are_returned(self):
        x = np.full((3, 1, 1), 1e150 + 0j)
        assert triple_norm(x) == pytest.approx(np.sqrt(3) * 1e150, rel=1e-15)
        assert weighted_triple_norm(x, [0.3, 0.5, 0.7]) == pytest.approx(
            np.sqrt(1.5) * 1e150, rel=1e-15)


def scalar_dual_oracle(x1, x2, grid=401, width=3.0):
    """Grid search over real decompositions for a d=2 scalar tuple."""
    ys = np.linspace(-width, width, grid)
    best = np.inf
    for y1 in ys:
        for y2 in ys:
            z1, z2 = x1 - y1, x2 - y2
            val = np.hypot(y1, y2) + np.hypot(z1, z2)
            best = min(best, val)
    return best


class TestDualNorm:
    def test_zero_tuple(self):
        res = dual_norm(np.zeros((2, 3, 3)))
        assert res.value == 0.0 and res.converged and res.iterations == 0

    def test_d1_equals_trace_norm(self):
        # oracle at d=1: no split beats the triangle inequality
        x = random_tuple(1, 3)
        tn = trace_norm(x[0])
        for _ in range(50):
            y = random_tuple(1, 3)
            split = trace_norm(y[0]) + trace_norm(x[0] - y[0])
            assert split >= tn - 1e-12
        res = dual_norm(x)
        assert res.value == pytest.approx(tn, abs=1e-8)

    def test_weighted_scalar_half(self):
        res = dual_norm(np.array([[[1.0 + 0j]]]), nu=[0.5])
        assert res.value == pytest.approx(np.sqrt(2), abs=1e-8)

    def test_two_scalars_grid_oracle(self):
        x = np.array([[[1.0 + 0j]], [[1.0 + 0j]]])
        oracle = scalar_dual_oracle(1.0, 1.0)
        res = dual_norm(x)
        assert oracle == pytest.approx(np.sqrt(2), abs=1e-2)
        assert res.value == pytest.approx(np.sqrt(2), abs=1e-7)
        # the dual pairing with b = (1,1)/sqrt(2) attains it
        b = np.array([[[1.0 + 0j]], [[1.0 + 0j]]]) / np.sqrt(2)
        assert pairing_certificate(x, b) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_decomposition_is_feasible(self):
        x = random_tuple(3, 3)
        res = dual_norm(x)
        scale = 1.0 + np.abs(x).max()
        assert np.abs(res.y + res.z - x).max() <= 1e-8 * scale

    def test_gap_nonnegative_and_small(self):
        for _ in range(20):
            d, n = int(RNG.integers(1, 5)), int(RNG.integers(1, 5))
            res = dual_norm(random_tuple(d, n))
            assert res.gap >= -1e-7
            assert res.gap <= 1e-5
            assert res.converged

    def test_duality_sandwich_random(self):
        for _ in range(30):
            d, n = int(RNG.integers(1, 5)), int(RNG.integers(1, 5))
            x = random_tuple(d, n)
            res = dual_norm(x)
            trivial = trace_norm(x.reshape(d * n, n))
            assert res.value <= trivial + 1e-7
            if res.certificate is not None:
                assert pairing_certificate(x, res.certificate) <= res.value + 1e-7

    @given(st.floats(0.2, 5.0))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_homogeneity(self, alpha):
        x = random_tuple(2, 2, np.random.default_rng(7))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(norms, "GAP_TOL", 1e-9)
            base = dual_norm(x).value
            scaled = dual_norm(alpha * x).value
        assert scaled == pytest.approx(alpha * base, rel=1e-6)

    def test_triangle_inequality(self):
        for _ in range(10):
            d, n = int(RNG.integers(1, 4)), int(RNG.integers(1, 4))
            x1, x2 = random_tuple(d, n), random_tuple(d, n)
            v = dual_norm(x1 + x2).value
            assert v <= dual_norm(x1).value + dual_norm(x2).value + 1e-6

    def test_weighted_duality_pairing(self):
        for _ in range(15):
            d, n = int(RNG.integers(1, 4)), int(RNG.integers(1, 4))
            nu = RNG.uniform(0.1, 0.9, d)
            x, b = random_tuple(d, n), random_tuple(d, n)
            pairing = abs(np.einsum("iab,iba->", x, b))
            bound = weighted_triple_norm(b, nu) * dual_norm(x, nu=nu).value
            assert pairing <= bound * (1.0 + 1e-5)

    def test_half_weights_scale_sqrt2(self):
        for _ in range(5):
            d, n = int(RNG.integers(1, 4)), int(RNG.integers(1, 4))
            x = random_tuple(d, n)
            vw = dual_norm(x, nu=np.full(d, 0.5)).value
            vu = dual_norm(x).value
            assert vw == pytest.approx(np.sqrt(2) * vu, rel=1e-5)

    @pytest.mark.parametrize("nu", [0.2, 0.5, 0.8])
    def test_weighted_scalar_closed_form(self, nu, monkeypatch):
        # oracle: inf |v|/sqrt(nu) + |z|/sqrt(1-nu) over v + z = 1 puts all
        # mass on the cheaper term, giving 1/sqrt(max(nu, 1-nu))
        monkeypatch.setattr(norms, "GAP_TOL", 1e-9)
        res = dual_norm(np.array([[[1.0 + 0j]]]), nu=[nu])
        assert res.value == pytest.approx(1.0 / np.sqrt(max(nu, 1.0 - nu)), abs=1e-8)

    def test_nonconvergence_flagged(self, monkeypatch):
        monkeypatch.setattr(norms, "MAX_ITER", 1)
        x = random_tuple(3, 3, np.random.default_rng(1))
        res = dual_norm(x)
        assert not res.converged
        assert res.gap > 1e-5

    @pytest.mark.parametrize("nu", [None, [0.3, 0.6]])
    def test_exit_between_schedule_points_is_certified(self, nu, monkeypatch):
        # three iterations end before the first scheduled evaluation; the
        # budget exit still evaluates, so the certificate is a computed bound
        monkeypatch.setattr(norms, "MAX_ITER", 3)
        x = random_tuple(2, 3, np.random.default_rng(3))
        res = dual_norm(x, nu=nu)
        assert res.iterations == 3
        assert res.certificate is not None
        cert = pairing_certificate(x, res.certificate, nu)
        assert cert == pytest.approx(res.value - res.gap, abs=1e-9)

    def test_slow_tail_instance(self):
        # criterion 7's slowest instance under plain Douglas-Rachford (index
        # 72 of default_rng(707)): 9088 iterations without acceleration,
        # about 400 with it
        rng = np.random.default_rng(707)
        for _ in range(73):
            d, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            x = random_tuple(d, n, rng)
        assert x.shape == (2, 4, 4)
        res = dual_norm(x)
        assert res.iterations < 1000
        assert res.converged and res.gap <= 1e-5
        assert pairing_certificate(x, res.certificate) == pytest.approx(
            res.value - res.gap, abs=1e-9
        )

    def test_near_rank_deficient_instance_status(self):
        # a nearly rank-deficient tuple: plain Douglas-Rachford spends the
        # whole budget and stops at value 3.00075034 with gap 2.28e-6, above
        # GAP_TOL; the accelerated loop certifies GAP_TOL within budget, at a
        # value inside that old certified bracket
        x = np.zeros((2, 3, 3), dtype=complex)
        x[0] = np.diag([1.0, 2.0, 0.0])
        x[1] = 1e-3 * np.random.default_rng(5).standard_normal((3, 3))
        res = dual_norm(x)
        assert res.iterations < norms.MAX_ITER
        assert res.gap <= norms.GAP_TOL
        assert res.converged
        assert 3.00075034 - 2.28e-6 <= res.value <= 3.00075034 + 1e-8
        assert pairing_certificate(x, res.certificate) == pytest.approx(
            res.value - res.gap, abs=1e-9
        )

    @pytest.mark.parametrize(
        "x,nu",
        [
            (np.stack((np.diag([1.0, 2.0, 0.0]),
                       1e-3 * np.random.default_rng(5).standard_normal((3, 3)))).astype(complex),
             None),
            (random_tuple(3, 2, np.random.default_rng(8)), [0.2, 0.5, 0.9]),
        ],
        ids=["near-rank-deficient", "weighted"],
    )
    def test_safeguard_falls_back_to_the_plain_step(self, x, nu, monkeypatch):
        # a spy on the map records the state of every iteration and its
        # relaxed residual, the step the loop takes; when an extrapolated
        # state's residual exceeds that of the state it came from, the loop
        # moves to the unextrapolated step from the earlier state and, its
        # memory cleared, takes an unextrapolated step from there
        calls = []
        dr_step = norms._dr_step

        def spy(s, step, project):
            out = dr_step(s, step, project)
            calls.append((s.copy(), norms.RELAXATION * out[2]))
            return out

        monkeypatch.setattr(norms, "_dr_step", spy)
        res = dual_norm(x, nu)
        monkeypatch.undo()

        def res2(ds):
            r = ds.view(float).ravel()
            return r @ r

        fired = 0
        for (s0, d0), (s1, d1), (s2, d2), (s3, _) in zip(calls, calls[1:], calls[2:], calls[3:]):
            if not np.array_equal(s1, s0 + d0) and res2(d1) > res2(d0):
                fired += 1
                assert np.array_equal(s2, s0 + d0)
                assert np.array_equal(s3, s2 + d2)
        assert fired > 0
        assert res.converged and res.gap <= norms.GAP_TOL
        assert pairing_certificate(x, res.certificate, nu) == pytest.approx(
            res.value - res.gap, abs=1e-9
        )

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_degenerate_weights_rejected(self, bad):
        with pytest.raises(DegenerateWeight):
            dual_norm(random_tuple(2, 2), nu=[0.5, bad])

    def test_first_column_units_value(self):
        # primal converges to sqrt(d) even though the optimum is degenerate
        x = first_column_units(3)
        res = dual_norm(x)
        assert res.value == pytest.approx(np.sqrt(3), abs=1e-6)


class TestAffineProjection:
    """``_affine_projection(xs, ab)`` is the projection onto ``alpha t_0 + beta t_1* = xs``."""

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("d,n", [(d, n) for d in range(1, 5) for n in range(1, 5)])
    def test_projection(self, d, n, weighted):
        rng = np.random.default_rng(100 * d + 10 * n + weighted)
        xs = random_tuple(d, n, rng)
        if weighted:
            nu = rng.uniform(0.05, 0.95, d)
            alpha, beta = np.sqrt(nu), np.sqrt(1.0 - nu)
        else:
            alpha = beta = np.ones(d)
        ab = np.stack((alpha, beta))[:, :, None, None]
        a3, b3 = ab
        project = norms._affine_projection(xs, ab)
        t = np.stack((random_tuple(d, n, rng), random_tuple(d, n, rng)))
        before = t.copy()
        p = project(t)
        tol = 1e-13 * np.abs(xs).max()
        adj = norms._adjoint
        assert np.array_equal(t, before)
        # feasible
        assert np.abs(a3 * p[0] + b3 * adj(p[1]) - xs).max() <= tol
        # idempotent
        assert np.abs(project(p) - p).max() <= tol
        # the written residual form t + (alpha r, beta r*)
        r = (xs - a3 * t[0] - b3 * adj(t[1])) / (a3**2 + b3**2)
        written = np.stack((t[0] + a3 * r, t[1] + b3 * adj(r)))
        assert np.abs(p - written).max() <= tol


def two_variable_dual_norm(x, nu=None, trajectory=None):
    """Reference: the plain Douglas-Rachford loop with ``u`` and ``w`` stepped apart.

    ``u`` is the column stack and ``w`` the row stack (swapped when
    weighted), each thresholded by its own SVD, with the same step,
    schedule, projection and certificate as :func:`dual_norm`, and no
    acceleration.  When ``trajectory`` is a list, each iteration appends
    its thresholded point and its next state, ``(u1, w1, su, sw)``.
    Returns ``(value, gap, y, z, iterations, certificate)``.
    """
    x = np.asarray(x, dtype=complex)
    d, n, _ = x.shape

    def col(t):
        return t.reshape(d * n, n)

    def uncol(m):
        return m.reshape(d, n, n)

    def row(t):
        return t.transpose(1, 0, 2).reshape(n, d * n)

    def unrow(m):
        return m.reshape(n, d, n).transpose(1, 0, 2)

    def svt(m, t):
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        return (u * np.maximum(s - t, 0.0)) @ vh

    def nuclear_and_polar(m):
        u, s, vh = np.linalg.svd(m, full_matrices=False)
        if s[0] <= 0.0:
            return float(s.sum()), np.zeros_like(m)
        keep = s > 1e-8 * s[0]
        return float(s.sum()), u[:, keep] @ vh[keep, :]

    if nu is None:
        w = None
        alpha = beta = np.ones(d)
        (st_u, un_u), (st_w, un_w) = (col, uncol), (row, unrow)
    else:
        w = np.asarray(nu, dtype=float)
        alpha, beta = np.sqrt(w), np.sqrt(1.0 - w)
        (st_u, un_u), (st_w, un_w) = (row, unrow), (col, uncol)
    scale = float(np.abs(x).max())
    step = triple_norm(x)
    a3, b3 = alpha[:, None, None], beta[:, None, None]
    denom = a3**2 + b3**2

    def project(u, wv):
        r = (x - a3 * u - b3 * wv) / denom
        return u + a3 * r, wv + b3 * r

    su = np.zeros_like(x)
    sw = np.zeros_like(x)
    best_primal, best_cert = None, (0.0, None)
    for it in range(1, norms.MAX_ITER + 1):
        u1 = un_u(svt(st_u(su), step))
        w1 = un_w(svt(st_w(sw), step))
        lam_u = (u1 - su) / (step * a3)
        lam_w = (w1 - sw) / (step * b3)
        u2, w2 = project(2 * u1 - su, 2 * w1 - sw)
        du, dw = u2 - u1, w2 - w1
        su += du
        sw += dw
        if trajectory is not None:
            trajectory.append((u1, w1, su.copy(), sw.copy()))
        change = max(float(np.abs(du).max()), float(np.abs(dw).max()))
        stalled = change <= norms.CHANGE_TOL * (1.0 + scale)
        if it % norms.CERT_EVERY and not stalled and it < norms.MAX_ITER:
            continue
        uf, wf = project(u1, w1)
        nuc_u, polar_u = nuclear_and_polar(st_u(uf))
        nuc_w, polar_w = nuclear_and_polar(st_w(wf))
        witnesses = np.stack(
            (lam_u, lam_w, un_u(polar_u) / a3, un_w(polar_w) / b3)
        ).conj().swapaxes(-1, -2)
        pairings, pnorms = norms._witness_scores(x, witnesses, w)
        scores = np.divide(pairings, pnorms, out=np.zeros_like(pnorms), where=pnorms > 1e-300)
        best = int(np.argmax(scores))
        if best_primal is None or nuc_u + nuc_w < best_primal[0]:
            best_primal = (nuc_u + nuc_w, uf, wf)
        if scores[best] > best_cert[0]:
            best_cert = (float(scores[best]), witnesses[best])
        if best_primal[0] - best_cert[0] <= norms.GAP_TOL or stalled:
            break
    value, uf, wf = best_primal
    return value, value - best_cert[0], a3 * uf, b3 * wf, it, best_cert[1]


def equivalence_instances():
    rng = np.random.default_rng(909)
    for k in range(24):
        d, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        x = random_tuple(d, n, rng)
        nu = rng.uniform(0.05, 0.95, d) if k % 2 else None
        trajectory = []
        reference = two_variable_dual_norm(x, nu, trajectory)
        yield x, nu, reference, trajectory


class TestStackedStateEquivalence:
    """The stacked state's Douglas-Rachford map takes the two-variable loop's
    path step for step; the accelerated whole solve agrees with that loop to
    within the two certified gaps."""

    @pytest.fixture(scope="class")
    def instances(self):
        return list(equivalence_instances())

    def test_matches_two_variable_loop(self, instances):
        # drive the loop's own map without acceleration from the zero state;
        # held in y and z units, u = y / alpha and w = z / beta, the state is
        # (u, w*) unweighted and (u*, w) weighted
        adj = norms._adjoint
        for k, (x, nu, reference, trajectory) in enumerate(instances):
            d = x.shape[0]
            if nu is None:
                alpha = beta = np.ones(d)
                xs = x
                to_yz = lambda t: (t[0], adj(t[1]))          # noqa: E731
            else:
                alpha, beta = np.sqrt(nu), np.sqrt(1.0 - nu)
                xs = adj(x)
                to_yz = lambda t: (adj(t[0]), t[1])          # noqa: E731
            ab = np.stack((alpha, beta))[:, :, None, None]
            a3, b3 = ab
            project = norms._affine_projection(xs, ab)
            step = triple_norm(x)
            scale = np.abs(x).max()
            s = np.zeros((2,) + x.shape, dtype=complex)
            assert len(trajectory) == reference[4]
            for u1, w1, su, sw in trajectory:
                s1, _, ds = norms._dr_step(s, step, project)
                s = s + ds
                for state, (u, wv) in ((s1, (u1, w1)), (s, (su, sw))):
                    y, z = to_yz(ab * state)
                    assert np.abs(y - a3 * u).max() <= 1e-12 * scale, (k, d)
                    assert np.abs(z - b3 * wv).max() <= 1e-12 * scale, (k, d)

    def test_solve_agrees_within_certified_gaps(self, instances):
        # both solves bracket the same infimum from above by value and from
        # below by value - gap, so their values differ by at most either gap;
        # a gap certified to zero can come out a rounding error below it, so
        # the values keep their rel 1e-12 allowance for rounding
        for k, (x, nu, reference, _) in enumerate(instances):
            value, gap, _, _, _, certificate = reference
            res = dual_norm(x, nu)
            assert res.converged and res.gap <= norms.GAP_TOL
            assert abs(res.value - value) <= max(res.gap, gap, 0.0) + 1e-12 * value, k
            assert pairing_certificate(x, res.certificate, nu) == pytest.approx(
                res.value - res.gap, abs=1e-9
            )
            assert pairing_certificate(x, certificate, nu) == pytest.approx(
                value - gap, abs=1e-9
            )


def rank_one_tuple(d, n, seed):
    """``x_i = c_i p q^T``: both stacks of ``x`` have rank 1."""
    rng = np.random.default_rng(seed)
    c, p, q = (rng.standard_normal(m) + 1j * rng.standard_normal(m) for m in (d, n, n))
    return c[:, None, None] * np.outer(p, q)


class TestBatchedPolarPart:
    """Each slot's polar part keeps the singular directions above 1e-8 of its own top one."""

    @pytest.mark.parametrize(
        "x,nu",
        [
            # both optimal parts have rank 1, so every other direction is cut
            (rank_one_tuple(2, 3, 11), None),
            (rank_one_tuple(3, 4, 12), None),
            # the u slot ends near 5e-9 while the w slot stays near 1.1: only
            # a per-slot cut keeps its direction
            (np.array([[[1.0 + 0j]]]), [0.2]),
        ],
        ids=["rank1-d2-n3", "rank1-d3-n4", "weighted-scalar"],
    )
    def test_polar_part_is_cut_per_slot(self, x, nu, monkeypatch):
        calls = []
        svd, scores = np.linalg.svd, norms._witness_scores

        def spy_svd(a, *args, **kwargs):
            out = svd(a, *args, **kwargs)
            calls.append(("svd", out[1]))
            return out

        def spy_scores(xa, b, w):
            calls.append(("witnesses", b))
            return scores(xa, b, w)

        monkeypatch.setattr(np.linalg, "svd", spy_svd)
        monkeypatch.setattr(norms, "_witness_scores", spy_scores)
        res = dual_norm(x, nu)
        monkeypatch.undo()

        d = x.shape[0]
        alpha = np.ones(d) if nu is None else np.sqrt(nu)
        beta = np.ones(d) if nu is None else np.sqrt(1.0 - np.asarray(nu))
        slot_scale = (alpha[:, None, None], beta[:, None, None])
        evaluations = [i for i, (kind, _) in enumerate(calls) if kind == "witnesses"]
        assert evaluations
        cut_seen = False
        for i in evaluations:
            # the evaluation's one SVD comes right before its witnesses: sv
            # holds the projected iterate's singular values, one row per
            # slot, and witnesses[2 + k] is slot k's polar part over its weight
            kind, sv = calls[i - 1]
            assert kind == "svd" and sv.shape[0] == 2
            witnesses = calls[i][1]
            for k in range(2):
                kept = int(np.sum(sv[k] > 1e-8 * sv[k, 0]))
                polar = witnesses[2 + k] * slot_scale[k]
                # a partial isometry of rank r has squared Frobenius norm r
                assert np.sum(np.abs(polar) ** 2) == pytest.approx(kept, abs=1e-9)
                # directions dropped by the cut, or kept only because the
                # cut is relative to the slot's own top singular value
                cut_seen |= kept < sv.shape[1] or kept != np.sum(sv[k] > 1e-8 * sv.max())
        assert cut_seen
        assert res.converged
        assert pairing_certificate(x, res.certificate, nu) == pytest.approx(
            res.value - res.gap, abs=1e-9
        )


class TestAgainstGenericConvexSolver:
    """Cross-check the splitting solver against a generic SDP solver."""

    def test_values_match_cvxpy(self, monkeypatch):
        cp = pytest.importorskip("cvxpy")
        monkeypatch.setattr(norms, "GAP_TOL", 1e-9)
        rng = np.random.default_rng(4242)
        for trial in range(6):
            d, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            x = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
            if trial % 2 == 1:
                nu = rng.uniform(0.15, 0.85, d)
                v = cp.Variable((d * n, n), complex=True)
                rows = [v[i * n : (i + 1) * n, :] / np.sqrt(nu[i]) for i in range(d)]
                cols = [
                    (x[i] - v[i * n : (i + 1) * n, :]) / np.sqrt(1.0 - nu[i])
                    for i in range(d)
                ]
                obj = cp.normNuc(cp.hstack(rows)) + cp.normNuc(cp.vstack(cols))
                reference = cp.Problem(cp.Minimize(obj))
                reference.solve(solver=cp.SCS, eps=1e-10, max_iters=50_000)
                mine = dual_norm(x, nu=nu).value
            else:
                y = cp.Variable((d * n, n), complex=True)
                zrow = cp.hstack([x[i] - y[i * n : (i + 1) * n, :] for i in range(d)])
                obj = cp.normNuc(y) + cp.normNuc(zrow)
                reference = cp.Problem(cp.Minimize(obj))
                reference.solve(solver=cp.SCS, eps=1e-10, max_iters=50_000)
                mine = dual_norm(x).value
            assert mine == pytest.approx(reference.value, abs=1e-7)


class TestPairingCertificate:
    def test_first_column_units_adjoint_witness(self):
        d = 4
        x = first_column_units(d)
        b = x.conj().transpose(0, 2, 1) / np.sqrt(d)
        assert pairing_certificate(x, b) == pytest.approx(np.sqrt(d), abs=1e-12)

    def test_orthogonal_witness_gives_zero(self):
        x = np.zeros((2, 2, 2), dtype=complex)
        x[0, 0, 0] = 1.0
        b = np.zeros((2, 2, 2), dtype=complex)
        b[1, 0, 1] = 1.0  # Tr(sum x_i b_i) = 0
        assert pairing_certificate(x, b) == pytest.approx(0.0, abs=1e-14)

    def test_adjoint_witness_cauchy_schwarz(self):
        x = random_tuple(1, 3)
        b = x.conj().transpose(0, 2, 1)
        frob2 = float(np.sum(np.abs(x) ** 2))
        opn = np.linalg.norm(x[0], 2)
        cert = pairing_certificate(x, b)
        assert cert == pytest.approx(frob2 / opn, rel=1e-12)
        assert cert <= trace_norm(x[0]) + 1e-12

    @pytest.mark.parametrize("weighted", [False, True])
    def test_denominator_is_the_primal_norm(self, weighted):
        # the witness Grams, formed as one batched product, give the primal
        # norm of the witness, weighted or not
        rng = np.random.default_rng(546 + weighted)
        for d in range(1, 5):
            for n in range(1, 5):
                x, b = random_tuple(d, n, rng), random_tuple(d, n, rng)
                nu = rng.uniform(0.05, 0.95, d) if weighted else None
                norm = triple_norm(b) if nu is None else weighted_triple_norm(b, nu)
                pairing = abs(np.einsum("iab,iba->", x, b))
                assert pairing_certificate(x, b, nu) == pytest.approx(pairing / norm, rel=1e-12)

    def test_zero_witness_rejected(self):
        with pytest.raises(ZeroWitness):
            pairing_certificate(random_tuple(1, 2), np.zeros((1, 2, 2)))
