import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nck.exceptions import NonFinite, NonHermitian, NonPositiveC, NonSquare
from nck.linalg import psd_ge, trace_norm, truncate_offdiag

RNG = np.random.default_rng(20240901)


def random_complex(shape, rng=RNG):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def clip_remainder(t, c):
    """The part of ``t`` that clamping to ``[-c, c]`` removes: ``t - clip(t)``."""
    return np.asarray(t, dtype=float) - np.clip(t, -c, c)


class TestClip:
    # the scalar lemma |t - clip(t)| <= t^2 / (4c) behind criterion 8's
    # operator domination (Y-Z)*(Y-Z) <= (Y*Y)^2 / (16 C^2), applied to the
    # dilation's eigenvalues

    def test_remainder_quadratic_bound_on_grid(self):
        t = np.linspace(-100.0, 100.0, 20001)
        for c in (0.5, 1.0 / np.sqrt(2.0), 1.0, np.sqrt(3.0) / 2.0):
            assert (np.abs(clip_remainder(t, c)) <= t**2 / (4.0 * c) + 1e-12).all()

    @given(st.floats(-1e6, 1e6), st.floats(1e-3, 1e3))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_remainder_quadratic_bound_hypothesis(self, t, c):
        assert abs(clip_remainder(t, c)) <= t * t / (4.0 * c) + 1e-9

    @pytest.mark.parametrize("c", [-1.0, 0.0, np.nan, np.inf])
    def test_nonpositive_level_rejected(self, c):
        with pytest.raises(NonPositiveC):
            truncate_offdiag(3 * np.eye(2), c)


def dilation(y):
    p, q = y.shape
    d = np.zeros((p + q, p + q), dtype=complex)
    d[:q, q:] = y.conj().T
    d[q:, :q] = y
    return d


class TestTruncateOffdiag:
    def test_zero(self):
        assert np.abs(truncate_offdiag(np.zeros((3, 3)), 1.0)).max() == 0.0

    def test_scalar_inside_band(self):
        # dilation of the scalar 0.5 has eigenvalues +-0.5: nothing clipped
        z = truncate_offdiag(np.array([[0.5 + 0j]]), 1.0)
        assert z == pytest.approx(0.5)

    def test_scalar_clamped(self):
        # dilation eigenvalues +-3 clamp to +-1
        z = truncate_offdiag(np.array([[3.0 + 0j]]), 1.0)
        assert z == pytest.approx(1.0)

    def test_dilation_spectrum_symmetric(self):
        for n in (2, 4, 7):
            y = random_complex((n, n))
            lam = np.linalg.eigvalsh(dilation(y))
            assert np.abs(lam + lam[::-1]).max() <= 1e-9 * (1.0 + np.abs(lam).max())

    def test_norm_contract(self):
        for _ in range(20):
            n = int(RNG.integers(1, 6))
            y = 3.0 * random_complex((n, n))
            for c in (0.3, 1.0 / np.sqrt(2.0), 2.0):
                assert np.linalg.norm(truncate_offdiag(y, c), 2) <= c + 1e-9

    def test_rectangular_blocks(self):
        y = random_complex((2, 5))
        z = truncate_offdiag(y, 0.7)
        assert z.shape == (2, 5)
        assert np.linalg.norm(z, 2) <= 0.7 + 1e-9

    def test_batch_matches_loop(self):
        ys = random_complex((6, 3, 3))
        batch = truncate_offdiag(ys, 0.9)
        for k in range(6):
            assert np.abs(batch[k] - truncate_offdiag(ys[k], 0.9)).max() < 1e-12

    @pytest.mark.parametrize(
        "case,shape,scale,c",
        [
            ("square", (4, 4), 1.0, 0.7),
            ("wide", (2, 5), 1.0, 0.7),
            ("tall", (5, 2), 1.0, 0.7),
            ("batched", (6, 3, 3), 1.0, 0.9),
            ("rank-deficient", (5, 4), 1.0, 0.5),
            ("inside-band", (4, 4), 0.01, 1.0),
            ("all-clipped", (3, 5), 20.0, 0.3),
        ],
    )
    def test_matches_dilation_clip(self, case, shape, scale, c):
        ys = scale * random_complex(shape).reshape((-1,) + shape[-2:])
        if case == "rank-deficient":
            ys[0, -1] = ys[0, 0]
            ys[0, :, -1] = 0.0
        s = np.linalg.svd(ys, compute_uv=False)
        if case == "inside-band":
            assert s.max() < c
        if case == "all-clipped":
            assert s.min() > c
        z = truncate_offdiag(ys, c)
        for y, zk in zip(ys, z):
            lam, u = np.linalg.eigh(dilation(y))
            q = y.shape[1]
            ref = ((u * np.clip(lam, -c, c)) @ u.conj().T)[q:, :q]
            assert np.abs(zk - ref).max() <= 1e-12
        if len(shape) == 2:
            assert np.array_equal(truncate_offdiag(ys[0], c), z[0])

    def test_quadratic_residual_psd_bounds(self):
        # (Y-Z)*(Y-Z) is dominated by (Y*Y)^2 / (16 C^2), and likewise for
        # the row Gram; this is the corrector's whole engine.
        for _ in range(25):
            n = int(RNG.integers(1, 5))
            y = 2.0 * random_complex((n, n))
            c = float(RNG.uniform(0.3, 1.5))
            z = truncate_offdiag(y, c)
            r = y - z
            gram_col = y.conj().T @ y
            gram_row = y @ y.conj().T
            assert psd_ge(gram_col @ gram_col / (16 * c * c), r.conj().T @ r)
            assert psd_ge(gram_row @ gram_row / (16 * c * c), r @ r.conj().T)


class TestNorms:
    def test_trace_norm_diagonal(self):
        assert trace_norm(np.diag([1.0, -2.0])) == pytest.approx(3.0)

    def test_psd_ge(self):
        assert psd_ge(2 * np.eye(3), np.eye(3))
        assert not psd_ge(np.eye(3), 2 * np.eye(3))

    def test_psd_ge_empty_is_semidefinite(self):
        assert psd_ge(np.zeros((0, 0)), np.zeros((0, 0))) is True

    def test_psd_ge_rejects_non_square(self):
        with pytest.raises(NonSquare):
            psd_ge(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_psd_ge_rejects_non_finite(self):
        with pytest.raises(NonFinite):
            psd_ge(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(2))

    def test_psd_ge_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NonHermitian):
            psd_ge(bad, np.zeros((2, 2)))

    def test_non_finite_rejected(self):
        with pytest.raises(NonFinite):
            trace_norm(np.array([[np.inf]]))
