import itertools

import numpy as np
import pytest

from nck.car import CarElement, CarSystem, car_system, embed_tuple, extract_coefficients
from nck import lifting
from nck.exceptions import (
    DimensionMismatch,
    IdentityViolation,
    NonFinite,
    NonPositiveC,
    NormOverflow,
    StalledIteration,
)
from nck.lifting import (
    CONTRACTION,
    MAX_STEPS,
    TOL,
    corrector_car,
    corrector_commutative,
    lift,
)
from nck.linalg import psd_ge, truncate_offdiag
from nck.norms import triple_norm, weighted_triple_norm
from nck.spaces import (
    FAMILIES,
    RandomElement,
    build,
    conditional_expectation,
    family_row,
    gaussian_space,
    lacunary_space,
    rademacher_space,
    steinhauss_space,
    sup_norm,
)

RNG = np.random.default_rng(1105)

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


def random_tuple(d, n, rng=RNG):
    return rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))


def normalized(x, norm):
    return x / norm(x)


def dense_generators(sys):
    return [sys.generator(i) for i in range(sys.d)]


def family_setting(family, d=2):
    if family == "car":
        return car_system(np.linspace(0.2, 0.7, d))
    return build(family, d, samples=20_000, seed=1)


def written_level_lift(x, setting, clip_level):
    """The lift iterated with the public correctors at a given clip level.

    Returns ``(iterations, history, achieved)``; the accumulated element is
    dense for the fermionic setting and one block per atom otherwise.
    """
    if isinstance(setting, CarSystem):
        primal = lambda t: weighted_triple_norm(t, setting.nu)
        step = lambda t: corrector_car(t, setting, clip_level)
        dense = lambda e: e.toarray()
        achieved = lambda m: float(np.linalg.norm(m, 2))
    else:
        primal = triple_norm
        step = lambda t: corrector_commutative(t, setting, clip_level)
        dense = lambda e: e.blocks
        achieved = lambda blocks: sup_norm(RandomElement(setting, blocks))
    target = primal(x)
    w, norm_w, history, accum, iterations = x.copy(), target, [target], 0.0, 0
    while norm_w > TOL * target and iterations < MAX_STEPS:
        iterations += 1
        clipped, z = step(w / norm_w)
        accum = accum + norm_w * dense(clipped)
        w = w - norm_w * z
        norm_w = primal(w)
        history.append(norm_w)
    return iterations, np.array(history), achieved(accum)


class TestPresets:
    @pytest.mark.parametrize(
        "family,bound",
        [
            ("gaussian", SQRT2),
            ("steinhauss", SQRT2),
            ("lacunary", SQRT2),
            ("car", SQRT2),
            ("rademacher", SQRT3),
        ],
    )
    def test_bound_identity(self, family, bound):
        rep = lift(np.zeros((2, 1, 1)), family_setting(family))
        assert abs(rep.clip_level / (1.0 - CONTRACTION) - bound) <= 1e-12
        assert rep.bound == pytest.approx(bound, abs=1e-12)

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_clip_level_is_half_the_table_constant(self, family):
        k = FAMILIES[family][0]
        rep = lift(random_tuple(2, 2, np.random.default_rng(0)), family_setting(family))
        assert rep.bound == k
        assert rep.clip_level == k / 2.0

    # the clip levels the presets used before they were derived from K:
    # 1/sqrt(2) sits one ulp below sqrt(2)/2
    @pytest.mark.parametrize(
        "setting,clip_level",
        [
            (rademacher_space(3), np.sqrt(3.0) / 2.0),
            (steinhauss_space(2), 1.0 / np.sqrt(2.0)),
            (lacunary_space(3), 1.0 / np.sqrt(2.0)),
            (car_system([0.2, 0.5, 0.7]), 1.0 / np.sqrt(2.0)),
        ],
        ids=["rademacher", "steinhauss", "lacunary", "car"],
    )
    @pytest.mark.parametrize("n", [1, 2])
    def test_preset_lift_matches_the_written_clip_level(self, setting, clip_level, n):
        d = setting.d
        for seed in range(3):
            x = random_tuple(d, n, np.random.default_rng(seed))
            rep = lift(x, setting)
            iterations, history, achieved = written_level_lift(x, setting, clip_level)
            assert rep.iterations == iterations and rep.converged
            assert np.all(np.abs(rep.residual_history - history) <= 1e-12 * history)
            assert abs(rep.achieved_norm - achieved) <= 1e-12 * achieved


class TestCorrectorCommutative:
    def test_zero_input(self):
        sp = rademacher_space(2)
        clipped, z = corrector_commutative(np.zeros((2, 1, 1)), sp, 0.5)
        assert np.abs(clipped.blocks).max() == 0.0
        assert np.abs(z).max() == 0.0

    def test_rademacher_scalar_hand_case(self):
        # two atoms: Y = +-1 exceeds sqrt(3)/2, clips to +-sqrt(3)/2
        sp = rademacher_space(1)
        c = SQRT3 / 2.0
        clipped, z = corrector_commutative(np.ones((1, 1, 1), dtype=complex), sp, c)
        assert np.allclose(np.abs(clipped.blocks[:, 0, 0]), c)
        assert z[0, 0, 0] == pytest.approx(c)
        residual = triple_norm(np.ones((1, 1, 1)) - z)
        assert residual == pytest.approx(1.0 - c, abs=1e-12)
        assert residual <= 0.5

    @pytest.mark.parametrize(
        "space,c",
        [
            (steinhauss_space(3), 1 / SQRT2),
            (lacunary_space(3), 1 / SQRT2),
            (rademacher_space(5), SQRT3 / 2),
        ],
    )
    def test_one_step_contraction_random(self, space, c):
        for _ in range(10):
            n = int(RNG.integers(1, 4))
            y = normalized(random_tuple(space.d, n), triple_norm)
            clipped, z = corrector_commutative(y, space, c)
            assert sup_norm(clipped) <= c + 1e-9
            assert triple_norm(y - z) <= 0.5 + 1e-12

    @pytest.mark.parametrize(
        "space",
        [rademacher_space(4), steinhauss_space(3), lacunary_space(4)],
        ids=["rademacher", "steinhauss", "lacunary"],
    )
    def test_one_step_on_the_quotient_is_the_full_step(self, space):
        # the clip commutes with the phase, and the orbit weights make the read-out exact
        reps, owner, phase = space._quotient
        y = normalized(random_tuple(space.d, 3), triple_norm)
        full, z_full = corrector_commutative(y, space, 0.7)
        part, z_part = corrector_commutative(y, reps, 0.7)
        assert np.abs(phase[:, None, None] * part.blocks[owner] - full.blocks).max() <= 1e-14
        assert np.abs(z_part - z_full).max() <= 1e-14
        assert sup_norm(part) == pytest.approx(sup_norm(full), rel=1e-14)


def spy_on_the_clip(monkeypatch):
    """Record the input of every ``truncate_offdiag`` call the correctors make."""
    calls = []

    def spy(blocks, c):
        calls.append(np.array(blocks))
        return truncate_offdiag(blocks, c)

    monkeypatch.setattr("nck.lifting.truncate_offdiag", spy)
    return calls


def _frobenius_sq(blocks):
    return (np.abs(blocks) ** 2).sum(axis=(1, 2))


def element_from_tuple_blocks(y, space):
    return lifting.element_from_tuple(y, space).blocks


class TestClipOnlyAtomsOverTheLevel:
    """``corrector_commutative`` clips only the atoms whose Frobenius norm exceeds the level."""

    C = SQRT3 / 2

    def mixed_tuple(self, space):
        # scaled so that the atoms' Frobenius norms straddle the level
        rng = np.random.default_rng(7)
        for _ in range(20):
            y = random_tuple(space.d, 2, rng)
            sq = np.unique(_frobenius_sq(np.einsum("im,iab->mab", space.family, y)))
            # the level squared halfway between two neighbouring atoms' norms squared
            mid = sq.size // 2
            scale = self.C**2 / (0.5 * (sq[mid - 1] + sq[mid]))
            y *= np.sqrt(scale)
            sq *= scale
            # some atoms sit between the level squared and the level itself
            if ((sq > self.C**4) & (sq <= self.C**2)).any():
                return y
        raise AssertionError("no tuple with atoms on both sides of the level")

    @pytest.mark.parametrize(
        "space",
        [rademacher_space(6), steinhauss_space(3), lacunary_space(5)],
        ids=["rademacher", "steinhauss", "lacunary"],
    )
    def test_under_kept_bit_for_bit_and_over_clipped(self, space, monkeypatch):
        y = self.mixed_tuple(space)
        same_embed = element_from_tuple_blocks(y, space)
        under = _frobenius_sq(same_embed) <= self.C**2
        assert under.any() and not under.all()
        calls = spy_on_the_clip(monkeypatch)
        clipped, z = corrector_commutative(y, space, self.C)
        assert len(calls) == 1 and np.array_equal(calls[0], same_embed[~under])
        assert np.array_equal(clipped.blocks[under], same_embed[under])
        assert np.array_equal(clipped.blocks[~under], truncate_offdiag(same_embed[~under], self.C))
        assert np.array_equal(z, conditional_expectation(clipped))
        assert sup_norm(clipped) <= self.C * (1 + 1e-12)

    def test_no_clip_call_when_every_atom_is_under(self, monkeypatch):
        space = rademacher_space(5)
        y = random_tuple(5, 3, np.random.default_rng(3))
        sq = _frobenius_sq(np.einsum("im,iab->mab", space.family, y))
        # the largest atom just under the level, the others far above its square
        y *= 0.999 * self.C / np.sqrt(sq.max())
        assert (sq / sq.max() * (0.999 * self.C) ** 2 > self.C**4).any()
        calls = spy_on_the_clip(monkeypatch)
        clipped, z = corrector_commutative(y, space, self.C)
        assert calls == []
        assert np.array_equal(clipped.blocks, element_from_tuple_blocks(y, space))
        assert np.abs(z - y).max() <= 1e-14 * np.abs(y).max()

    def test_nan_atom_under_the_level_is_non_finite(self, monkeypatch):
        space = rademacher_space(3)
        real_embed = lifting.element_from_tuple

        def embed_with_nan(y, sp):
            elem = real_embed(y, sp)
            elem.blocks[2, 0, 0] = np.nan
            return elem

        monkeypatch.setattr("nck.lifting.element_from_tuple", embed_with_nan)
        y = 1e-3 * random_tuple(3, 2, np.random.default_rng(4))
        with pytest.raises(NonFinite):
            corrector_commutative(y, space, self.C)

    @pytest.mark.parametrize("c", [0.0, -1.0, np.nan, np.inf])
    def test_level_not_positive(self, c):
        with pytest.raises(NonPositiveC):
            corrector_commutative(np.zeros((2, 1, 1)), rademacher_space(2), c)


class TestCorrectorCar:
    def test_zero_input(self):
        sys = car_system([0.4, 0.6])
        clipped, z = corrector_car(np.zeros((2, 1, 1)), sys, 0.5)
        assert np.abs(clipped.toarray()).max() == 0.0
        assert np.abs(z).max() == 0.0

    def test_scalar_half_weight_hand_case(self):
        # Y = sqrt(2) a has dilation spectrum +-sqrt(2); clipping at 1/sqrt(2)
        # scales it to Y/2, so z = 1/sqrt(2) and the weighted residual is 1/2
        sys = car_system([0.5])
        y = np.full((1, 1, 1), SQRT2, dtype=complex)
        assert weighted_triple_norm(y, sys.nu) == pytest.approx(1.0)
        clipped, z = corrector_car(y, sys, 1 / SQRT2)
        assert z[0, 0, 0] == pytest.approx(1 / SQRT2, abs=1e-12)
        residual = weighted_triple_norm(y - z, sys.nu)
        assert residual == pytest.approx(0.5, abs=1e-12)

    def test_one_step_contraction_random(self):
        for _ in range(10):
            d, n = int(RNG.integers(1, 6)), int(RNG.integers(1, 4))
            sys = car_system(RNG.uniform(0.05, 0.95, d))
            y = random_tuple(d, n)
            y = y / weighted_triple_norm(y, sys.nu)
            clipped, z = corrector_car(y, sys, 1 / SQRT2)
            assert np.linalg.norm(clipped.toarray(), 2) <= 1 / SQRT2 + 1e-9
            assert weighted_triple_norm(y - z, sys.nu) <= 0.5 + 1e-10

    @pytest.mark.parametrize("d,n", [(1, 2), (2, 1), (4, 3), (5, 2), (6, 1), (7, 1)])
    def test_block_clip_equals_dense_clip(self, d, n):
        sys = car_system(RNG.uniform(0.05, 0.95, d))
        y = random_tuple(d, n)
        y = y / weighted_triple_norm(y, sys.nu)
        clipped, _z = corrector_car(y, sys, 1 / SQRT2)
        dense = truncate_offdiag(embed_tuple(sys, y).toarray(), 1 / SQRT2)
        assert np.abs(clipped.toarray() - dense).max() <= 1e-13

    @pytest.mark.parametrize("c", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("n", [1, 2])
    def test_level_not_positive(self, c, n):
        with pytest.raises(NonPositiveC):
            corrector_car(np.zeros((3, n, n)), car_system([0.2, 0.5, 0.7]), c)

    @pytest.mark.parametrize("d", [1, 4, 10, 12])
    @pytest.mark.parametrize("over", [3.0, 0.5])
    def test_scalar_clip_is_a_rescaling(self, d, over, monkeypatch):
        # at n = 1 over the Jordan-Wigner generators every nonzero singular
        # value of Y(y) is |y|_2, so the clip, one eigendecomposition per
        # block, is the rescaling (c / max(|y|, c)) y, and leaves an element
        # under the level as it is
        monkeypatch.setenv("NCK_MAX_DIM", "12")
        rng = np.random.default_rng(d)
        sys = car_system(rng.uniform(0.05, 0.95, d))
        c = family_row("car")[0] / 2.0
        y = random_tuple(d, 1, rng)
        y *= over * c / np.linalg.norm(y)
        clipped, z = corrector_car(y, sys, c)
        rescaled = (c / max(np.linalg.norm(y), c)) * y
        assert np.abs(z - rescaled).max() <= 1e-13
        assert np.abs(clipped.blocks - embed_tuple(sys, rescaled).blocks).max() <= 1e-13

    @staticmethod
    def hand_built(d, change):
        """A hand-built system over the Jordan-Wigner generators, ``change`` applied to them."""
        nu = np.random.default_rng(d).uniform(0.05, 0.95, d)
        return CarSystem(nu, change(dense_generators(car_system(nu))))

    def test_hand_built_jordan_wigner_is_rescaled(self):
        # the corrector takes the batched clip at n = 1 too, which over
        # generators equal to the Jordan-Wigner ones is the rescaling
        d = 4
        sys = self.hand_built(d, lambda gens: gens)
        assert sys.is_jordan_wigner
        with pytest.raises(AttributeError):
            sys.is_jordan_wigner = False
        c = 1 / SQRT2
        y = random_tuple(d, 1, np.random.default_rng(2))
        assert np.linalg.norm(y) > c
        clipped, z = corrector_car(y, sys, c)
        rescaled = (c / max(np.linalg.norm(y), c)) * y
        assert np.abs(z - rescaled).max() <= 1e-14
        assert np.abs(clipped.blocks - embed_tuple(sys, rescaled).blocks).max() <= 1e-14

    @pytest.mark.parametrize(
        "change",
        [lambda g: g[:2] + [-g[2]] + g[3:], lambda g: [g[0], (1.0 + 1e-9) * g[1]] + g[2:]],
        ids=["sign-flipped", "perturbed"],
    )
    def test_other_generators_are_clipped(self, change, monkeypatch):
        d = 5
        sys = self.hand_built(d, change)
        assert not sys.is_jordan_wigner
        y = random_tuple(d, 1, np.random.default_rng(3))
        y *= 3.0 / np.linalg.norm(y)
        calls = spy_on_the_clip(monkeypatch)
        clipped, z = corrector_car(y, sys, 1 / SQRT2)
        assert len(calls) == (d + 1) // 2
        expected = embed_tuple(sys, y).map_pairs(lambda p: truncate_offdiag(p, 1 / SQRT2))
        assert np.abs(clipped.blocks - expected.blocks).max() <= 1e-14
        assert np.abs(z - extract_coefficients(sys, expected)).max() <= 1e-14

    def test_step_psd_bounds(self):
        # each corrector step obeys the quadratic residual domination
        sys = car_system(RNG.uniform(0.1, 0.9, 3))
        y = random_tuple(3, 2)
        dense = np.stack(dense_generators(sys))
        big = np.einsum("iab,icd->acbd", y, dense).reshape(2 * sys.dim, 2 * sys.dim)
        c = 1 / SQRT2
        clipped, _z = corrector_car(y, sys, c)
        r = big - clipped.toarray()
        gram = big.conj().T @ big
        assert psd_ge(gram @ gram / (16 * c * c), r.conj().T @ r)
        gram_r = big @ big.conj().T
        assert psd_ge(gram_r @ gram_r / (16 * c * c), r @ r.conj().T)


def general_clip_lift(x, sys):
    """The fermionic lift with every step clipped pair by pair through ``truncate_offdiag``.

    Returns ``(iterations, history, lifted, achieved)``, ``lifted`` dense.
    """
    clip_level = family_row("car")[0] / 2.0
    target = weighted_triple_norm(x, sys.nu)
    w, norm_w, history = x.copy(), target, [target]
    accum = CarElement.zeros(sys.d, x.shape[1])
    iterations = 0
    while norm_w > TOL * target and iterations < MAX_STEPS:
        iterations += 1
        embedded = embed_tuple(sys, w / norm_w)
        clipped = embedded.map_pairs(lambda p: truncate_offdiag(p, clip_level))
        accum.blocks[...] += norm_w * clipped.blocks
        w = w - norm_w * extract_coefficients(sys, clipped)
        norm_w = weighted_triple_norm(w, sys.nu)
        history.append(norm_w)
    return iterations, np.array(history), accum.toarray(), accum.op_norm()


class TestLift:
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_zero_tuple(self, family):
        # a zero target is converged before the first step, in every setting
        rep = lift(np.zeros((2, 2, 2)), family_setting(family))
        assert rep.iterations == 0 and rep.ratio == 0.0 and rep.converged
        assert rep.achieved_norm == 0.0 and rep.target_norm == 0.0
        assert np.array_equal(rep.residual_history, [0.0])
        lifted = rep.lifted if family == "car" else rep.lifted.blocks
        assert not np.any(lifted)

    def test_rademacher_bound_and_decay(self):
        for _ in range(5):
            d, n = int(RNG.integers(1, 9)), int(RNG.integers(1, 5))
            sp = rademacher_space(d)
            x = random_tuple(d, n)
            rep = lift(x, sp)
            assert rep.converged
            assert rep.ratio <= SQRT3 * (1.0 + 1e-6)
            hist = rep.residual_history
            assert all(
                hist[k] <= 0.5**k * hist[0] * (1.0 + 1e-9) for k in range(len(hist))
            )
            rec = conditional_expectation(rep.lifted)
            assert np.abs(rec - x).max() <= 1e-8 * (1.0 + np.abs(x).max())

    def test_car_bound_and_reconstruction(self):
        for _ in range(5):
            d, n = int(RNG.integers(1, 5)), int(RNG.integers(1, 4))
            sys = car_system(RNG.uniform(0.05, 0.95, d))
            x = random_tuple(d, n)
            rep = lift(x, sys)
            assert rep.converged
            assert rep.ratio <= SQRT2 * (1.0 + 1e-6)
            rec = extract_coefficients(sys, rep.lifted)
            assert np.abs(rec - x).max() <= 1e-8 * (1.0 + np.abs(x).max())

    @pytest.mark.parametrize("d,n", [(1, 1), (3, 3), (5, 2), (6, 2), (7, 1)])
    def test_car_achieved_norm_is_the_dense_norm(self, d, n):
        sys = car_system(RNG.uniform(0.05, 0.95, d))
        rep = lift(random_tuple(d, n), sys)
        dense = np.linalg.norm(rep.lifted, 2)
        assert abs(rep.achieved_norm - dense) <= 1e-12 * dense

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8, 10])
    def test_car_scalar_lift_matches_the_general_clip(self, d):
        # n = 1 rescales where the reference clips by eigendecomposition
        for seed, scale in ((0, 1.0), (1, 1.0), (2, 1e-6)):
            rng = np.random.default_rng(seed)
            sys = car_system(rng.uniform(0.02, 0.98, d))
            x = scale * random_tuple(d, 1, rng)
            rep = lift(x, sys)
            iterations, history, lifted, achieved = general_clip_lift(x, sys)
            assert rep.iterations == iterations and rep.converged
            assert np.all(np.abs(rep.residual_history - history) <= 1e-12 * history)
            assert np.abs(rep.lifted - lifted).max() <= 1e-12 * np.abs(lifted).max()
            assert abs(rep.achieved_norm - achieved) <= 1e-12 * achieved

    def test_car_sign_flipped_generator(self):
        clean = car_system(RNG.uniform(0.05, 0.95, 3))
        gens = dense_generators(clean)
        gens[2] = -gens[2]
        sys = CarSystem(nu=clean.nu, generators=tuple(gens))
        x = random_tuple(3, 2)
        rep = lift(x, sys)
        assert rep.converged and rep.ratio <= SQRT2 * (1.0 + 1e-6)
        # read out through the dense kernels K_i = rho a_i* + a_i* rho of the
        # flipped generators
        q = sys.dim
        rho = np.diag(sys.density_diagonal)
        kernels = np.stack([rho @ g.conj().T + g.conj().T @ rho for g in gens])
        rec = np.einsum("iab,pbqa->ipq", kernels, rep.lifted.reshape(2, q, 2, q))
        assert np.abs(rec - x).max() <= 1e-8 * (1.0 + np.abs(x).max())

    def test_car_off_support_generator_is_an_identity_violation(self):
        clean = car_system([0.3, 0.6])
        gens = dense_generators(clean)
        gens[1] = gens[1] + 1e-4 * np.eye(clean.dim)
        sys = CarSystem(nu=clean.nu, generators=tuple(gens))
        with pytest.raises(IdentityViolation, match="generator 1"):
            lift(random_tuple(2, 2), sys)

    def test_steinhauss_and_lacunary_bounds(self):
        x = random_tuple(3, 2)
        for sp in (steinhauss_space(3), lacunary_space(3)):
            rep = lift(x, sp)
            assert rep.converged and rep.ratio <= SQRT2 * (1.0 + 1e-6)

    def test_residual_history_strictly_decreasing(self):
        rep = lift(random_tuple(3, 2), rademacher_space(3))
        hist = rep.residual_history
        assert all(hist[k + 1] < hist[k] for k in range(len(hist) - 1))

    def test_norm_budget(self):
        # accumulated norm stays within the geometric-series budget
        sp = rademacher_space(4)
        x = random_tuple(4, 2)
        rep = lift(x, sp)
        budget = sum(
            rep.clip_level * h for h in rep.residual_history[: rep.iterations]
        )
        assert rep.achieved_norm <= budget * (1.0 + 1e-9)

    def test_gaussian_mc_stalls_on_tiny_sample(self):
        sp = gaussian_space(4, 8, seed=1)
        x = random_tuple(4, 2, np.random.default_rng(100))
        with pytest.raises(StalledIteration) as exc:
            lift(x, sp)
        assert exc.value.step is not None and exc.value.step >= 1

    def test_gaussian_mc_completes_with_many_samples(self):
        sp = gaussian_space(2, 20_000, seed=1)
        x = random_tuple(2, 2, np.random.default_rng(5))
        rep = lift(x, sp)
        assert rep.converged
        # no exact guarantee here, but the ratio should sit near sqrt(2)
        assert rep.ratio <= SQRT2 * 1.1



# a d = 3 setting and the matrix size of its tuples
ENTRY_CASES = pytest.mark.parametrize(
    "setting,n",
    [(car_system([0.3, 0.5, 0.7]), 1), (car_system([0.3, 0.5, 0.7]), 2), (rademacher_space(3), 2)],
    ids=["car-n1", "car-n2", "rademacher"],
)


class TestLiftInputChecks:
    """The lift validates its input once, at its entry, before the first step."""

    @ENTRY_CASES
    def test_overflowing_primal_norm_raises(self, setting, n, monkeypatch):
        # every entry is finite, but the Grams overflow
        calls = spy_on_the_clip(monkeypatch)
        for x in (np.full((3, n, n), 1e160 + 0j), np.full((3, n, n), 1e200 * (1 + 1j))):
            with pytest.raises(NormOverflow, match="overflows") as exc:
                lift(x, setting)
            assert isinstance(exc.value, NonFinite)
        assert calls == []

    @ENTRY_CASES
    @pytest.mark.parametrize("d", [2, 4])
    def test_mismatched_d_raises_before_the_first_clip(self, setting, n, d, monkeypatch):
        calls = spy_on_the_clip(monkeypatch)
        with pytest.raises(DimensionMismatch):
            lift(random_tuple(d, n, np.random.default_rng(d)), setting)
        assert calls == []


class TestScalarCarLiftClosedForm:
    """At ``n = 1`` over the Jordan-Wigner generators the lift has a closed form.

    Every step rescales the residual by ``rho = 1 - c * target / |x|_2``
    (``|x|_2`` is never under the target and at most ``sqrt(2)`` times it,
    so ``rho`` lies in ``[1 - c, 1/2]``): the residual norms are
    ``rho^k target``, the accumulated tuple is ``(1 - rho^K) x`` and the
    lifted element's norm is its Euclidean norm.
    """

    @pytest.mark.parametrize("d", list(range(1, 11)) + [12])
    def test_history_norm_and_readout(self, d, monkeypatch):
        monkeypatch.setenv("NCK_MAX_DIM", "12")
        rng = np.random.default_rng(2300 + d)
        sys = car_system(rng.uniform(0.02, 0.98, d))
        x = random_tuple(d, 1, rng)
        rep = lift(x, sys)
        norm_x = np.linalg.norm(x)
        rho = 1.0 - rep.clip_level * rep.target_norm / norm_x
        assert 1.0 - rep.clip_level - 1e-15 <= rho <= 0.5 + 1e-15
        steps = int(np.ceil(np.log(TOL) / np.log(rho)))
        assert rho**steps <= TOL < rho ** (steps - 1)
        if min(abs(np.log(rho**k / TOL)) for k in (steps - 1, steps)) > 1e-9:
            assert rep.iterations == steps
        else:  # the stopping test sits within rounding of its boundary
            assert abs(rep.iterations - steps) <= 1
        k = rep.iterations
        assert rep.converged
        expected = rep.target_norm * rho ** np.arange(k + 1)
        assert np.all(np.abs(rep.residual_history - expected) <= 1e-12 * expected)
        achieved = norm_x * (1.0 - rho**k)
        assert abs(rep.achieved_norm - achieved) <= 1e-12 * achieved
        # the read-out is the accumulated tuple, x up to the last residual
        readout = extract_coefficients(sys, rep.lifted)
        assert np.abs(readout - (1.0 - rho**k) * x).max() <= 1e-12 * np.abs(x).max()

    def test_hand_built_jordan_wigner_system_takes_no_step(self, monkeypatch):
        d = 5
        sys = TestCorrectorCar.hand_built(d, lambda gens: gens)
        x = random_tuple(d, 1, np.random.default_rng(6))
        clean = lift(x, car_system(sys.nu))
        clips = spy_on_the_clip(monkeypatch)
        embeds = []
        real_embed = lifting.embed_tuple

        def spy_embed(s, y):
            embeds.append(y)
            return real_embed(s, y)

        monkeypatch.setattr("nck.lifting.embed_tuple", spy_embed)
        rep = lift(x, sys)
        assert clips == [] and len(embeds) == 1
        assert np.array_equal(rep.lifted, clean.lifted)
        assert np.array_equal(rep.residual_history, clean.residual_history)
        assert (rep.achieved_norm, rep.target_norm, rep.iterations, rep.converged) == (
            clean.achieved_norm, clean.target_norm, clean.iterations, clean.converged
        )

    def test_sign_flipped_system_steps_through_the_clip(self, monkeypatch):
        d = 4
        sys = TestCorrectorCar.hand_built(d, lambda g: g[:2] + [-g[2]] + g[3:])
        x = random_tuple(d, 1, np.random.default_rng(8))
        clips = spy_on_the_clip(monkeypatch)
        rep = lift(x, sys)
        iterations, history, _lifted, _achieved = general_clip_lift(x, sys)
        assert len(clips) == rep.iterations * ((d + 1) // 2)
        assert rep.iterations == iterations and rep.converged
        assert np.all(np.abs(rep.residual_history - history) <= 1e-12 * history)

    @pytest.mark.parametrize("d", [1, 6, 12])
    def test_last_residual_is_the_readout_residual(self, d, monkeypatch):
        monkeypatch.setenv("NCK_MAX_DIM", "12")
        rng = np.random.default_rng(700 + d)
        sys = car_system(rng.uniform(0.02, 0.98, d))
        x = random_tuple(d, 1, rng)
        rep = lift(x, sys)
        residual = weighted_triple_norm(x - extract_coefficients(sys, rep.lifted), sys.nu)
        assert abs(rep.residual_history[-1] - residual) <= 1e-13 * rep.target_norm


class TestModeRotationOracle:
    """At ``nu = 1/2`` a lift needs only as many modes as its tuple spans.

    The state at equal weights ``1/2`` is invariant under a unitary rotation
    of the modes, and so are the weighted primal norm and the norm of every
    element.  Rotating a tuple's modes by the left singular vectors of its
    ``d x n^2`` coefficient matrix leaves ``r = min(d, n^2)`` nonzero modes,
    so the ``d``-mode lift and the ``r``-mode lift of the rotated tuple take
    the same steps.  An oracle only: with unequal weights, only rotations
    that commute with ``diag(nu)`` keep the state, and the lift has no such
    second path.  ``d = 12, n = 2`` is a full lift at the cap, left out.
    """

    @pytest.mark.parametrize("d,n", [(3, 1), (5, 1), (12, 1), (6, 2), (7, 2), (8, 2), (5, 3)])
    def test_lift_equals_the_lift_over_the_spanned_modes(self, d, n, monkeypatch):
        monkeypatch.setenv("NCK_MAX_DIM", "12")
        x = random_tuple(d, n, np.random.default_rng(100 * d + n))
        left, _, _ = np.linalg.svd(x.reshape(d, n * n))
        r = min(d, n * n)
        rotated = np.einsum("ik,ipq->kpq", left.conj(), x)
        assert np.abs(rotated[r:]).max(initial=0.0) <= 1e-14 * np.abs(x).max()
        full = lift(x, car_system(np.full(d, 0.5)))
        spanned = lift(rotated[:r], car_system(np.full(r, 0.5)))
        assert full.converged and full.iterations == spanned.iterations
        history = full.residual_history
        assert np.all(np.abs(history - spanned.residual_history) <= 1e-13 * history)
        assert abs(full.achieved_norm - spanned.achieved_norm) <= 1e-13 * full.achieved_norm


# the benchmark's sign-lift shapes: each (family, d) twice, with n two apart
_SIGN_DIMS = {"rademacher": range(4, 11), "lacunary": range(3, 9), "steinhauss": range(2, 5)}
_SIGN_SPACES = [
    entry
    for row in itertools.zip_longest(*([(f, d) for d in dims] for f, dims in _SIGN_DIMS.items()))
    for entry in row
    if entry is not None
]
SIGN_SCHEDULE = [
    (family, d, 1 + (j + shift) % 4)
    for shift in (0, 2)
    for j, (family, d) in enumerate(_SIGN_SPACES)
]
BUILDERS = {"rademacher": rademacher_space, "steinhauss": steinhauss_space, "lacunary": lacunary_space}


def full_space_lift(x, space):
    """The lift iterated on every atom: ``(blocks, history, iterations, achieved)``."""
    clip_level = family_row(space.kind)[0] / 2.0
    target = triple_norm(x)
    w, norm_w, history = x.copy(), target, [target]
    blocks = np.zeros((space.atoms,) + x.shape[1:], dtype=complex)
    iterations = 0
    while norm_w > TOL * target and iterations < MAX_STEPS:
        iterations += 1
        y = np.einsum("im,iab->mab", space.family, w / norm_w)
        clipped = truncate_offdiag(y, clip_level)
        z = np.einsum("m,im,mab->iab", space.weights, space.family.conj(), clipped)
        blocks += norm_w * clipped
        w = w - norm_w * z
        norm_w = triple_norm(w)
        history.append(norm_w)
    achieved = np.linalg.svd(blocks, compute_uv=False)[:, 0].max()
    return blocks, np.array(history), iterations, achieved


class TestLiftOnThePhaseQuotient:
    @pytest.mark.parametrize("family,d,n", SIGN_SCHEDULE)
    def test_same_lift_as_on_every_atom(self, family, d, n):
        space = BUILDERS[family](d)
        for seed in range(3):
            x = random_tuple(d, n, np.random.default_rng(seed))
            rep = lift(x, space)
            blocks, history, iterations, achieved = full_space_lift(x, space)
            assert rep.iterations == iterations and rep.converged
            assert rep.lifted.space is space and rep.lifted.blocks.shape == blocks.shape
            assert np.all(np.abs(rep.residual_history - history) <= 1e-12 * history)
            assert np.abs(rep.lifted.blocks - blocks).max() <= 1e-12 * np.abs(blocks).max()
            assert abs(rep.achieved_norm - achieved) <= 1e-12


    @pytest.mark.parametrize("family,d,n", SIGN_SCHEDULE)
    def test_same_lift_as_clipping_every_representative(self, family, d, n):
        # the reference iterates on the quotient's atoms with plain einsum
        # embed and read-out and clips every atom at every step
        space = BUILDERS[family](d)
        reps, owner, _ = space._quotient
        first = np.unique(owner, return_index=True)[1]
        for seed in range(3):
            x = random_tuple(d, n, np.random.default_rng(seed))
            rep = lift(x, space)
            blocks, history, iterations, achieved = full_space_lift(x, reps)
            assert rep.iterations == iterations and rep.converged
            assert np.all(np.abs(rep.residual_history - history) <= 1e-12 * history)
            assert np.abs(rep.lifted.blocks[first] - blocks).max() <= 1e-12 * np.abs(blocks).max()
            assert abs(rep.achieved_norm - achieved) <= 1e-12 * achieved


class TestQuotientNormBracket:
    """The report's two norms bracket the quotient norm: primal below, lifted above."""

    def test_car_scalar_half_weight(self):
        rep = lift(np.ones((1, 1, 1), dtype=complex), car_system([0.5]))
        assert rep.target_norm == pytest.approx(1 / SQRT2)
        assert rep.achieved_norm <= 1.0 + 1e-6

    def test_rademacher_scalar(self):
        rep = lift(np.ones((1, 1, 1)), rademacher_space(1))
        assert rep.target_norm == pytest.approx(1.0)
        assert rep.achieved_norm <= SQRT3 + 1e-6

    def test_car_random_ratio(self):
        for _ in range(5):
            d, n = int(RNG.integers(1, 5)), int(RNG.integers(1, 3))
            sys = car_system(RNG.uniform(0.1, 0.9, d))
            rep = lift(random_tuple(d, n), sys)
            assert rep.target_norm <= rep.achieved_norm * (1.0 + 1e-9)
            assert rep.achieved_norm <= SQRT2 * rep.target_norm * (1.0 + 1e-6)
