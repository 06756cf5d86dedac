import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from nck import caps, spaces
from nck.exceptions import (
    DimensionMismatch,
    DTooLarge,
    IdentityViolation,
    InvalidParameter,
    NonFinite,
    SpaceTooLarge,
)
from nck.norms import triple_norm
from nck.reports import moment_report
from nck.spaces import (
    FAMILIES,
    STEINHAUSS_ORDER,
    DiscreteProbabilitySpace,
    RandomElement,
    build,
    conditional_expectation,
    element_from_tuple,
    family_kind,
    family_row,
    gamma_ratio,
    gaussian_space,
    l1_s1_norm,
    lacunary_space,
    moment_identity_check,
    rademacher_space,
    steinhauss_space,
    sup_norm,
)

RNG = np.random.default_rng(81)


def random_tuple(d, n, rng=RNG):
    return rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))


class TestRademacher:
    def test_d1_atoms(self):
        sp = rademacher_space(1)
        assert sp.atoms == 2
        assert sorted(sp.family[0].real) == [-1.0, 1.0]
        assert sp.weights @ sp.family[0] == pytest.approx(0.0)

    def test_exact_orthogonality(self):
        sp = rademacher_space(2)
        fam, w = sp.family, sp.weights
        assert w @ (fam[0] * fam[1]) == 0.0
        assert w @ (fam[0] * fam[0]) == 1.0

    def test_fourth_moment_brute_force(self):
        # oracle: independent enumeration of {+-1}^2
        oracle = np.mean([(r1 + r2) ** 4 for r1, r2 in itertools.product([1, -1], repeat=2)])
        assert oracle == 8.0
        sp = rademacher_space(2)
        value = sp.weights @ (sp.family[0] + sp.family[1]).real ** 4
        assert value == pytest.approx(8.0)

    def test_enumeration_order_plus_first(self):
        sp = rademacher_space(2)
        expected = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        got = [tuple(int(v) for v in sp.family[:, k].real) for k in range(4)]
        assert got == expected

    def test_cap(self):
        with pytest.raises(DTooLarge):
            rademacher_space(17)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_bit_family_is_the_product_enumeration(self, d):
        reference = np.array(list(itertools.product([1.0, -1.0], repeat=d))).T.astype(complex)
        family = rademacher_space(d).family
        assert family.dtype == reference.dtype and family.shape == reference.shape
        assert family.tobytes() == reference.tobytes()


class TestSteinhauss:
    def test_first_and_second_moments_exact(self):
        sp = steinhauss_space(1)
        w, s = sp.weights, sp.family[0]
        assert abs(w @ s) < 1e-15
        assert w @ (np.conj(s) * s) == pytest.approx(1.0, abs=1e-15)
        assert abs(w @ (s * s)) < 1e-15

    def test_modulus_fourth_moment_is_one(self):
        sp = steinhauss_space(1)
        w, s = sp.weights, sp.family[0]
        assert w @ np.abs(s) ** 4 == pytest.approx(1.0, abs=1e-15)

    def test_cross_fourth_moment_vanishes(self):
        # oracle: brute force over the 25 atoms
        sp = steinhauss_space(2)
        assert sp.atoms == 25
        s1, s2 = sp.family
        value = sp.weights @ (np.conj(s1) * s2 * np.conj(s1) * s2)
        assert abs(value) < 1e-15

    def test_atom_budget(self):
        # 5**8 < 2**20 < 5**10
        with pytest.raises(SpaceTooLarge):
            steinhauss_space(10)
        assert steinhauss_space(8).atoms == 5**8

    def test_fifth_roots_of_unity(self):
        assert STEINHAUSS_ORDER == 5
        values = steinhauss_space(1).family[0]
        assert values.size == 5
        assert np.allclose(values**5, 1.0, rtol=0.0, atol=1e-14)
        assert np.abs(values[:, None] - values[None, :])[~np.eye(5, dtype=bool)].min() > 1.0


class TestLacunary:
    def test_first_moments(self):
        sp = lacunary_space(1)
        w, e1 = sp.weights, sp.family[0]
        assert abs(w @ e1) < 1e-14
        assert w @ (np.conj(e1) * e1) == pytest.approx(1.0)

    def test_distinct_frequencies_orthogonal(self):
        sp = lacunary_space(2)
        e1, e2 = sp.family
        assert abs(sp.weights @ (np.conj(e1) * e2)) < 1e-14

    def test_fourth_moment_identity_d3(self):
        y = random_tuple(3, 2)
        report = moment_identity_check(y, lacunary_space(3))
        assert report.passed
        assert report.max_deviation <= 1e-12

    @pytest.mark.parametrize("d", range(1, 13))
    def test_phases_reduced_in_integers(self, d):
        # oracle: the phase 2^j m of each value reduced mod N in Python integers
        n_grid = 2 ** (d + 3)
        k = np.array([[(2**j * m) % n_grid for m in range(n_grid)] for j in range(1, d + 1)])
        family = lacunary_space(d).family
        assert np.array_equal(family, np.exp(2j * np.pi * k / n_grid))
        # every frequency is even, so t and t + pi carry the same values
        assert np.array_equal(family[:, : n_grid // 2], family[:, n_grid // 2 :])


@pytest.mark.parametrize(
    "make",
    [
        lambda: rademacher_space(0),
        lambda: rademacher_space(-2),
        lambda: steinhauss_space(0),
        lambda: lacunary_space(0),
        lambda: gaussian_space(0, 10),
        lambda: gaussian_space(2, 0),
    ],
    ids=["rademacher-0", "rademacher-neg", "steinhauss-0", "lacunary-0", "gaussian-d0", "gaussian-samples0"],
)
def test_counts_below_one_are_invalid_parameters(make):
    # a usage error, not DTooLarge ("exceeds the configured cap")
    with pytest.raises(InvalidParameter):
        make()


class TestFamilyTable:
    @pytest.mark.parametrize(
        "space",
        [rademacher_space(2), steinhauss_space(1), lacunary_space(2), gaussian_space(2, 4)],
        ids=lambda sp: sp.kind,
    )
    def test_every_builder_kind_has_a_row(self, space):
        family = next(f for f, row in FAMILIES.items() if row[1] == space.kind)
        assert family_row(space.kind) is FAMILIES[family]
        assert family_kind(family) == space.kind
        assert space.is_exact == FAMILIES[family][2]
        assert build(family, space.d, samples=4).kind == space.kind

    @pytest.mark.parametrize("name", ["car", "bernoulli"])
    def test_build_rejects_a_family_without_a_space(self, name):
        with pytest.raises(InvalidParameter):
            build(name, 2)


def _grid_family(kind, d):
    """The family from an int64 ``d x atoms`` index grid: the reference for the builders."""
    if kind == "rademacher":
        bits = (np.arange(1 << d) >> (d - 1 - np.arange(d))[:, None]) & 1
        return (1 - 2 * bits).astype(complex)
    if kind == "steinhauss":
        order = STEINHAUSS_ORDER
        exponents = np.indices((order,) * d).reshape(d, -1)
        return np.exp(2j * np.pi * np.arange(order) / order)[exponents]
    n_grid = 2 ** (d + 3)
    phases = np.outer(2 ** np.arange(1, d + 1), np.arange(n_grid)) % n_grid
    return np.exp(2j * np.pi * phases / n_grid)


class TestBuilders:
    @pytest.mark.parametrize(
        "kind,d",
        [("rademacher", d) for d in (1, 2, 5, 11)]
        + [("steinhauss", d) for d in (1, 2, 4, 6)]
        + [("lacunary", d) for d in (1, 2, 5, 9)],
    )
    def test_family_and_weights_match_the_index_grid_formulas(self, kind, d):
        space = build(kind, d)
        family = _grid_family(kind, d)
        weights = np.full(family.shape[1], 1.0 / family.shape[1])
        for got, expected in ((space.family, family), (space.weights, weights)):
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_gaussian_family_and_weights_match_the_sampler(self):
        space = gaussian_space(3, 50, seed=4)
        z = np.random.default_rng(4).standard_normal((2, 3, 50))
        assert space.family.tobytes() == ((z[0] + 1j * z[1]) / np.sqrt(2.0)).tobytes()
        assert space.weights.tobytes() == np.full(50, 1.0 / 50).tobytes()

    @pytest.mark.parametrize("make,bound", [
        (lambda: rademacher_space(12), 1.5),
        (lambda: steinhauss_space(6), 1.5),
        (lambda: lacunary_space(10), 1.6),
        # the sampled normals take a family's bytes, and so does each
        # temporary of the complex combination
        (lambda: gaussian_space(4, 20_000), 2.5),
    ], ids=["rademacher", "steinhauss", "lacunary", "gaussian"])
    def test_build_holds_one_family_and_small_arrays(self, make, bound):
        # the space keeps the family the builder made, read-only and
        # uncopied; a copy alone would put the peak at two families
        make()
        tracemalloc.start()
        try:
            space = make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * space.family.nbytes
        assert not space.family.flags.writeable and not space.weights.flags.writeable

    @pytest.mark.parametrize("make", [
        lambda: rademacher_space(12),
        lambda: steinhauss_space(6),
        lambda: lacunary_space(10),
    ], ids=["rademacher", "steinhauss", "lacunary"])
    def test_quotient_holds_its_representatives_and_small_arrays(self, make):
        # the quotient's family (a half or a fifth of the space's), per-atom
        # arrays, the grouping keys and chunk temporaries; a family-sized
        # temporary of the grouping would put the peak above 2.5 families
        make()._quotient
        space = make()
        tracemalloc.start()
        try:
            reps = space._quotient[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * space.family.nbytes
        assert not reps.family.flags.writeable


class TestDiscreteProbabilitySpace:
    def test_callers_arrays_stay_writable(self):
        w = np.full(2, 0.5)
        f = np.array([[1.0, -1.0]], dtype=complex)
        sp = DiscreteProbabilitySpace("rademacher", w, f)
        w[0] = 0.7
        f[0, 0] = 2.0
        assert sp.weights[0] == 0.5 and sp.family[0, 0] == 1.0
        assert not sp.weights.flags.writeable and not sp.family.flags.writeable
        assert w.flags.writeable and f.flags.writeable
        assert not np.shares_memory(sp.weights, w) and not np.shares_memory(sp.family, f)

    @pytest.mark.parametrize(
        "weights,family",
        [([0.5, np.nan], [[1.0, -1.0]]), ([0.5, 0.5], [[1.0, np.inf]]), ([0.5, 0.5], [[np.nan, -1.0]])],
    )
    def test_non_finite_entries_rejected(self, weights, family):
        # NaN weights used to pass the sum check, and a NaN family reached the lift
        with pytest.raises(NonFinite):
            DiscreteProbabilitySpace("rademacher", np.array(weights), np.array(family, dtype=complex))


def _check_phase_relation(space):
    reps, owner, phase = space._quotient
    assert reps.kind == space.kind and reps.d == space.d
    assert abs(reps.weights.sum() - 1.0) <= 1e-14
    assert np.allclose(reps.weights, np.bincount(owner, space.weights), rtol=0.0, atol=1e-15)
    scale = np.abs(space.family).max(axis=0)
    assert np.all(np.abs(space.family - phase * reps.family[:, owner]).max(axis=0) <= 1e-14 * scale)
    assert np.allclose(np.abs(phase), 1.0, rtol=0.0, atol=1e-15)
    # the representatives are atoms of the space, in order, with phase exactly 1
    firsts = np.unique(owner, return_index=True)[1]
    assert np.array_equal(owner[firsts], np.arange(reps.atoms))
    assert np.array_equal(reps.family, space.family[:, firsts]) and np.all(phase[firsts] == 1.0)
    return reps, owner, phase


class TestPhaseQuotient:
    @pytest.mark.parametrize(
        "family,d,expected",
        [("rademacher", d, 2 ** (d - 1)) for d in range(1, 8)]
        + [("steinhauss", d, 5 ** (d - 1)) for d in range(1, 5)]
        + [("lacunary", 1, 1)]
        + [("lacunary", d, 2 ** (d + 2)) for d in range(2, 9)],
    )
    def test_orbit_sizes(self, family, d, expected):
        space = {"rademacher": rademacher_space, "steinhauss": steinhauss_space,
                 "lacunary": lacunary_space}[family](d)
        reps, owner, _ = _check_phase_relation(space)
        assert reps.atoms == expected
        assert np.all(np.bincount(owner) == space.atoms // expected)

    def test_rademacher_pairs_w_with_minus_w(self):
        reps, owner, phase = _check_phase_relation(rademacher_space(3))
        assert np.array_equal(owner, [0, 1, 2, 3, 3, 2, 1, 0])
        assert np.array_equal(phase, [1, 1, 1, 1, -1, -1, -1, -1])
        assert np.all(reps.family[0] == 1.0)

    def test_lacunary_halves_merge_with_phase_one(self):
        space = lacunary_space(4)
        _reps, owner, phase = _check_phase_relation(space)
        half = space.atoms // 2
        assert np.array_equal(owner, np.tile(np.arange(half), 2)) and np.all(phase == 1.0)

    @pytest.mark.parametrize("d", [1, 3])
    def test_gaussian_keeps_every_atom(self, d):
        space = gaussian_space(d, 500, seed=4)
        reps, owner, phase = _check_phase_relation(space)
        assert reps.atoms == space.atoms
        assert np.array_equal(owner, np.arange(space.atoms)) and np.all(phase == 1.0)
        # sampled atoms never merge, so the space is not grouped at all
        assert reps is space

    @pytest.mark.parametrize("family", ["rademacher", "steinhauss", "lacunary", "gaussian"])
    def test_cached_quotient_is_read_only(self, family):
        space = build(family, 3, samples=500, seed=4)
        reps, owner, phase = space._quotient
        for a in (owner, phase, reps.weights, reps.family):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        assert space._quotient[1] is owner
        _check_phase_relation(space)

    def test_zero_entries_in_the_first_variable(self):
        family = np.array(
            [
                [0, 0, 0, 1, -1j, 0, 0],
                [1, -1, 1j, 1j, 1, 2, 0],
            ],
            dtype=complex,
        )
        space = DiscreteProbabilitySpace("rademacher", np.full(7, 1 / 7), family)
        reps, owner, phase = _check_phase_relation(space)
        # (0, 1) ~ (0, -1) ~ (0, 1j); (1, 1j) ~ (-1j, 1); (0, 2) and (0, 0) alone
        assert np.array_equal(owner, [0, 0, 0, 1, 1, 2, 3])
        assert np.array_equal(phase, [1, -1, 1j, 1, -1j, 1, 1])
        assert np.allclose(reps.weights, np.array([3, 2, 1, 1]) / 7, rtol=0.0, atol=1e-15)

    def test_atoms_off_by_more_than_rounding_stay_apart(self):
        # the second atom is the first times -1 up to 1e-13: not merged
        family = np.array([[1.0, -1.0], [0.5, -0.5 + 1e-13]], dtype=complex)
        reps, owner, _ = _check_phase_relation(DiscreteProbabilitySpace("rademacher", np.full(2, 0.5), family))
        assert reps.atoms == 2 and np.array_equal(owner, [0, 1])


class TestGaussian:
    def test_mean_and_variance(self):
        sp = gaussian_space(1, 50_000, seed=11)
        g = sp.family[0]
        assert abs(g.mean()) <= 3.0 / np.sqrt(sp.atoms)
        var = (np.abs(g) ** 2).mean()
        se = (np.abs(g) ** 2).std(ddof=1) / np.sqrt(sp.atoms)
        assert abs(var - 1.0) <= 3.0 * se

    def test_vector_length_matches_gamma_ratio(self):
        d = 4
        sp = gaussian_space(d, 50_000, seed=3)
        lengths = np.sqrt((np.abs(sp.family) ** 2).sum(axis=0))
        se = lengths.std(ddof=1) / np.sqrt(sp.atoms)
        assert gamma_ratio(d) == pytest.approx(1.9386, abs=5e-4)
        assert abs(lengths.mean() - gamma_ratio(d)) <= 3.0 * se

    def test_value_budget(self, monkeypatch):
        # samples times variables, checked before anything is drawn
        with pytest.raises(SpaceTooLarge, match="10000000000000 samples at d=2 exceed the budget"):
            gaussian_space(2, 10**13)
        monkeypatch.setattr(caps, "VALUE_CAP", 60)
        assert gaussian_space(3, 20).atoms == 20
        with pytest.raises(SpaceTooLarge, match="21 samples at d=3"):
            gaussian_space(3, 21)
        with pytest.raises(SpaceTooLarge, match="32 grid points at d=2"):
            lacunary_space(2)

    def test_reproducible(self):
        a = gaussian_space(3, 1000, seed=42)
        b = gaussian_space(3, 1000, seed=42)
        assert np.array_equal(a.family, b.family)
        c = gaussian_space(3, 1000, seed=43)
        assert not np.array_equal(a.family, c.family)


class TestL1S1Norm:
    def test_scalar_rademacher(self):
        assert l1_s1_norm([[[1.0 + 0j]]], rademacher_space(1)) == (pytest.approx(1.0), 0.0)

    def test_scalar_gaussian_half_sqrt_pi(self):
        sp = gaussian_space(1, 100_000, seed=5)
        value, stderr = l1_s1_norm([[[1.0 + 0j]]], sp)
        assert abs(value - np.sqrt(np.pi) / 2.0) <= 3.0 * stderr
        assert np.sqrt(np.pi) / 2.0 == pytest.approx(0.886227, abs=1e-6)

    def test_sampled_space_needs_two_atoms(self):
        # a standard error with one degree of freedom removed needs two atoms;
        # one atom would report stderr 0 and so drop the Monte Carlo slack
        x = [[[1.0 + 0j]]]
        with pytest.raises(InvalidParameter, match="2 atoms"):
            l1_s1_norm(x, gaussian_space(1, 1, seed=0))
        assert l1_s1_norm(x, gaussian_space(1, 2, seed=0))[1] > 0.0

    def test_diagonal_units_rademacher(self):
        # oracle: brute force |r1| + |r2| = 2 on every atom
        x = np.zeros((2, 2, 2), dtype=complex)
        x[0, 0, 0] = 1.0
        x[1, 1, 1] = 1.0
        oracle = np.mean(
            [abs(r1) + abs(r2) for r1, r2 in itertools.product([1, -1], repeat=2)]
        )
        assert oracle == 2.0
        assert l1_s1_norm(x, rademacher_space(2))[0] == pytest.approx(2.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            l1_s1_norm(random_tuple(3, 2), rademacher_space(2))

    @pytest.mark.parametrize("family", ["rademacher", "steinhauss", "lacunary"])
    @pytest.mark.parametrize("d", range(1, 7))
    def test_quotient_sum_is_the_per_atom_sum(self, family, d):
        space = {"rademacher": rademacher_space, "steinhauss": steinhauss_space,
                 "lacunary": lacunary_space}[family](d)
        rng = np.random.default_rng(100 * d)
        for n in (1, 2, 3):
            x = random_tuple(d, n, rng)
            blocks = np.einsum("im,iab->mab", space.family, x)
            per_atom = space.weights @ np.linalg.svd(blocks, compute_uv=False).sum(axis=1)
            value, stderr = l1_s1_norm(x, space)
            assert abs(value - per_atom) <= 1e-14 * per_atom
            assert stderr == 0.0

    def test_gaussian_sums_every_atom(self):
        space = gaussian_space(3, 500, seed=11)
        x = random_tuple(3, 2)
        tn = np.linalg.svd(element_from_tuple(x, space).blocks, compute_uv=False).sum(axis=1)
        value, stderr = l1_s1_norm(x, space)
        assert value == float(space.weights @ tn)
        assert stderr == float(tn.std(ddof=1) / np.sqrt(space.atoms))


class TestGammaRatio:
    def test_d1(self):
        assert gamma_ratio(1) == pytest.approx(np.sqrt(np.pi) / 2.0, rel=1e-12)
        assert gamma_ratio(1) == pytest.approx(0.8862269, abs=1e-7)

    def test_d2_recursion(self):
        # Gamma(5/2) = (3/2)(1/2) sqrt(pi)
        assert gamma_ratio(2) == pytest.approx(1.5 * np.sqrt(np.pi) / 2.0, rel=1e-12)
        assert gamma_ratio(2) == pytest.approx(1.3293404, abs=1e-7)

    def test_closed_form(self):
        # Gamma(d + 1/2) / Gamma(d) = sqrt(pi) d C(2d, d) / 4^d, the ratio in exact integers
        for d in range(1, 201):
            exact = math.sqrt(math.pi) * float(Fraction(d * math.comb(2 * d, d), 4**d))
            assert gamma_ratio(d) == pytest.approx(exact, rel=1e-12, abs=0.0), d

    def test_sqrt_d_limit(self):
        d = 10_000
        assert gamma_ratio(d) / np.sqrt(d) == pytest.approx(1.0, abs=1e-4)


class TestProductEmbedAndReadout:
    """``element_from_tuple`` and ``conditional_expectation`` against plain ``einsum``."""

    @pytest.mark.parametrize(
        "space",
        [rademacher_space(5), steinhauss_space(3), lacunary_space(4), gaussian_space(3, 200, seed=2)],
        ids=["rademacher", "steinhauss", "lacunary", "gaussian"],
    )
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_matches_einsum(self, space, n):
        y = random_tuple(space.d, n)
        embedded = element_from_tuple(y, space).blocks
        reference = np.einsum("im,iab->mab", space.family, y)
        assert embedded.shape == reference.shape
        assert np.abs(embedded - reference).max() <= 1e-14 * np.abs(reference).max()
        blocks = random_tuple(space.atoms, n)
        readout = conditional_expectation(RandomElement(space, blocks))
        expected = np.einsum("m,im,mab->iab", space.weights, space.family.conj(), blocks)
        assert readout.shape == expected.shape
        assert np.abs(readout - expected).max() <= 1e-14 * np.abs(expected).max()


class TestConditionalExpectation:
    @pytest.mark.parametrize(
        "space", [rademacher_space(3), steinhauss_space(3), lacunary_space(3)]
    )
    def test_recovers_coefficients(self, space):
        y = random_tuple(3, 2)
        assert np.abs(conditional_expectation(element_from_tuple(y, space)) - y).max() < 1e-13

    def test_constant_maps_to_zero(self):
        sp = rademacher_space(2)
        const = RandomElement(sp, np.tile(np.eye(2, dtype=complex), (sp.atoms, 1, 1)))
        assert np.abs(conditional_expectation(const)).max() < 1e-15

    def test_squared_variable_maps_to_zero(self):
        sp = steinhauss_space(1)
        blocks = (sp.family[0] ** 2)[:, None, None] * np.eye(1, dtype=complex)
        elem = RandomElement(sp, blocks)
        assert np.abs(conditional_expectation(elem)).max() < 1e-15


class TestSupNorm:
    def test_scalar(self):
        assert sup_norm(element_from_tuple([[[1.0 + 0j]]], rademacher_space(1))) == pytest.approx(1.0)

    def test_product_of_signs(self):
        sp = rademacher_space(2)
        blocks = (sp.family[0] * sp.family[1])[:, None, None].astype(complex)
        assert sup_norm(RandomElement(sp, blocks)) == pytest.approx(1.0)

    def test_sum_of_signs_attains_d(self):
        sp = rademacher_space(3)
        x = np.ones((3, 1, 1), dtype=complex)
        # oracle: brute force over the 8 atoms
        oracle = max(
            abs(r1 + r2 + r3)
            for r1, r2, r3 in itertools.product([1, -1], repeat=3)
        )
        assert oracle == 3
        assert sup_norm(element_from_tuple(x, sp)) == pytest.approx(3.0)

    def test_lower_bounds_triple_norm_of_readout(self):
        # any element dominates the primal norm of its coefficients
        for space in (rademacher_space(3), steinhauss_space(3), lacunary_space(3)):
            blocks = RNG.standard_normal((space.atoms, 2, 2)) + 1j * RNG.standard_normal(
                (space.atoms, 2, 2)
            )
            elem = RandomElement(space, blocks)
            assert sup_norm(elem) >= triple_norm(conditional_expectation(elem)) - 1e-9


class TestMomentIdentityCheck:
    @pytest.mark.parametrize(
        "space",
        [rademacher_space(4), steinhauss_space(4), lacunary_space(4)],
    )
    def test_exact_kinds_pass(self, space):
        report = moment_identity_check(random_tuple(4, 3), space)
        assert report.passed and report.max_deviation <= 1e-12
        assert report.tolerance == 1e-11

    def test_rademacher_scalar_decomposition(self):
        # 8 = (sum y^2)^2 + cross-square + cross-mixed = 4 + 2 + 2
        y = np.ones((2, 1, 1), dtype=complex)
        sp = rademacher_space(2)
        elem = element_from_tuple(y, sp)
        m4 = sp.weights @ np.abs(elem.blocks[:, 0, 0]) ** 4
        assert m4 == pytest.approx(8.0)
        assert moment_identity_check(y, sp).passed

    def test_gaussian_scalar_fourth_moment(self):
        # E|g|^4 = 2 for a standard complex Gaussian: Gamma(1,1) second moment
        sp = gaussian_space(1, 200_000, seed=17)
        g = sp.family[0]
        m4 = (np.abs(g) ** 4).mean()
        se = (np.abs(g) ** 4).std(ddof=1) / np.sqrt(sp.atoms)
        assert abs(m4 - 2.0) <= 3.0 * se
        report = moment_identity_check(np.ones((1, 1, 1), dtype=complex), sp)
        assert report.passed

    def test_gaussian_mc_statistical_tolerance(self):
        report = moment_identity_check(random_tuple(2, 2), gaussian_space(2, 20_000, seed=9))
        assert report.passed
        assert report.tolerance == 50.0 / np.sqrt(20_000)

    @pytest.mark.parametrize("family", ["rademacher", "steinhauss", "lacunary", "gaussian"])
    def test_empty_tuple_passes_with_zero_deviations(self, family):
        # n = 0: every moment is an empty matrix, and so is every violation
        report = moment_identity_check(np.zeros((2, 0, 0)), build(family, 2, samples=100, seed=1))
        assert report.passed and report.max_deviation == 0.0

    def test_memory_is_the_element_plus_a_few_chunks(self):
        sp, y = steinhauss_space(6), random_tuple(6, 2)
        blocks = element_from_tuple(y, sp).blocks
        chunk_bytes = spaces._MOMENT_CHUNK * blocks[0].nbytes
        moment_identity_check(y, sp)
        tracemalloc.start()
        try:
            moment_identity_check(y, sp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # whole-space Gram stacks and conjugates would take four times blocks
        assert peak <= blocks.nbytes + 8 * chunk_bytes

    def test_violation_raises(self):
        # a biased measure no longer satisfies the sign-family moments
        sp = rademacher_space(2)
        bad_space = type(sp)(
            kind="rademacher",
            weights=np.array([0.7, 0.1, 0.1, 0.1]),
            family=sp.family.copy(),
        )
        with pytest.raises(IdentityViolation):
            moment_identity_check(np.ones((2, 1, 1), dtype=complex), bad_space)


def _cycled(space, atoms):
    """``atoms`` equal-weight atoms running through ``space``'s atoms in turn."""
    cols = np.arange(atoms) % space.atoms
    return DiscreteProbabilitySpace(space.kind, np.full(atoms, 1.0 / atoms), space.family[:, cols])


def _whole_space_sums(y, space):
    """The four weighted moment sums, each one einsum over every atom."""
    blocks = element_from_tuple(y, space).blocks
    w = space.weights
    g_col = np.einsum("mba,mbc->mac", blocks.conj(), blocks)
    g_row = np.einsum("mab,mcb->mac", blocks, blocks.conj())
    return (
        np.einsum("m,mac->ac", w, g_col),
        np.einsum("m,mac->ac", w, g_row),
        np.einsum("m,mab,mbc->ac", w, g_col, g_col),
        np.einsum("m,mab,mbc->ac", w, g_row, g_row),
    )


def _report_or_violation(call):
    try:
        return call()
    except IdentityViolation as exc:
        return exc.report


CHUNK = spaces._MOMENT_CHUNK


class TestMomentChunks:
    """Chunked moment sums against whole-space einsums, across chunk boundaries.

    Per kind: fewer atoms than a chunk, exactly one chunk, and a count that
    is no multiple of it.  A cycled space whose length is no multiple of its
    base space's fails the identities, so failed verdicts are compared too.
    """

    @pytest.mark.parametrize(
        "space",
        [
            rademacher_space(4),
            rademacher_space(10),
            _cycled(rademacher_space(4), 2 * CHUNK + 37),
            steinhauss_space(4),
            _cycled(steinhauss_space(2), CHUNK),
            steinhauss_space(5),
            lacunary_space(6),
            lacunary_space(7),
            _cycled(lacunary_space(3), 2 * CHUNK + 37),
            gaussian_space(3, CHUNK // 2, seed=5),
            gaussian_space(3, CHUNK, seed=5),
            gaussian_space(3, 2 * CHUNK + 37, seed=5),
        ],
        ids=lambda sp: f"{sp.kind}-{sp.atoms}",
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_sums_and_verdict_match_the_whole_space_sums(self, space, n, monkeypatch):
        y = random_tuple(space.d, n, np.random.default_rng(space.atoms))
        calls = []

        def recording(*args):
            calls.append(args)
            return moment_report(*args)

        monkeypatch.setattr(spaces, "moment_report", recording)
        report = _report_or_violation(lambda: moment_identity_check(y, space))
        (name, tol, measured, closed, factor), = calls
        reference = _whole_space_sums(y, space)
        for got, expected in zip(measured, reference, strict=True):
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
        expected = _report_or_violation(lambda: moment_report(name, tol, reference, closed, factor))
        assert report.passed == expected.passed
        assert report.deviations.keys() == expected.deviations.keys()
        for tag, dev in expected.deviations.items():
            assert abs(report.deviations[tag] - dev) <= 1e-13
