import dataclasses
import itertools
import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from nck import caps
from nck.car import (
    IDENTITY_TOL,
    CarElement,
    CarSystem,
    _block_layout,
    _column_pairs,
    _joined,
    _max_abs,
    _minus_identity,
    _jw_generators,
    _pair_products,
    SubspaceModel,
    anticommutation_check,
    car_system,
    coefficient_functional,
    embed_tuple,
    extract_coefficients,
    fourth_moment_check,
    orthogonality_check,
    second_moment_check,
    state_eval,
    state_weight_check,
    subspace_to_weights,
)
from nck.exceptions import (
    DegenerateWeight,
    DimensionMismatch,
    DTooLarge,
    IdentityViolation,
    InvalidParameter,
    NotOrthonormal,
    SizeMismatch,
)
from nck.lifting import lift
from nck.norms import gram_norm, moment_forms, weighted_triple_norm
from nck.reports import checked, moment_report

RNG = np.random.default_rng(2718)


def random_tuple(d, n, rng=RNG):
    return rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))


def random_system(d, rng=RNG):
    return car_system(rng.uniform(0.05, 0.95, d))


def generators_of(sys):
    """Every generator of a system, as the dense matrices :meth:`CarSystem.generator` gives."""
    return [sys.generator(i) for i in range(sys.d)]


def jw_generators(d):
    """The ``d`` Jordan-Wigner generators, dense."""
    return generators_of(car_system(np.full(d, 0.5)))


def dense_kernels(sys):
    """``K_i = rho a_i* + a_i* rho`` of every generator, formed densely."""
    rho = np.diag(sys.density_diagonal)
    return np.stack([rho @ g.conj().T + g.conj().T @ rho for g in generators_of(sys)])


def dense_monomial(sys, create, annihilate):
    """``a*_{create[0]} ... a*_{create[-1]} a_{annihilate[0]} ... a_{annihilate[-1]}``, densely."""
    out = np.eye(sys.dim, dtype=complex)
    for i in create:
        out = out @ sys.generator(i).conj().T
    for i in annihilate:
        out = out @ sys.generator(i)
    return out


def two_point_determinant(nu, create, annihilate):
    """The state on a normal-ordered monomial: the determinant of the diagonal two-point matrix.

    Zero when the monomial changes the particle number; otherwise entry
    ``(a, b)`` of the matrix is ``nu_g`` where ``annihilate[a]`` and the
    ``b``-th of the reversed ``create`` are the same mode ``g``.
    """
    if len(create) != len(annihilate):
        return 0.0
    if not create:
        return 1.0
    m = np.array([[nu[g] if g == f else 0.0 for f in reversed(create)] for g in annihilate])
    return float(np.linalg.det(m))


class TestSubspaceToWeights:
    def test_pure_row_basis_gives_zero_weights(self):
        model = SubspaceModel(
            basis_row=np.eye(3, 5, dtype=complex), basis_col=np.zeros((3, 5), dtype=complex)
        )
        nu, _rot = subspace_to_weights(model)
        assert np.abs(nu).max() < 1e-12

    def test_balanced_basis_gives_half_weights(self):
        d = 3
        model = SubspaceModel(
            basis_row=np.eye(d, d, dtype=complex) / np.sqrt(2),
            basis_col=np.eye(d, d, dtype=complex) / np.sqrt(2),
        )
        nu, _rot = subspace_to_weights(model)
        assert np.abs(nu - 0.5).max() < 1e-12

    def test_random_subspace_matches_gram_oracle(self):
        # orthonormal 2-frame in C^8, split into halves of size 4
        z = RNG.standard_normal((8, 2)) + 1j * RNG.standard_normal((8, 2))
        q, _ = np.linalg.qr(z)
        model = SubspaceModel(basis_row=q[:4].T.copy(), basis_col=q[4:].T.copy())
        nu, rot = subspace_to_weights(model)
        gram_col = model.basis_col @ model.basis_col.conj().T
        oracle = np.linalg.eigvalsh(gram_col)
        assert np.abs(nu - oracle).max() < 1e-10
        assert nu.min() >= -1e-12 and nu.max() <= 1.0 + 1e-12
        # the rotation actually diagonalizes the Gram
        diag = rot.conj().T @ gram_col @ rot
        assert np.abs(diag - np.diag(nu)).max() < 1e-10

    def test_not_orthonormal_rejected(self):
        model = SubspaceModel(
            basis_row=np.eye(2, 3, dtype=complex), basis_col=np.eye(2, 3, dtype=complex)
        )
        with pytest.raises(NotOrthonormal):
            subspace_to_weights(model)


class TestJordanWigner:
    def test_d1_generator(self):
        (a,) = jw_generators(1)
        assert np.array_equal(a, np.array([[0, 1], [0, 0]], dtype=complex))
        assert np.array_equal(a @ a.conj().T + a.conj().T @ a, np.eye(2))

    def test_d2_anticommutator_vanishes(self):
        a1, a2 = jw_generators(2)
        assert np.abs(a1 @ a2 + a2 @ a1).max() == 0.0

    def test_d2_occupation_form(self):
        a1, _ = jw_generators(2)
        assert np.array_equal(a1 @ a1.conj().T, np.diag([1.0, 1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("d", range(1, 9))
    def test_generator_equals_dense_kron(self, d):
        e = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        u = np.diag([1.0, -1.0]).astype(complex)
        one = np.eye(2, dtype=complex)
        for i, g in enumerate(jw_generators(d)):
            reference = reduce(np.kron, [u] * i + [e] + [one] * (d - 1 - i))
            assert g.dtype == complex and np.count_nonzero(g) == 1 << (d - 1)
            assert np.array_equal(g, reference)

    def test_generator_is_a_new_array_each_call(self):
        sys = car_system([0.3, 0.6])
        a = sys.generator(1)
        assert sys.generator(1) is not a
        a[:] = 7.0
        assert np.array_equal(sys.generator(1), jw_generators(2)[1])
        assert anticommutation_check(sys).passed

    @pytest.mark.parametrize("i", [-1, 2, 5])
    def test_generator_index_outside_range_rejected(self, i):
        with pytest.raises(DimensionMismatch, match="outside range"):
            car_system([0.3, 0.6]).generator(i)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 10, 12])
    def test_relations_exact(self, d, monkeypatch):
        # every entry of the generators is 0 or +-1, so the relations hold
        # with zero floating-point error
        monkeypatch.setenv("NCK_MAX_DIM", "12")
        report = anticommutation_check(car_system(np.full(d, 0.5)))
        assert report.max_deviation == 0.0

    def test_cap(self):
        with pytest.raises(DTooLarge):
            car_system(np.full(caps.car_dim_cap() + 1, 0.5))

    def test_zero_dimension_is_invalid_parameter(self):
        # no weights is zero modes: a usage error, not DTooLarge ("exceeds
        # the configured cap")
        with pytest.raises(InvalidParameter, match="need d >= 1"):
            car_system([])

    def test_env_override_bounded(self, monkeypatch):
        monkeypatch.setenv("NCK_MAX_DIM", "11")
        assert caps.car_dim_cap() == 11
        monkeypatch.setenv("NCK_MAX_DIM", "40")
        assert caps.car_dim_cap() == 12
        monkeypatch.setenv("NCK_MAX_DIM", "twelve")
        with pytest.raises(InvalidParameter, match="NCK_MAX_DIM"):
            caps.car_dim_cap()
        monkeypatch.delenv("NCK_MAX_DIM")
        assert caps.car_dim_cap() == 10


class TestCarSystem:
    def test_callers_generators_are_copied(self):
        gens = jw_generators(2)
        sys = CarSystem(nu=[0.3, 0.6], generators=gens)
        sys.kernel_values
        for g in gens:
            g[:] *= 2
        assert np.array_equal(sys.generator(0), jw_generators(2)[0])
        for i in range(2):
            for j, gj in enumerate(jw_generators(2)):
                assert coefficient_functional(sys, i, gj) == pytest.approx(float(i == j), abs=1e-13)
                assert coefficient_functional(sys, i, sys.generator(j)) == pytest.approx(
                    float(i == j), abs=1e-13)
        assert anticommutation_check(sys).passed

    def test_generator_gives_back_the_callers_matrices(self):
        gens = tuple(random_tuple(3, 8, np.random.default_rng(8)))
        sys = CarSystem(nu=np.full(3, 0.5), generators=gens)
        for i, g in enumerate(gens):
            assert np.array_equal(sys.generator(i), g)

    def test_dense_input_keeps_the_entries_in_order(self):
        # real, complex and nested-list input of the same matrices give the
        # Jordan-Wigner entries, sorted by generator, row and column
        gens = jw_generators(3)
        for form in (gens, [g.real for g in gens], [g.tolist() for g in gens], np.stack(gens)):
            sys = CarSystem(nu=[0.3, 0.6, 0.5], generators=form)
            assert sys.is_jordan_wigner
            assert all(np.array_equal(a, b) and a.dtype == b.dtype
                       for a, b in zip(sys._entries, car_system([0.3, 0.6, 0.5])._entries))

    @pytest.mark.parametrize("build", [car_system, lambda nu: CarSystem(nu, jw_generators(2))],
                             ids=["car_system", "hand-built"])
    def test_callers_weights_are_copied(self, build):
        nu = np.array([0.3, 0.6])
        sys = build(nu)
        sys.density_diagonal
        nu[0] = 0.9
        assert sys.nu is not nu
        assert np.array_equal(sys.nu, [0.3, 0.6])
        with pytest.raises(ValueError, match="read-only"):
            sys.nu[0] = 0.9
        assert second_moment_check(sys).passed

    @pytest.mark.parametrize("nu", [[1.5, 0.5], [-0.2, 0.5], [np.nan, 0.5], [np.inf, 0.5]],
                             ids=["above-one", "negative", "nan", "inf"])
    def test_hand_built_weights_outside_the_unit_interval_rejected(self, nu):
        with pytest.raises(DegenerateWeight, match=r"\[0, 1\]"):
            CarSystem(nu=nu, generators=jw_generators(2))

    def test_weights_must_match_the_generators(self):
        with pytest.raises(DimensionMismatch, match="3 weights for 2 generators"):
            CarSystem(nu=np.array([0.3, 0.6, 0.5]), generators=jw_generators(2))

    @pytest.mark.parametrize(
        "shapes", [[(4, 4), (2, 2)], [(4, 2), (4, 2)], [(3,)], []],
        ids=["two-sides", "not-square", "one-dimensional", "none"],
    )
    def test_generators_must_be_square_of_one_side(self, shapes):
        gens = tuple(np.ones(shape) for shape in shapes)
        with pytest.raises(DimensionMismatch, match="square of one side"):
            CarSystem(nu=np.full(len(gens), 0.5), generators=gens)


def bits(x):
    """``x`` with every array and float by its bytes, so that ``==`` means bit for bit."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (float, complex)):
        return np.array(x).tobytes()
    if isinstance(x, dict):
        return {k: bits(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return tuple(bits(v) for v in x)
    if dataclasses.is_dataclass(x):
        return type(x).__name__, tuple(bits(getattr(x, f.name)) for f in dataclasses.fields(x))
    return x


def values_of(sys, rng_seed=0):
    """Every cached value of a system, its five identity reports and its lifts at n = 1, 2."""
    rng = np.random.default_rng(rng_seed)
    reports = [anticommutation_check(sys), second_moment_check(sys), state_weight_check(sys),
               orthogonality_check(sys), fourth_moment_check(sys, random_tuple(sys.d, 2, rng))]
    lifts = [lift(random_tuple(sys.d, n, rng), sys) for n in (1, 2)]
    return bits((sys.nu, sys.dim, sys._entries, sys.is_jordan_wigner, sys.support_values,
                 sys.density_diagonal, sys.kernel_values, sys.support_kernel,
                 _pair_products(sys._generators), reports, lifts))


def _block_diagonals(blocks, d, q):
    """``D[i, j, u] = B_ij[u, u]``, the diagonals of the blocks, ``(d, d, q)``."""
    i, j, u, v, val = blocks
    on = u == v
    diagonals = np.zeros((d, d, q), dtype=complex)
    diagonals[i[on], j[on], u[on]] = val[on]
    return diagonals


def _pair_product_reports(sys):
    """The anticommutation, second-moment and orthogonality reports, from the pair products alone.

    Every step on every call, over dense ``(d, d, 2**d)`` block diagonals:
    the checks as they were before their generator-only parts were kept
    per generator set.  Each report is a :class:`CheckReport` or the one an
    :class:`IdentityViolation` carries.
    """
    d, q, nu = sys.d, sys.dim, sys.nu
    aa_adj, adj_a, (pi, pj, pu, pv, p) = _pair_products(sys._generators)
    ci, cj, cu, cv, c = adj_a
    upper, lower = aa_adj[0] <= aa_adj[1], ci >= cj
    mixed = _minus_identity(_joined(tuple(a[upper] for a in aa_adj),
                                    tuple(a[lower] for a in (cj, ci, cu, cv, c))), np.ones(d), q)
    plain = (np.minimum(pi, pj), np.maximum(pi, pj), pu, pv, np.where(pi == pj, 2 * p, p))
    anticommutation = {"anticommutator-mixed": _max_abs(mixed, d, q),
                       "anticommutator-plain": _max_abs(plain, d, q)}

    r = sys.density_diagonal
    root = np.sqrt(r)
    families = (("creation", adj_a, nu), ("annihilation", aa_adj, 1.0 - nu))
    second = {
        f"two-point-{name}": np.abs((_block_diagonals(blocks, d, q) * r).sum(axis=2)
                                    - np.diag(center)).max()
        for name, blocks, center in families
    }
    rows, cols, vals = [], [], []
    for side, (_, (i, j, u, v, val), _) in enumerate(families):
        apart = u != v
        rows.append(side * d * d + (i * d + j)[apart])
        cols.append((side * q + u[apart]) * q + v[apart])
        vals.append(val[apart] * root[(v if side == 0 else u)[apart]])
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    e1, e2 = _column_pairs(cols)
    n = 2 * d * d
    at = rows[e1] * n + rows[e2]
    prod = np.repeat(vals, np.bincount(e1, minlength=vals.size)) * vals.conj()[e2]
    gram = (np.bincount(at, prod.real, n * n)
            + 1j * np.bincount(at, prod.imag, n * n)).reshape(n, n)
    orthogonality = {}
    off = ~np.eye(d * d, dtype=bool)
    sq_norms = np.outer(1.0 - nu, nu).ravel()
    for side, (name, blocks, center) in enumerate(families):
        form = gram[side * d * d:(side + 1) * d * d, side * d * d:(side + 1) * d * d]
        diagonals = _block_diagonals(blocks, d, q)
        states = (diagonals * r).sum(axis=2)
        diagonals[range(d), range(d)] -= center[:, None]
        dense = diagonals.reshape(d * d, q) * root
        used = np.flatnonzero(dense.any(axis=1))
        form[np.ix_(used, used)] += dense[used] @ dense[used].conj().T
        orthogonality[f"centered-mean-{name}"] = np.abs(states - np.diag(center)).max()
        orthogonality[f"pairwise-orthogonality-{name}"] = np.abs(form[off]).max(initial=0.0)
        orthogonality[f"squared-norms-{name}"] = np.abs(np.diag(form) - sq_norms).max()
    return [_report_or_violation(lambda: checked(name, IDENTITY_TOL, deviations))
            for name, deviations in (("anticommutation", anticommutation),
                                     ("second-moments", second),
                                     ("orthogonality", orthogonality))]


def _report_or_violation(call):
    try:
        return call()
    except IdentityViolation as exc:
        return exc.report


PAIR_PRODUCT_CHECKS = (anticommutation_check, second_moment_check, orthogonality_check)


class TestGeneratorCache:
    def test_systems_at_one_d_share_the_generators(self):
        first, second = car_system([0.2, 0.7, 0.4, 0.9]), car_system([0.6, 0.1, 0.5, 0.3])
        assert first._generators is second._generators
        assert first.support_values is second.support_values
        assert not np.array_equal(first.density_diagonal, second.density_diagonal)
        generators = first._generators
        generators.is_jordan_wigner
        cached = [*generators.entries, generators.occupied, *generators._support,
                  generators.support_values]
        for a in cached:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_check_structure_is_shared_and_read_only(self):
        first, second = car_system([0.2, 0.7, 0.4, 0.9]), car_system([0.6, 0.1, 0.5, 0.3])
        for check in PAIR_PRODUCT_CHECKS:
            check(first)
            check(second)
        generators = first._generators
        assert second._generators.anticommutation is generators.anticommutation
        assert second._generators.diagonals is generators.diagonals
        assert second._generators.orthogonality_join is generators.orthogonality_join
        diagonals, join = generators.diagonals, generators.orthogonality_join
        cached = [*(a for f in diagonals for a in f), *join]
        for a in cached:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0
        # entry lists: the diagonals hold one row per block i = i, never d x d x 2**d values
        rows, at, value = diagonals[0]
        assert np.array_equal(rows, np.arange(4) * 5) and value.size == 4 * 2**3

    def test_the_set_keeps_no_pair_products(self):
        # after all five checks, the set holds only what the checks read of
        # the products, never the products themselves
        sys = car_system([0.2, 0.7, 0.4, 0.9, 0.35])
        values_of(sys)
        generators = sys._generators
        assert set(vars(generators)) == {"d", "dim", "entries", "is_jordan_wigner", "occupied",
                                         "_support", "support_values", "anticommutation",
                                         "diagonals", "orthogonality_join"}

    def test_the_orthogonality_join_waits_for_its_check(self):
        # the car-identities checks read the diagonals only; the join, the
        # set's largest list, is built when the orthogonality check first runs
        shared = car_system([0.2, 0.7, 0.4, 0.9, 0.35])
        sys = CarSystem(shared.nu, [shared.generator(i) for i in range(shared.d)])
        y = random_tuple(sys.d, 2, np.random.default_rng(3))
        reports = [anticommutation_check(sys), second_moment_check(sys), state_weight_check(sys),
                   fourth_moment_check(sys, y)]
        assert "diagonals" in vars(sys._generators)
        assert "orthogonality_join" not in vars(sys._generators)
        assert bits(reports) == bits([anticommutation_check(shared), second_moment_check(shared),
                                      state_weight_check(shared), fourth_moment_check(shared, y)])
        assert bits(orthogonality_check(sys)) == bits(orthogonality_check(shared))
        assert "orthogonality_join" in vars(sys._generators)

    @pytest.mark.parametrize("d", range(1, 8))
    def test_reports_equal_the_pair_product_reference_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        edges = rng.uniform(0.0, 1.0, d)
        edges[0], edges[-1] = 0.0, 1.0
        for nu in (rng.uniform(0.05, 0.95, d), np.full(d, 0.5), edges):
            sys = car_system(nu)
            got = [_report_or_violation(lambda: check(sys)) for check in PAIR_PRODUCT_CHECKS]
            assert bits(got) == bits(_pair_product_reports(sys))

    @pytest.mark.parametrize("kind", ["empty-generator", "repeated-entries", "cancelling-products",
                                      "unequal-columns"])
    def test_hand_built_reports_equal_the_pair_product_reference_bit_for_bit(self, kind):
        rng = np.random.default_rng(len(kind))
        sys = CarSystem(nu=rng.uniform(0.05, 0.95, 3), generators=stress_generators(kind, rng))
        got = [_report_or_violation(lambda: check(sys)) for check in PAIR_PRODUCT_CHECKS]
        assert bits(got) == bits(_pair_product_reports(sys))

    def test_failing_set_raises_on_every_call(self):
        clean = car_system([0.3, 0.6])
        gens = generators_of(clean)
        gens[0] = gens[0] + 1e-3 * np.eye(clean.dim)
        corrupted = CarSystem(nu=clean.nu, generators=gens)
        for _ in range(2):
            with pytest.raises(IdentityViolation) as exc:
                anticommutation_check(corrupted)
            assert exc.value.report.deviations["anticommutator-mixed"] > 1e-3

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_hand_built_jordan_wigner_matches_car_system(self, d):
        nu = np.random.default_rng(d).uniform(0.05, 0.95, d)
        clean = car_system(nu)
        hand_built = CarSystem(nu, generators_of(clean))
        assert hand_built._generators is not clean._generators
        assert values_of(hand_built) == values_of(clean)

    def test_clearing_the_caches_changes_no_value(self):
        nu = [0.3, 0.8, 0.15, 0.6, 0.45]
        before = car_system(nu)
        want = values_of(before)
        for cache in (_jw_generators, _block_layout):
            cache.cache_clear()
        after = car_system(nu)
        assert after._generators is not before._generators
        assert values_of(after) == want


class TestState:
    def test_density_is_a_state(self):
        sys = random_system(3)
        rho = np.diag(sys.density_diagonal)
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-15
        assert state_eval(sys, np.eye(sys.dim)) == pytest.approx(1.0)

    def test_two_point_values(self):
        sys = random_system(3)
        for i, gi in enumerate(generators_of(sys)):
            for j, gj in enumerate(generators_of(sys)):
                v = state_eval(sys, gi.conj().T @ gj)
                assert v == pytest.approx(sys.nu[i] if i == j else 0.0, abs=1e-13)
                v = state_eval(sys, gi @ gj.conj().T)
                assert v == pytest.approx((1 - sys.nu[i]) if i == j else 0.0, abs=1e-13)

    def test_second_moment_check_passes(self):
        assert second_moment_check(random_system(4)).passed

    def test_second_moment_check_matches_dense_products(self):
        # reference: the states of the dense products, on generic matrices
        d, q = 3, 8
        gens = tuple(random_tuple(d, q))
        sys = CarSystem(nu=RNG.uniform(0.05, 0.95, d), generators=gens)
        dev_c = dev_a = 0.0
        for i, gi in enumerate(gens):
            for j, gj in enumerate(gens):
                delta = float(i == j)
                dev_c = max(dev_c, abs(state_eval(sys, gi.conj().T @ gj) - delta * sys.nu[i]))
                dev_a = max(dev_a, abs(state_eval(sys, gi @ gj.conj().T) - delta * (1 - sys.nu[i])))
        with pytest.raises(IdentityViolation) as exc:
            second_moment_check(sys)
        report = exc.value.report
        assert dev_c > 1e-3 and dev_a > 1e-3
        assert report.deviations["two-point-creation"] == pytest.approx(dev_c, rel=1e-12)
        assert report.deviations["two-point-annihilation"] == pytest.approx(dev_a, rel=1e-12)

    def test_second_moment_check_detects_corrupted_generator(self):
        clean = random_system(2)
        gens = generators_of(clean)
        gens[0] = gens[0] + 1e-4 * np.eye(clean.dim)
        with pytest.raises(IdentityViolation, match="two-point"):
            second_moment_check(CarSystem(nu=clean.nu, generators=tuple(gens)))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            state_eval(random_system(2), np.eye(3))

    def test_weight_off_the_15_digit_grid_is_exact(self):
        nu = 0.3 + 4e-16
        sys = car_system([nu])
        a = sys.generator(0)
        assert state_eval(sys, a.conj().T @ a) == nu

    @pytest.mark.parametrize("read", [
        second_moment_check,
        state_weight_check,
        orthogonality_check,
        lambda sys: state_eval(sys, np.eye(3)),
        lambda sys: coefficient_functional(sys, 0, np.eye(3)),
    ], ids=["second-moments", "state-weights", "orthogonality", "state", "coefficient-functional"])
    def test_the_state_is_not_read_at_the_wrong_side(self, read):
        # the product state lives on the 2**d-dimensional space only
        g = np.zeros((3, 3))
        g[0, 1] = 1.0
        with pytest.raises(IdentityViolation, match="Jordan-Wigner space") as exc:
            read(CarSystem(nu=[0.5], generators=[g]))
        assert exc.value.report.name == "jordan-wigner-support"
        assert exc.value.report.deviations == {"side": 1}

    def test_anticommutation_needs_no_state(self):
        g = np.zeros((3, 3))
        g[0, 1] = 1.0
        with pytest.raises(IdentityViolation) as exc:
            anticommutation_check(CarSystem(nu=[0.5], generators=[g]))
        assert exc.value.report.name == "anticommutation"
        assert exc.value.report.deviations == {"anticommutator-mixed": 1.0,
                                               "anticommutator-plain": 0.0}


class TestNPointFunction:
    # the state on a monomial built densely from the generators, against the
    # determinant of the diagonal two-point matrix
    def test_one_point(self):
        sys = random_system(3)
        for i in range(3):
            assert state_eval(sys, dense_monomial(sys, [i], [i])) == pytest.approx(sys.nu[i])
            assert two_point_determinant(sys.nu, [i], [i]) == pytest.approx(sys.nu[i])

    def test_particle_number_mismatch(self):
        sys = random_system(2)
        assert two_point_determinant(sys.nu, [0], [0, 1]) == 0.0
        assert state_eval(sys, dense_monomial(sys, [0], [0, 1])) == 0.0

    def test_two_point_cross_check_against_trace(self):
        sys = car_system([0.35, 0.65])
        det = two_point_determinant(sys.nu, [1, 0], [0, 1])
        direct = state_eval(sys, dense_monomial(sys, [1, 0], [0, 1]))
        assert det == pytest.approx(sys.nu[0] * sys.nu[1], abs=1e-13)
        assert det == pytest.approx(direct, abs=1e-13)

    def test_random_monomials_match_trace(self):
        sys = random_system(4)
        for _ in range(40):
            k = int(RNG.integers(0, 3))
            m = int(RNG.integers(0, 3))
            create = list(RNG.integers(0, 4, size=k))
            annihilate = list(RNG.integers(0, 4, size=m))
            det = two_point_determinant(sys.nu, create, annihilate)
            direct = state_eval(sys, dense_monomial(sys, create, annihilate))
            assert det == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("create,annihilate", [([-1], []), ([], [-1]), ([0], [2]), ([5], [0])])
    def test_indices_outside_range_rejected(self, create, annihilate):
        sys = random_system(2)
        with pytest.raises(DimensionMismatch, match="outside range"):
            dense_monomial(sys, create, annihilate)


class TestCoefficientFunctional:
    def test_delta_on_generators(self):
        sys = random_system(3)
        for i in range(3):
            for j, gj in enumerate(generators_of(sys)):
                assert coefficient_functional(sys, i, gj) == pytest.approx(
                    1.0 if i == j else 0.0, abs=1e-13
                )

    def test_identity_and_adjoint_vanish(self):
        sys = random_system(2)
        assert coefficient_functional(sys, 0, np.eye(sys.dim)) == pytest.approx(0.0, abs=1e-14)
        a0 = sys.generator(0)
        assert coefficient_functional(sys, 0, a0.conj().T) == pytest.approx(0.0, abs=1e-14)

    def test_vanishes_on_even_monomials(self):
        sys = random_system(3)
        gens = generators_of(sys)
        letters = gens + [g.conj().T for g in gens]
        for length in (0, 2, 4):
            for combo in itertools.product(range(len(letters)), repeat=length):
                word = np.eye(sys.dim, dtype=complex)
                for idx in combo:
                    word = word @ letters[idx]
                for i in range(sys.d):
                    assert abs(coefficient_functional(sys, i, word)) < 1e-12


class TestFunctionalKernels:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_closed_form_is_bit_exact(self, d):
        nu = np.random.default_rng(d).uniform(0.05, 0.95, d)
        nu[0] = 0.0
        nu[-1] = 1.0
        sys = car_system(nu)
        expected = dense_kernels(sys)
        i, u, v, _ = sys._entries
        # K_i has the sparsity of a_i*: kernel_values at (v, u), zero elsewhere
        assert np.array_equal(expected[i, v, u], sys.kernel_values)
        expected[i, v, u] = 0.0
        assert not expected.any()

    def test_hand_built_system_uses_its_own_generators(self):
        clean = car_system([0.3, 0.6])
        gens = generators_of(clean)
        gens[0] = gens[0] + 1e-4 * np.eye(clean.dim)
        perturbed = CarSystem(nu=clean.nu, generators=tuple(gens))
        rho = np.diag(perturbed.density_diagonal)
        expected = np.stack([rho @ g.conj().T + g.conj().T @ rho for g in gens])
        i, u, v, _ = perturbed._entries
        assert np.abs(expected[i, v, u] - perturbed.kernel_values).max() <= 1e-15
        expected[i, v, u] = 0.0
        assert not expected.any()
        assert np.abs(dense_kernels(perturbed) - dense_kernels(clean)).max() > 1e-5

    def test_cached_arrays_are_read_only(self):
        sys = random_system(3)
        cached = [*sys._entries, sys.kernel_values, sys.support_kernel, sys.support_values,
                  sys.density_diagonal]
        for a in cached:
            with pytest.raises(ValueError, match="read-only"):
                a[:] = 0
        for i in range(3):
            for j, gj in enumerate(generators_of(sys)):
                assert coefficient_functional(sys, i, gj) == pytest.approx(float(i == j), abs=1e-13)


    @pytest.mark.parametrize("build", ["car_system", "perturbed"])
    def test_every_reader_takes_the_one_kernel(self, build):
        # phi_i(b) = Tr(K_i b): the dense kernels, the functional and the
        # read-out of an n = 1 matrix agree, also on perturbed generators
        sys = car_system([0.3, 0.6, 0.45])
        if build == "perturbed":
            rng = np.random.default_rng(5)
            sys = CarSystem(sys.nu, [g * (1 + 1e-3 * rng.standard_normal(g.shape))
                                     for g in generators_of(sys)])
        b = random_tuple(1, sys.dim, np.random.default_rng(6))[0]
        kernels = dense_kernels(sys)
        traces = [np.sum(k.T * b) for k in kernels]
        functionals = [coefficient_functional(sys, i, b) for i in range(sys.d)]
        readout = extract_coefficients(sys, b)[:, 0, 0]
        assert np.abs(np.array(functionals) - traces).max() <= 1e-14
        assert np.abs(readout - traces).max() <= 1e-14
        i, u, v, _ = sys._entries
        assert np.abs(kernels[i, v, u] - sys.kernel_values).max() <= 1e-15
        assert np.array_equal(sys.support_kernel.ravel(), sys.kernel_values)


class TestEmbedTuple:
    @pytest.mark.parametrize("d,n", [(1, 1), (3, 2), (6, 1), (6, 3), (7, 2), (8, 1)])
    def test_bit_exact_against_stacked_einsum(self, d, n):
        # the Jordan-Wigner generators have disjoint supports, so adding the
        # terms one generator at a time rounds exactly like the einsum
        sys = random_system(d)
        y = random_tuple(d, n)
        reference = np.einsum("iab,icd->acbd", y, np.stack(generators_of(sys)))
        big = embed_tuple(sys, y).toarray()
        assert big.shape == (n * sys.dim, n * sys.dim)
        assert np.array_equal(big, reference.reshape(big.shape))

    def test_dense_index_built_on_first_use(self):
        d, n = 7, 4
        _block_layout.cache_clear()
        sys = random_system(d)
        y = random_tuple(d, n)
        elem = embed_tuple(sys, y)
        fourth_moment_check(sys, y)
        layout = _block_layout(d, n)
        assert "dense" not in vars(layout)
        big = elem.toarray()
        assert "dense" in vars(layout)
        dense = layout.dense
        assert not dense.flags.writeable
        assert np.unique(dense).size == dense.size == layout.size
        reference = np.einsum("iab,icd->acbd", y, np.stack(generators_of(sys)))
        assert np.array_equal(big, reference.reshape(big.shape))
        assert np.array_equal(extract_coefficients(sys, big), extract_coefficients(sys, elem))

    def test_reads_each_generators_own_signs(self):
        # a sign-flipped generator is still a valid CAR generator
        clean = random_system(3)
        gens = generators_of(clean)
        gens[1] = -gens[1]
        flipped = CarSystem(nu=clean.nu, generators=tuple(gens))
        y = random_tuple(3, 2)
        dense = np.stack(gens)
        reference = np.einsum("iab,icd->acbd", y, dense).reshape(2 * flipped.dim, -1)
        assert np.array_equal(embed_tuple(flipped, y).toarray(), reference)
        assert np.abs(extract_coefficients(flipped, reference) - y).max() < 1e-13

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_off_support_weight_is_an_identity_violation(self, d):
        clean = random_system(d)
        gens = generators_of(clean)
        gens[0] = gens[0] + 1e-4 * np.eye(clean.dim)
        corrupted = CarSystem(nu=clean.nu, generators=tuple(gens))
        mass = f"{1e-4 * clean.dim:.3e}"
        with pytest.raises(IdentityViolation, match=f"generator 0 has weight {mass} off") as exc:
            embed_tuple(corrupted, random_tuple(d, 2))
        report = exc.value.report
        assert report.name == "jordan-wigner-support" and not report.passed
        assert report.deviations == {"off-support-generator-0": pytest.approx(1e-4 * clean.dim)}
        with pytest.raises(IdentityViolation, match="generator 0"):
            extract_coefficients(corrupted, np.eye(clean.dim))

    def test_generators_of_the_wrong_side_are_an_identity_violation(self):
        gens = tuple(random_tuple(3, 4))
        system = CarSystem(nu=np.full(3, 0.5), generators=gens)
        with pytest.raises(IdentityViolation, match="Jordan-Wigner space") as exc:
            embed_tuple(system, random_tuple(3, 1))
        assert exc.value.report.deviations == {"side": 4.0}
        assert exc.value.max_deviation == 4.0
        # a dense read-out checks the side before it indexes the support
        with pytest.raises(IdentityViolation, match="Jordan-Wigner space"):
            extract_coefficients(system, np.eye(4))

    @pytest.mark.parametrize("d,n", [(1, 2), (4, 1), (5, 2), (7, 1)])
    def test_norm_is_the_largest_block_norm(self, d, n):
        sys = random_system(d)
        big = embed_tuple(sys, random_tuple(d, n))
        dense = np.linalg.norm(big.toarray(), 2)
        assert abs(big.op_norm() - dense) <= 1e-12 * dense

    @pytest.mark.parametrize("d,n", [(12, 1), (10, 2)])
    def test_norm_survives_a_mode_rotation(self, d, n, monkeypatch):
        # b_j = sum_i Q_ij a_i satisfy the CAR, so with y = Q R over the
        # d x n^2 coefficient matrix, sum_i y_i (x) a_i = sum_j R_j (x) b_j
        # is the r-mode element of R, r = min(d, n^2), tensored with an
        # identity: the sector layout at d is checked against the one at r
        monkeypatch.setenv("NCK_MAX_DIM", "12")
        y = random_tuple(d, n)
        _, r = np.linalg.qr(y.reshape(d, n * n))
        modes = r.reshape(-1, n, n)
        full = embed_tuple(random_system(d), y).op_norm()
        reduced = embed_tuple(random_system(len(modes)), modes).op_norm()
        assert abs(full - reduced) <= 1e-13 * reduced


class TestExtractCoefficients:
    def test_inverts_embedding(self):
        sys = random_system(3)
        y = random_tuple(3, 2)
        assert np.abs(extract_coefficients(sys, embed_tuple(sys, y)) - y).max() < 1e-13

    def test_identity_maps_to_zero(self):
        sys = random_system(2)
        x = np.kron(np.eye(2), np.eye(sys.dim))
        assert np.abs(extract_coefficients(sys, x)).max() < 1e-14

    def test_even_monomial_maps_to_zero(self):
        sys = random_system(2)
        y = random_tuple(1, 2)[0]
        x = np.kron(y, sys.generator(0) @ sys.generator(1))
        assert np.abs(extract_coefficients(sys, x)).max() < 1e-14

    def test_norm_dominates_weighted_readout(self):
        for _ in range(10):
            d, n = int(RNG.integers(1, 5)), int(RNG.integers(1, 4))
            sys = random_system(d)
            x = RNG.standard_normal((n * sys.dim, n * sys.dim)) + 1j * RNG.standard_normal(
                (n * sys.dim, n * sys.dim)
            )
            readout = extract_coefficients(sys, x)
            assert np.linalg.norm(x, 2) >= weighted_triple_norm(readout, sys.nu) - 1e-9

    @pytest.mark.parametrize("d,n", [(1, 3), (3, 2), (5, 1), (6, 2)])
    def test_dense_input_matches_kernel_einsum(self, d, n):
        sys = random_system(d)
        side = n * sys.dim
        x = RNG.standard_normal((side, side)) + 1j * RNG.standard_normal((side, side))
        reference = np.einsum("iab,pbqa->ipq", dense_kernels(sys), x.reshape(n, sys.dim, n, sys.dim))
        assert np.abs(extract_coefficients(sys, x) - reference).max() <= 1e-14

    @pytest.mark.parametrize("d,n", [(1, 2), (4, 3), (7, 2), (10, 1)])
    def test_dense_input_reads_only_the_support(self, d, n):
        # bit for bit the read-out of the sector blocks, without the dense index
        _block_layout.cache_clear()
        layout = _block_layout(d, n)
        sys = random_system(d)
        side = n * sys.dim
        x = RNG.standard_normal((side, side)) + 1j * RNG.standard_normal((side, side))
        readout = extract_coefficients(sys, x)
        assert "dense" not in vars(layout)
        elem = CarElement(d, n, x.ravel()[layout.dense])
        assert np.array_equal(readout, extract_coefficients(sys, elem))

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            extract_coefficients(random_system(2), np.eye(6))


class TestStateWeightCheck:
    def test_hand_case_d1(self):
        sys = car_system([0.5])
        report = state_weight_check(sys)
        assert report.max_deviation == 0.0
        # hand check with b = the generator: state(a* a) = nu = nu * phi(a)
        a = sys.generator(0)
        assert state_eval(sys, a.conj().T @ a) == pytest.approx(
            sys.nu[0] * coefficient_functional(sys, 0, a)
        )

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_weights(self, d):
        report = state_weight_check(random_system(d))
        assert report.passed and report.max_deviation <= 1e-12

    def test_all_matrix_units_d2(self):
        # exhaustive sweep over the 16 matrix units, both identities
        sys = car_system([0.3, 0.8])
        q = sys.dim
        for i, gi in enumerate(generators_of(sys)):
            for p in range(q):
                for r in range(q):
                    b = np.zeros((q, q), dtype=complex)
                    b[p, r] = 1.0
                    phi = coefficient_functional(sys, i, b)
                    left = state_eval(sys, gi.conj().T @ b)
                    right = state_eval(sys, b @ gi.conj().T)
                    assert left == pytest.approx(sys.nu[i] * phi, abs=1e-13)
                    assert right == pytest.approx((1 - sys.nu[i]) * phi, abs=1e-13)


class TestOrthogonality:
    def test_norm_value_d2(self):
        sys = car_system([0.3, 0.7])
        a1, a2 = generators_of(sys)
        f12 = a1.conj().T @ a2
        norm2 = state_eval(sys, f12.conj().T @ f12)
        assert norm2 == pytest.approx(0.7 * 0.7, abs=1e-13)

    def test_cross_terms_vanish(self):
        sys = car_system([0.3, 0.7])
        a1, a2 = generators_of(sys)
        f11 = a1.conj().T @ a1 - sys.nu[0] * np.eye(sys.dim)
        f22 = a2.conj().T @ a2 - sys.nu[1] * np.eye(sys.dim)
        assert abs(state_eval(sys, f22.conj().T @ f11)) < 1e-13

    def test_centered_means_vanish(self):
        sys = random_system(3)
        for i, gi in enumerate(generators_of(sys)):
            for j, gj in enumerate(generators_of(sys)):
                f = gi.conj().T @ gj - (sys.nu[i] if i == j else 0.0) * np.eye(sys.dim)
                assert abs(state_eval(sys, f)) < 1e-13

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_full_report(self, d):
        report = orthogonality_check(random_system(d))
        assert report.passed and report.max_deviation <= 1e-12

    def test_matches_dense_products(self):
        # reference: dense per-pair products and dense families, on generic
        # matrices, where every identity fails by O(1)
        d, q = 3, 8
        gens = tuple(random_tuple(d, q))
        sys = CarSystem(nu=RNG.uniform(0.05, 0.95, d), generators=gens)
        nu, r = sys.nu, sys.density_diagonal
        adj = [g.conj().T for g in gens]
        off = ~np.eye(d * d, dtype=bool)
        sq_norms = np.outer(1.0 - nu, nu).ravel()
        with pytest.raises(IdentityViolation) as exc:
            orthogonality_check(sys)
        report = exc.value.report
        for side, left, right, center, weight in (
            ("creation", adj, gens, nu, np.sqrt(r)[None, :]),
            ("annihilation", gens, adj, 1.0 - nu, np.sqrt(r)[:, None]),
        ):
            fam = np.stack([left[i] @ right[j] - (i == j) * center[i] * np.eye(q)
                            for i in range(d) for j in range(d)])
            flat = (fam * weight).reshape(d * d, q * q)
            gram = flat @ flat.conj().T
            dense = {
                f"centered-mean-{side}": np.abs(np.einsum("a,kaa->k", r, fam)).max(),
                f"pairwise-orthogonality-{side}": np.abs(gram[off]).max(),
                f"squared-norms-{side}": np.abs(np.diag(gram) - sq_norms).max(),
            }
            for tag, dev in dense.items():
                assert dev > 1e-3
                assert abs(report.deviations[tag] - dev) <= 1e-13 * dev, tag


class TestFourthMoment:
    def test_scalar_half_weight(self):
        sys = car_system([0.5])
        y = np.ones((1, 1, 1), dtype=complex)
        big = embed_tuple(sys, y).toarray()
        cc = big.conj().T @ big
        value = np.trace(np.diag(sys.density_diagonal) @ cc @ cc)
        assert value == pytest.approx(0.5)  # nu(1-nu) + nu^2 at nu = 1/2
        assert fourth_moment_check(sys, y).passed

    @pytest.mark.parametrize("d,n", [(1, 1), (2, 2), (3, 2), (4, 3)])
    def test_random(self, d, n):
        report = fourth_moment_check(random_system(d), random_tuple(d, n))
        assert report.passed and report.max_deviation <= 1e-11

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_empty_tuple_passes_with_zero_deviations(self, d):
        report = fourth_moment_check(random_system(d), np.zeros((d, 0, 0)))
        assert report.passed and report.max_deviation == 0.0

    @pytest.mark.parametrize("d,n", [(1, 1), (2, 3), (4, 2), (5, 3), (6, 1), (6, 3)])
    def test_sector_products_match_dense_products(self, d, n):
        # generators with random values on the Jordan-Wigner support: the
        # moments then miss the closed form, and the deviations of the
        # per-sector route must equal those of the dense products
        rng = np.random.default_rng(d * 10 + n)
        clean = car_system(rng.uniform(0.05, 0.95, d))
        gens = tuple(
            g * (rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape))
            for g in generators_of(clean)
        )
        sys = CarSystem(nu=clean.nu, generators=gens)
        y = random_tuple(d, n, rng)
        q = sys.dim
        big = np.einsum("iab,icd->acbd", y, np.stack(gens)).reshape(n * q, n * q)
        cc = big.conj().T @ big
        rr = big @ big.conj().T
        measured = tuple(
            np.einsum("a,paqa->pq", sys.density_diagonal, m.reshape(n, q, n, q))
            for m in (cc, rr, cc @ cc, rr @ rr)
        )
        nu = sys.nu
        closed = moment_forms(y, nu, 1.0 - nu, np.outer(1.0 - nu, nu), np.zeros((d, d)))
        factor = gram_norm(closed[0]) + gram_norm(closed[1])
        dense = moment_report("fourth-moments", np.inf, measured, closed, factor)
        with pytest.raises(IdentityViolation) as exc:
            fourth_moment_check(sys, y)
        report = exc.value.report
        assert report.deviations.keys() == dense.deviations.keys()
        assert max(dense.deviations.values()) > 1e-3
        for tag, dev in dense.deviations.items():
            assert abs(report.deviations[tag] - dev) <= 1e-13, tag

    @pytest.mark.parametrize("d,n", [(1, 2), (3, 1), (5, 2), (6, 3)])
    def test_squares_read_as_weighted_grams(self, d, n, monkeypatch):
        # the measured moments themselves, against (Id (x) state) of the
        # dense squares
        captured = []
        monkeypatch.setattr(
            "nck.car.moment_report",
            lambda name, tol, measured, closed, factor: captured.append(measured)
            or moment_report(name, tol, measured, closed, factor),
        )
        sys = random_system(d)
        y = random_tuple(d, n)
        fourth_moment_check(sys, y)
        big = embed_tuple(sys, y).toarray()
        cc = big.conj().T @ big
        rr = big @ big.conj().T
        q = sys.dim
        for got, m in zip(captured[0], (cc, rr, cc @ cc, rr @ rr)):
            want = np.einsum("a,paqa->pq", sys.density_diagonal, m.reshape(n, q, n, q))
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_sector_grams_conjugate_a_band_at_a_time(self, monkeypatch):
        # B_5 at d = 9, n = 2 is a 252-square, and so is each of its Grams;
        # in bands of 256 values the check holds the element, one Gram and
        # band temporaries, where a whole-block conjugate or a conjugate of
        # a Gram would add a block's bytes
        d, n = 9, 2
        rng = np.random.default_rng(9)
        sys = car_system(rng.uniform(0.05, 0.95, d))
        y = random_tuple(d, n, rng)
        wide = fourth_moment_check(sys, y)
        monkeypatch.setattr("nck.car._BAND_VALUES", 256)
        fourth_moment_check(sys, y)
        tracemalloc.start()
        try:
            banded = fourth_moment_check(sys, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        element = embed_tuple(sys, y).blocks.nbytes
        block = (n * math.comb(d, 4)) ** 2 * 16
        assert peak <= element + block + block // 2
        for tag, dev in wide.deviations.items():
            assert abs(banded.deviations[tag] - dev) <= 1e-14, tag

    def test_corrupted_generator_detected(self):
        sys = random_system(2)
        bad = car_system(sys.nu)
        gens = generators_of(bad)
        gens[0] = gens[0] + 1e-3 * np.eye(bad.dim)
        corrupted = type(bad)(nu=bad.nu, generators=tuple(gens))
        with pytest.raises(IdentityViolation):
            anticommutation_check(corrupted)


class TestAnticommutation:
    def test_matches_dense_products(self):
        # generic matrices: a_i a_j != a_j a_i, so pairing block (i, j) with
        # any block but (j, i) changes the deviations
        d, q = 3, 8
        gens = tuple(random_tuple(d, q))
        sys = CarSystem(nu=RNG.uniform(0.05, 0.95, d), generators=gens)
        dev_mixed = dev_plain = 0.0
        for i, gi in enumerate(gens):
            for j, gj in enumerate(gens):
                mixed = gi @ gj.conj().T + gj.conj().T @ gi - (i == j) * np.eye(q)
                dev_mixed = max(dev_mixed, np.abs(mixed).max())
                dev_plain = max(dev_plain, np.abs(gi @ gj + gj @ gi).max())
        with pytest.raises(IdentityViolation) as exc:
            anticommutation_check(sys)
        report = exc.value.report
        assert dev_mixed > 1e-3 and dev_plain > 1e-3
        assert abs(report.deviations["anticommutator-mixed"] - dev_mixed) <= 1e-13 * dev_mixed
        assert abs(report.deviations["anticommutator-plain"] - dev_plain) <= 1e-13 * dev_plain


def stress_generators(kind, rng):
    """Three hand-built 8 x 8 generators that stress the join of their entries."""
    q = 8

    def sparse_random(density):
        mask = rng.random((q, q)) < density
        return (rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))) * mask

    if kind == "empty-generator":
        return [np.zeros((q, q)), sparse_random(0.3), sparse_random(0.3)]
    if kind == "repeated-entries":
        # entries added up where they repeat, and one entry that cancels to 0
        gens = []
        for _ in range(3):
            rows, cols = rng.integers(0, q, 40), rng.integers(0, q, 40)
            vals = rng.standard_normal(40) + 1j * rng.standard_normal(40)
            rows, cols = np.append(rows, [q - 1, q - 1]), np.append(cols, [0, 0])
            vals = np.append(vals, [2.5, -2.5])
            g = np.zeros((q, q), dtype=complex)
            np.add.at(g, (rows, cols), vals)
            gens.append(g)
        return gens
    if kind == "cancelling-products":
        # entries +-1 on half the matrix: many products sum to exactly 0
        return [rng.choice([-1.0, 1.0], (q, q)) * (rng.random((q, q)) < 0.5) for _ in range(3)]
    if kind == "unequal-columns":
        # one full column, one full row, one lone entry
        full_col, full_row, lone = np.zeros((3, q, q), dtype=complex)
        full_col[:, 5] = rng.standard_normal(q) + 1j
        full_row[2, :] = rng.standard_normal(q) - 1j
        lone[3, 5] = 0.7 + 0.2j
        return [full_col, full_row + np.eye(q), lone]
    raise ValueError(kind)


def deviations_of(check, sys):
    try:
        return check(sys).deviations
    except IdentityViolation as exc:
        return exc.report.deviations


def dense_deviations(gens, nu, r):
    """Every deviation of the three pair-product checks, from dense per-pair products."""
    d, q = len(gens), gens[0].shape[0]
    adj = [g.conj().T for g in gens]
    out = {"anticommutator-mixed": 0.0, "anticommutator-plain": 0.0}
    for i in range(d):
        for j in range(d):
            mixed = gens[i] @ adj[j] + adj[j] @ gens[i] - (i == j) * np.eye(q)
            out["anticommutator-mixed"] = max(out["anticommutator-mixed"], np.abs(mixed).max())
            plain = gens[i] @ gens[j] + gens[j] @ gens[i]
            out["anticommutator-plain"] = max(out["anticommutator-plain"], np.abs(plain).max())
    off = ~np.eye(d * d, dtype=bool)
    sq_norms = np.outer(1.0 - nu, nu).ravel()
    for side, left, right, center, weight in (
        ("creation", adj, gens, nu, np.sqrt(r)[None, :]),
        ("annihilation", gens, adj, 1.0 - nu, np.sqrt(r)[:, None]),
    ):
        products = np.stack([left[i] @ right[j] for i in range(d) for j in range(d)])
        states = np.einsum("a,kaa->k", r, products).reshape(d, d)
        two_point = "two-point-creation" if side == "creation" else "two-point-annihilation"
        out[two_point] = np.abs(states - np.diag(center)).max()
        fam = products - np.diag(center).reshape(-1, 1, 1) * np.eye(q)
        flat = (fam * weight).reshape(d * d, q * q)
        gram = flat @ flat.conj().T
        out[f"centered-mean-{side}"] = np.abs(np.einsum("a,kaa->k", r, fam)).max()
        out[f"pairwise-orthogonality-{side}"] = np.abs(gram[off]).max()
        out[f"squared-norms-{side}"] = np.abs(np.diag(gram) - sq_norms).max()
    return out


class TestPairProductJoin:
    KINDS = ["empty-generator", "repeated-entries", "cancelling-products", "unequal-columns"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_products_match_dense_products(self, kind):
        rng = np.random.default_rng(len(kind))
        gens = stress_generators(kind, rng)
        sys = CarSystem(nu=rng.uniform(0.05, 0.95, 3), generators=gens)
        dense = [np.asarray(g, dtype=complex) for g in gens]
        adj = [g.conj().T for g in dense]
        cancelled = 0
        # a_i a_j*, a_i* a_j and a_i a_j
        products = _pair_products(sys._generators)
        for family, (left, right) in zip(products, ((dense, adj), (adj, dense), (dense, dense))):
            reference = np.array([[a @ b for b in right] for a in left])
            i, j, u, v, val = family
            got = np.zeros_like(reference)
            got[i, j, u, v] = val
            assert np.unique(((i * 3 + j) * 8 + u) * 8 + v).size == val.size
            assert np.all(val != 0)
            assert np.abs(got - reference).max() <= 1e-13 * np.abs(reference).max()
            # entries where the supports meet, yet the products sum to 0
            meet = np.array([[(a != 0) @ (b != 0) for b in right] for a in left])
            cancelled += np.count_nonzero(meet & (reference == 0))
        if kind == "cancelling-products":
            assert cancelled > 0

    @pytest.mark.parametrize("kind", KINDS)
    def test_check_deviations_match_dense_products(self, kind):
        rng = np.random.default_rng(len(kind))
        gens = stress_generators(kind, rng)
        sys = CarSystem(nu=rng.uniform(0.05, 0.95, 3), generators=gens)
        dense = [np.asarray(g, dtype=complex) for g in gens]
        want = dense_deviations(dense, sys.nu, sys.density_diagonal)
        got = {}
        for check in (anticommutation_check, second_moment_check, orthogonality_check):
            got.update(deviations_of(check, sys))
        assert got.keys() == want.keys()
        for tag, dev in want.items():
            assert abs(got[tag] - dev) <= 1e-13 * dev, tag


class TestIndependenceAtHalfWeights:
    def test_joint_moments_factor(self):
        d = 4
        sys = car_system(np.full(d, 0.5))
        occ = [g @ g.conj().T for g in generators_of(sys)]
        for r in range(1, d + 1):
            for subset in itertools.combinations(range(d), r):
                word = np.eye(sys.dim, dtype=complex)
                for i in subset:
                    word = word @ occ[i]
                joint = state_eval(sys, word)
                product = np.prod([state_eval(sys, occ[i]) for i in subset])
                assert joint == pytest.approx(product, abs=1e-13)
                assert joint == pytest.approx(0.5 ** len(subset), abs=1e-13)
