import math
from types import SimpleNamespace

import numpy as np
import pytest

from nck.constants import (
    INV_SQRT2,
    SEARCH_TOL,
    c2_witness_gaussian,
    car_c1_witness,
    car_c2_sequence,
    gaussian_c1_bound_sequence,
    random_search_ratio,
)
from nck import constants
from nck.exceptions import DTooLarge, IdentityViolation, InvalidParameter
from nck.spaces import FAMILIES, gamma_ratio

INV_SQRT3 = 1.0 / math.sqrt(3.0)


class TestGaussianC1Bound:
    def test_first_value(self):
        assert gaussian_c1_bound_sequence(1) == pytest.approx(np.sqrt(2.0 / 3.0), rel=1e-12)
        assert gaussian_c1_bound_sequence(1) == pytest.approx(0.8165, abs=1e-4)

    def test_m_100(self):
        assert gaussian_c1_bound_sequence(100) == pytest.approx(
            math.sqrt(101.0 / 201.0), rel=1e-12
        )
        assert gaussian_c1_bound_sequence(100) == pytest.approx(0.70887, abs=1e-5)

    def test_limit(self):
        assert abs(gaussian_c1_bound_sequence(100_000) - INV_SQRT2) <= 1e-3

    def test_strictly_decreasing_and_above_limit(self):
        values = [gaussian_c1_bound_sequence(m) for m in range(1, 200)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > INV_SQRT2 for v in values)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            gaussian_c1_bound_sequence(0)


class TestC2WitnessGaussian:
    def test_is_the_gamma_ratio_bit_for_bit(self):
        values = [c2_witness_gaussian(d) for d in range(1, 17)]
        assert values == [gamma_ratio(d) / math.sqrt(d) for d in range(1, 17)]
        assert all(a < b for a, b in zip(values, values[1:])) and values[-1] < 1.0

    def test_d1_half_sqrt_pi(self):
        assert c2_witness_gaussian(1) == pytest.approx(np.sqrt(np.pi) / 2.0, rel=1e-15)

    @pytest.mark.parametrize("d", [0, -1])
    def test_nonpositive_d_is_invalid_parameter(self, d):
        with pytest.raises(InvalidParameter):
            c2_witness_gaussian(d)

    def test_closed_form_increases_toward_one(self):
        values = [gamma_ratio(d) / math.sqrt(d) for d in (1, 2, 4, 8, 16, 64)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0


class TestCarC1Witness:
    def test_values(self):
        w = car_c1_witness()
        assert w.functional_norm == pytest.approx(1.0, abs=1e-12)
        assert w.dual_value == pytest.approx(np.sqrt(2.0), abs=1e-8)
        assert abs(w.ratio - INV_SQRT2) <= 1e-6

    def test_a_missed_ratio_is_an_identity_violation(self, monkeypatch):
        monkeypatch.setattr(constants, "C1_WITNESS_TOL", -1.0)
        with pytest.raises(IdentityViolation, match="witness ratio") as exc:
            car_c1_witness()
        report = exc.value.report
        assert report.name == "car-c1-witness" and report.tolerance == -1.0
        assert report.deviations["ratio"] <= 1e-6 and not report.passed


class TestCarC2Sequence:
    def test_d1_closed_form(self):
        matrix, binomial = car_c2_sequence(1)
        assert binomial == pytest.approx(INV_SQRT2, rel=1e-12)
        assert matrix == pytest.approx(binomial, abs=1e-12)

    def test_d2_closed_form(self):
        # sqrt(2/2) * (C(2,1) * 1 + C(2,2) * sqrt(2)) / 4 = (2 + sqrt(2)) / 4
        matrix, binomial = car_c2_sequence(2)
        assert binomial == pytest.approx((2.0 + np.sqrt(2.0)) / 4.0, rel=1e-12)
        assert matrix == pytest.approx(binomial, abs=1e-12)

    def test_matrix_matches_binomial(self):
        for d in range(1, 7):
            matrix, binomial = car_c2_sequence(d)
            assert abs(matrix - binomial) <= 1e-10

    def test_increasing_and_below_one(self):
        values = [car_c2_sequence(d)[1] for d in range(1, 21)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < 1.0 for v in values)  # Jensen: E sqrt <= sqrt E

    def test_d10_value(self):
        _, binomial = car_c2_sequence(10)
        assert binomial == pytest.approx(0.9858, abs=1e-3)

    def test_matrix_none_beyond_cap(self):
        matrix, binomial = car_c2_sequence(20)
        assert matrix is None and 0.99 < binomial < 1.0

    def test_cap(self):
        with pytest.raises(DTooLarge):
            car_c2_sequence(61)

    def test_zero_dimension_is_invalid_parameter(self):
        with pytest.raises(InvalidParameter):
            car_c2_sequence(0)


class TestRandomSearch:
    def test_rademacher_scalar_includes_exact_witness(self):
        # trial 0 is the first-column tuple; at n = d = 1 its ratio is exactly 1
        rep = random_search_ratio("rademacher", n=1, d=1, trials=1, seed=0)
        assert rep.upper_witness == pytest.approx(1.0, abs=1e-8)
        assert rep.theoretical == (INV_SQRT3, 1.0)

    def test_gaussian_scalar_ratio_near_half_sqrt_pi(self):
        rep = random_search_ratio("gaussian", n=1, d=1, trials=1, seed=3, samples=50_000)
        assert INV_SQRT2 - 0.01 <= rep.lower_witness <= 1.0
        assert rep.upper_witness == pytest.approx(np.sqrt(np.pi) / 2.0, abs=0.01)

    def test_rademacher_search_respects_sandwich(self):
        rep = random_search_ratio("rademacher", n=2, d=3, trials=500, seed=11)
        assert rep.lower_witness >= INV_SQRT3 - 1e-6
        assert rep.upper_witness <= 1.0 + 1e-5
        assert len(rep.ratios) == 500

    @pytest.mark.parametrize("family", [f for f in FAMILIES if f != "car"])
    def test_theoretical_is_one_over_the_table_constant(self, family):
        rep = random_search_ratio(family, n=1, d=1, trials=1, seed=0, samples=200)
        assert rep.theoretical == (1.0 / FAMILIES[family][0], 1.0)
        # the constants the search reported before they were derived from K
        assert rep.theoretical[0] == (INV_SQRT3 if family == "rademacher" else 1.0 / math.sqrt(2.0))

    def test_reports_the_family_key(self):
        rep = random_search_ratio("gaussian", n=1, d=1, trials=1, seed=0, samples=200)
        assert rep.family == "gaussian"

    @pytest.mark.parametrize("name", ["gaussian-mc", "car"])
    def test_a_name_without_a_space_is_invalid_parameter(self, name):
        # one name per family: the old sampled kind is no alias of gaussian
        with pytest.raises(InvalidParameter):
            random_search_ratio(name, n=1, d=1, trials=1, seed=0, samples=200)

    @pytest.mark.parametrize(
        "ratio,accepted",
        [(INV_SQRT3 - SEARCH_TOL, True), (1.0 + SEARCH_TOL, True),
         (INV_SQRT3 - 2 * SEARCH_TOL, False), (1.0 + 2 * SEARCH_TOL, False)],
        ids=["low-edge", "high-edge", "below", "above"],
    )
    def test_the_search_allows_its_tolerance(self, ratio, accepted, monkeypatch):
        # the search's own check is the one verdict: a report it returns has
        # passed, and a ratio past the slack raises
        assert SEARCH_TOL == 1e-5
        monkeypatch.setattr(constants, "l1_s1_norm", lambda x, space: (ratio, 0.0))
        monkeypatch.setattr(constants, "dual_norm", lambda x: SimpleNamespace(value=1.0))
        if accepted:
            rep = random_search_ratio("rademacher", n=1, d=1, trials=1)
            assert rep.lower_witness == rep.upper_witness == ratio
        else:
            with pytest.raises(IdentityViolation, match="outside"):
                random_search_ratio("rademacher", n=1, d=1, trials=1)

    def test_a_ratio_outside_the_sandwich_is_an_identity_violation(self, monkeypatch):
        monkeypatch.setattr(constants, "SEARCH_TOL", -1.0)
        with pytest.raises(IdentityViolation, match="outside") as exc:
            random_search_ratio("rademacher", n=1, d=1, trials=1)
        report = exc.value.report
        assert report.name == "sandwich" and report.tolerance == -1.0
        assert list(report.deviations) == ["trial-0"] and not report.passed

    def test_car_has_no_search_space(self):
        with pytest.raises(InvalidParameter):
            random_search_ratio("car", n=1, d=1, trials=1)

    @pytest.mark.parametrize("kind", ["steinhauss", "lacunary"])
    def test_circular_kinds_respect_sandwich(self, kind):
        rep = random_search_ratio(kind, n=2, d=3, trials=30, seed=7)
        assert rep.lower_witness >= INV_SQRT2 - 1e-6
        assert rep.upper_witness <= 1.0 + SEARCH_TOL
