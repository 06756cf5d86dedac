import dataclasses
import pickle

import numpy as np
import pytest

from nck.exceptions import IdentityViolation
from nck.reports import checked


class TestChecked:
    def test_a_passing_report_is_returned_frozen(self):
        report = checked("demo", 1e-12, {"first": np.float64(0.0), "second": 1e-13})
        assert report.passed and report.max_deviation == 1e-13
        assert all(type(dev) is float for dev in report.deviations.values())
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.tolerance = 1.0

    def test_a_failing_report_rides_on_the_violation(self):
        message = r"demo: identity 'second' deviates by 2\.000e-03 \(tol 1\.0e-03\)"
        with pytest.raises(IdentityViolation, match=message) as exc:
            checked("demo", 1e-3, {"first": 1e-4, "second": 2e-3, "third": 1.5e-3})
        report = exc.value.report
        assert report.name == "demo" and report.tolerance == 1e-3 and not report.passed
        assert report.deviations == {"first": 1e-4, "second": 2e-3, "third": 1.5e-3}
        assert exc.value.max_deviation == 2e-3
        again = pickle.loads(pickle.dumps(exc.value))
        assert str(again) == str(exc.value) and again.report == report

    def test_an_empty_report_passes(self):
        assert checked("empty", 0.0, {}).max_deviation == 0.0
