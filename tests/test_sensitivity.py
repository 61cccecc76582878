import math

import numpy as np
import pytest

from causalmed.errors import InputError
from causalmed.sensitivity import evalue, implied_rr


class TestEvalue:
    def test_null_effect_is_one(self):
        assert evalue(1.0).evalue_point == 1.0

    def test_direct_effect_value(self):
        result = evalue(3.07)
        assert round(result.evalue_point, 1) == 2.9
        assert 2.85 <= result.evalue_point <= 2.95

    def test_indirect_effect_value(self):
        result = evalue(1.07)
        assert round(result.evalue_point, 1) == 1.2
        assert 1.17 <= result.evalue_point <= 1.27

    def test_inversion_symmetry_exact(self):
        for value in (2.0, 1.3, 5.7, 0.08):
            assert evalue(value).evalue_point == evalue(1.0 / value).evalue_point

    def test_protective_effect(self):
        assert evalue(0.5).evalue_point == evalue(2.0).evalue_point

    def test_ci_crossing_one_gives_one(self):
        result = evalue(1.07, ci=(0.87, 1.31))
        assert result.evalue_ci == 1.0

    def test_ci_excluding_one_uses_near_limit(self):
        result = evalue(3.07, ci=(2.64, 3.58))
        expected = evalue(2.64).evalue_point
        assert result.evalue_ci == pytest.approx(expected, abs=1e-12)

    def test_protective_ci_uses_upper_limit(self):
        result = evalue(0.5, ci=(0.3, 0.8))
        expected = evalue(1 / 0.8).evalue_point
        assert result.evalue_ci == pytest.approx(expected, abs=1e-12)

    def test_near_limit_follows_the_interval_not_the_estimate(self):
        # Percentile intervals need not contain the estimate; the limit
        # nearer the null is the interval's, whichever side the estimate is on.
        assert evalue(0.9, ci=(1.1, 1.5)).evalue_ci == evalue(1.1).evalue_point
        assert evalue(2.0, ci=(2.5, 3.0)).evalue_ci == evalue(2.5).evalue_point
        assert evalue(1.2, ci=(0.5, 0.8)).evalue_ci == pytest.approx(evalue(1 / 0.8).evalue_point, abs=1e-12)

    def test_monotone_in_rr(self):
        values = [evalue(v).evalue_point for v in np.linspace(1.0, 8.0, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[0] == 1.0

    def test_point_identity(self):
        result = evalue(3.07)
        rr = result.rr_used
        assert result.evalue_point == pytest.approx(rr + math.sqrt(rr * (rr - 1)), abs=1e-12)

    def test_round_trip_through_implied_rr(self):
        for value in (1.01, 1.07, 2.0, 3.07, 9.5):
            result = evalue(value)
            assert implied_rr(result.evalue_point) == pytest.approx(math.sqrt(value), abs=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(InputError):
            evalue(0.0)
        with pytest.raises(InputError):
            evalue(-2.0)
        with pytest.raises(InputError):
            evalue(float("nan"))
        with pytest.raises(InputError):
            evalue(float("inf"))
        with pytest.raises(InputError):
            evalue(2.0, ci=(3.0, 2.0))

    @pytest.mark.parametrize("value", [np.float32(2.0), np.int64(2)])
    def test_numpy_real_numbers_accepted(self, value):
        result = evalue(value)
        assert type(result.input_or) is float
        assert result == evalue(2.0)

    @pytest.mark.parametrize("value", [True, np.bool_(True), "2.0", 2.0 + 0j])
    def test_non_real_inputs_rejected(self, value):
        with pytest.raises(InputError, match="odds ratio must be a real number"):
            evalue(value)

    @pytest.mark.parametrize("ci", [("0.8", "1.5"), (True, 1.5), (0.8, 1.5 + 0j)])
    def test_non_real_limits_rejected(self, ci):
        with pytest.raises(InputError, match="confidence limit must be a real number"):
            evalue(1.1, ci=ci)

    def test_numpy_limits_accepted(self):
        assert evalue(1.1, ci=(np.float32(0.75), np.int64(2))) == evalue(1.1, ci=(0.75, 2.0))

    def test_json_keys(self):
        obj = evalue(3.07, ci=(2.64, 3.58)).to_json_obj()
        assert set(obj) == {"or", "rr_used", "evalue_point", "evalue_ci"}
