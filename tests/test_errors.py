import pytest

from igraphjac.errors import InvalidParams, check_int, check_steps


class TestCheckInt:
    @pytest.mark.parametrize("value", [True, False, 3.0, "3", None])
    def test_rejects_non_int(self, value):
        with pytest.raises(InvalidParams, match="x must be an int"):
            check_int("x", value)

    @pytest.mark.parametrize("value, least", [(2, 3), (-1, 0), (0, 1)])
    def test_rejects_value_below_least(self, value, least):
        with pytest.raises(InvalidParams, match=f"x must be at least {least}, got {value}"):
            check_int("x", value, least)

    @pytest.mark.parametrize("value, least", [(3, 3), (0, 0), (-5, None), (10**40, 1)])
    def test_accepts_int_at_or_above_least(self, value, least):
        check_int("x", value, least)


class TestCheckSteps:
    @pytest.mark.parametrize("k, l", [(0, 1), (1, 0), (-1, 2), (True, 2), (1, 2.0), (2, 4), (3, 9)])
    def test_rejects(self, k, l):
        with pytest.raises(InvalidParams):
            check_steps(k, l)

    @pytest.mark.parametrize("k, l", [(1, 1), (2, 3), (5, 2), (40, 41)])
    def test_accepts_coprime_positive_steps(self, k, l):
        check_steps(k, l)
