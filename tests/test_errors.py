"""The shared integer check behind every count, bound and position."""

from __future__ import annotations

import pytest

from paramcsp import DomainError, UsageError, ValidationError
from paramcsp.errors import require_int


class TestRequireInt:
    @pytest.mark.parametrize("value", [0, 1, 7])
    def test_returns_accepted_values(self, value):
        assert require_int(value, "k0", ValidationError) == value

    @pytest.mark.parametrize("value", [True, False, 1.0, "1", None, -1])
    def test_rejects_non_integers_and_values_below_the_floor(self, value):
        with pytest.raises(ValidationError, match="k0 must be a nonnegative integer"):
            require_int(value, "k0", ValidationError)

    def test_raises_the_given_class(self):
        with pytest.raises(DomainError, match="index must be a positive integer, got 0"):
            require_int(0, "index", DomainError, low=1)
        with pytest.raises(UsageError, match="n must be an integer >= 2, got 1"):
            require_int(1, "n", UsageError, low=2)

    def test_upper_bound(self):
        assert require_int(3, "position", DomainError, low=1, high=3) == 3
        with pytest.raises(DomainError, match=r"position must be an integer in 1\.\.3, got 4"):
            require_int(4, "position", DomainError, low=1, high=3)
