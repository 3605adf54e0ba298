"""Unit tests for the error hierarchy."""

from repro.errors import ConfigurationError, DataError, ReproError


class TestChecks:
    def test_errors_share_base(self):
        assert issubclass(ConfigurationError, ReproError)
        assert issubclass(DataError, ReproError)
        # Library errors remain catchable as stdlib categories too.
        assert issubclass(ConfigurationError, ValueError)

