"""Acceptance battery: one test per contract criterion, exact equalities.

Each case prints its scorecard line (visible with pytest -s); the same
checks back the CLI `verify` subcommand.
"""

import pytest

from sclflow.acceptance import ALL_CRITERIA


@pytest.mark.parametrize("criterion", ALL_CRITERIA, ids=lambda c: c.__name__)
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    # criterion 13 is informational by contract: never a pass or a failure
    assert result.passed is (None if result.ident == 13 else True), result.details
