"""The criterion registry behind `scl verify`: order, time caps, crashes."""

from types import SimpleNamespace

import pytest

from sclflow import acceptance
from sclflow.cli import main


def test_all_criteria_are_one_to_thirteen_in_order_with_distinct_titles():
    assert [fn.ident for fn in acceptance.ALL_CRITERIA] == list(range(1, 14))
    assert [fn.__name__ for fn in acceptance.ALL_CRITERIA] == \
        [f"criterion_{k}" for k in range(1, 14)]
    assert len({fn.title for fn in acceptance.ALL_CRITERIA}) == 13


@pytest.fixture
def register(monkeypatch):
    """_criterion on an empty ALL_CRITERIA, under a clock that reads 0 s
    when a check starts and `elapsed` s when it ends."""
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [])

    def declare(check, elapsed, cap=5.0):
        readings = iter([0.0, elapsed])
        monkeypatch.setattr(acceptance, "time",
                            SimpleNamespace(perf_counter=lambda: next(readings)))
        return acceptance._criterion(7, "stub", cap=cap)(check)
    return declare


@pytest.mark.parametrize("elapsed, passed", [(4.999, True), (5.0, False), (6.0, False)])
def test_a_check_at_or_over_its_cap_fails(register, elapsed, passed):
    fn = register(lambda: (True, "fine"), elapsed)
    assert acceptance.ALL_CRITERIA == [fn]
    result = fn()
    assert (result.ident, result.title, result.passed, result.seconds) == \
        (7, "stub", passed, elapsed)
    assert result.details == ("fine" if passed else "reached the 5 s time cap; fine")


def test_an_informational_check_over_its_cap_fails(register):
    result = register(lambda: (None, "sweep"), 9.0)()
    assert result.passed is False


def test_a_check_that_raises_is_recorded_as_a_failure(register):
    def check():
        raise ZeroDivisionError("boom")
    result = register(check, 1.0)()
    assert (result.passed, result.details, result.seconds) == \
        (False, "raised ZeroDivisionError: boom", 1.0)


@pytest.mark.parametrize("only", ["99", "14", "0"])
def test_verify_refuses_ids_past_the_registry(capsys, only):
    assert main(["verify", "--only", only]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: criterion ids run from 1 to 13, got {only!r}\n"
