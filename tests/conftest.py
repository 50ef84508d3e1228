import sys

import pytest

from affine_energy import PrimeField, RATIONALS


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per acceptance criterion, printed after the run."""
    try:
        import test_acceptance
    except ImportError:
        return
    if not test_acceptance.RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, line in sorted(test_acceptance.RESULTS):
        terminalreporter.write_line(f"criterion {num:2d}: {line}")


@pytest.fixture(params=["Q", "F101", "F1009"])
def any_field(request):
    return {"Q": RATIONALS, "F101": PrimeField(101), "F1009": PrimeField(1009)}[request.param]


@pytest.fixture
def F5():
    return PrimeField(5)


@pytest.fixture
def Q():
    return RATIONALS


def _rebind(monkeypatch, fn, replacement):
    """Patch every binding of fn in the package's modules to replacement."""
    for name, module in list(sys.modules.items()):
        if name == "affine_energy" or name.startswith("affine_energy."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.fixture
def refuse(monkeypatch):
    """refuse(fn, message): every binding of fn in the package's modules
    raises AssertionError(message) for the rest of the test."""

    def patch(fn, message):
        def raise_(*args, **kwargs):
            raise AssertionError(message)

        _rebind(monkeypatch, fn, raise_)

    return patch


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn): every binding of fn in the package's modules appends
    to the returned list on each call, then calls fn, for the rest of the
    test."""

    def patch(fn):
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return fn(*args, **kwargs)

        _rebind(monkeypatch, fn, counted)
        return calls

    return patch
