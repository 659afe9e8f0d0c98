"""Fixtures shared by the test modules."""

import pytest

from pbwdeg import weylmod


@pytest.fixture
def fresh_modules(monkeypatch):
    """Empty memos of built modules and lattices for one test, so that the
    test may change what it builds without reaching any other test.
    Calling the fixture's value empties them again, for a second build."""
    def renew():
        monkeypatch.setattr(weylmod, "_MODP_CACHE", {})
        monkeypatch.setattr(weylmod, "_LATTICE_CACHE", {})

    renew()
    return renew
