"""Fixtures shared by the test modules."""

import pytest

from pbwdeg import weylmod


@pytest.fixture
def fresh_modules(monkeypatch):
    """Empty memos of built modules and lattices for one test, so that the
    test may change what it builds without reaching any other test.
    Calling the fixture's value empties them again, for a second build.
    It empties them in place: a memo swapped out would stay referenced by
    monkeypatch until the test ends, with every module built into it."""
    memos = {"_MODP_CACHE": {}, "_LATTICE_CACHE": {}}
    for name, memo in memos.items():
        monkeypatch.setattr(weylmod, name, memo)

    def renew():
        for memo in memos.values():
            memo.clear()

    return renew
