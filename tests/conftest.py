"""Fixtures shared by the test modules."""

import inspect

import pytest


@pytest.fixture
def spy(monkeypatch):
    """spy(owner, name) passes every call of owner.name through unchanged and
    returns the list of each call's positional arguments, self or cls left out.

    owner is a module or a class.  A classmethod or staticmethod is wrapped
    as one again; __new__, a staticmethod that takes cls, loses cls too.
    The stand-in takes positional arguments only, so a call with a keyword
    fails rather than go unrecorded.  monkeypatch restores the attribute
    when the test ends.
    """

    def install(owner, name):
        raw = inspect.getattr_static(owner, name)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        real = raw.__func__ if kind else raw
        skip = 1 if inspect.isclass(owner) and (kind is not staticmethod or name == "__new__") else 0
        calls = []

        def wrapper(*args):
            calls.append(args[skip:])
            return real(*args)

        monkeypatch.setattr(owner, name, kind(wrapper) if kind else wrapper)
        return calls

    return install
