"""Exact-arithmetic toolkit for perfect self-isometries of the prime-order cyclic block.

The package loads its modules on first use (PEP 562): ``import perfiso``
loads none of the four layers, ``perfiso.isometry`` loads that module, and
the first public name read that is not defined here, ``__all__`` and
``dir()`` included, loads all four.  So a CLI call loads only the layers its
command runs.  The prime check, Record, the base of the layers' records, the
mode names and the two errors the CLI turns into exit codes, InternalError
and NotPerfect, live here, in the one module every call loads and the one
that exports them (_ROOT_NAMES): enumerate and verify, which read their
answer off pigroup's search, load no other layer, cli's parsers read the
modes, and cli catches both errors by name, without loading the layers
that use them.
"""

from operator import index as _as_int, itemgetter as _itemgetter

__version__ = "0.1.0"

_LAYERS = ("cyclotomic", "characters", "isometry", "pigroup")
# the public names defined here; _export adds the layers' __all__ to them
_ROOT_NAMES = (
    "is_prime", "require_prime",
    "EXHAUSTIVE", "POSITIVE_THEN_NEGATE", "MODES",
    "InternalError", "NotPerfect",
)


def is_prime(n: int) -> bool:
    """Trial-division primality test; every p used here is tiny."""
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return n > 1


def require_prime(p: int) -> int:
    p = _as_int(p)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    return p


class Record(tuple):
    """A tuple with named fields: the base of the package's value types.

    A record declares ``__slots__ = ()`` and a ``__new__`` whose
    parameters after ``cls`` are its fields, in order, all positional.
    That signature is the one list of fields: this base reads it into
    ``_fields``, gives each field a property, and supplies the repr and
    the arguments copy and pickle rebuild a record from.  Equality and
    the hash are the tuple's, so a record equals, and hashes like, the
    plain tuple of its fields.  A record neither joins nor repeats like a
    tuple: ``+`` and ``*`` raise TypeError, with the record on either
    side, unless a record defines them.  It is neither typing.NamedTuple,
    whose import every CLI child would pay for, nor
    collections.namedtuple, which compiles each class from source when
    its module is imported.  It lives here, in the package root, because
    every call loads this module already and the records of characters,
    isometry and pigroup all derive from it: a layer that defines records
    loads no other layer for their base.  It is not exported.
    """

    __slots__ = ()
    __add__ = __radd__ = __mul__ = __rmul__ = None

    def __init_subclass__(cls) -> None:
        code = cls.__new__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        for i, name in enumerate(cls._fields):
            setattr(cls, name, property(_itemgetter(i)))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"


# the values of pigroup.iter_perfect's mode, and so of --mode
EXHAUSTIVE = "exhaustive"
POSITIVE_THEN_NEGATE = "positive_then_negate"
MODES = (EXHAUSTIVE, POSITIVE_THEN_NEGATE)


class InternalError(RuntimeError):
    """An internal consistency check failed: a defect, never a property of the input."""


class NotPerfect(Exception):
    """The isometry is not of the affine perfect form."""


def _export() -> None:
    """Bind here the public names of the four layers, and __all__ to them and _ROOT_NAMES.

    Each public name is declared once: in _ROOT_NAMES or in its layer's __all__.
    """
    from importlib import import_module

    names = list(_ROOT_NAMES)
    for layer in _LAYERS:
        module = import_module(f"{__name__}.{layer}")
        globals().update((name, getattr(module, name)) for name in module.__all__)
        names += module.__all__
    globals()["__all__"] = names


def __getattr__(name: str) -> object:
    if name in _LAYERS or name == "cli":
        # not `from . import`, which would call this __getattr__ again
        from importlib import import_module

        return import_module(f"{__name__}.{name}")
    # a private name other than __all__ is never exported: probes such as
    # hasattr(perfiso, "__wrapped__") load nothing
    if "__all__" not in globals() and (name == "__all__" or name[:1] != "_"):
        _export()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    if "__all__" not in globals():
        _export()
    return sorted(globals())
