"""Exact-arithmetic toolkit for perfect self-isometries of the prime-order cyclic block.

The package loads its modules on first use (PEP 562): ``import perfiso``
loads none of the four layers, ``perfiso.isometry`` loads that module, and
the first public name read, ``__all__`` and ``dir()`` included, loads all
four.  So a CLI call loads only the layers its command runs.
"""

__version__ = "0.1.0"

_LAYERS = ("cyclotomic", "characters", "isometry", "pigroup")


def _export() -> None:
    """Bind here the public names of the four layers, and __all__ to them.

    Each public name is declared once, in the __all__ of its module.
    """
    from importlib import import_module

    names = []
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
