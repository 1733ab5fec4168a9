"""In-process runs of perfiso with spans recorded at its module boundaries.

Nothing in ``src/`` changes: ``Tracer.install`` replaces, at runtime, the
public functions of ``cyclotomic``, ``characters``, ``isometry`` and
``pigroup`` with recording wrappers, in the namespaces of the *other*
perfiso modules only, so a span marks a call from one layer into another.
Public methods of their classes get the same wrappers. ``cli.main`` is the
root span of each operation.

``CycInt`` arithmetic runs millions of times at p = 53, too often to keep a
span per call. Those methods are folded into the enclosing span instead: it
carries the count and the total time of the arithmetic calls made inside it.

Spans stay in memory as ``[name, module, start_ns, end_ns, parent, op_id,
leaf_ns, leaf_calls]``; the caller writes them out once, after the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import sys
import time
from pathlib import Path

LAYERS = ("cyclotomic", "characters", "isometry", "pigroup")
MODULES = (*LAYERS, "cli")
LEAF_METHODS = (
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__eq__", "__bool__", "divide_exact_by_p", "is_multiple_of_p",
    "from_int", "zero", "one",
)
NAME, MODULE, START, END, PARENT, OP, LEAF_NS, LEAF_CALLS = range(8)

_clock = time.perf_counter_ns


def load(src: Path) -> dict:
    """Import perfiso from ``src`` and return its modules by short name."""
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"perfiso.{name}") for name in MODULES}
    where = Path(mods["cli"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise RuntimeError(f"perfiso was imported from {where}, not from {src}")
    return mods


def clear_caches(mods: dict) -> None:
    """Empty every lru_cache, as a fresh process would start."""
    for mod in mods.values():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def call_main(mods: dict, argv: list[str]) -> tuple[int, str]:
    """``perfiso.cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = mods["cli"].main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id: int | None = None
        self.leaf_depth = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, module: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, module, _clock(), 0, parent, self.op_id, 0, 0])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = _clock()
        self.stack.pop()

    def span(self, name: str, module: str, fn):
        tracer = self
        mute = module == "cyclotomic"  # arithmetic inside cyclotomic is already cyclotomic time

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                idx = tracer._open(name, module)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name, module)
            tracer.leaf_depth += mute
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.leaf_depth -= mute
                tracer._close(idx)
        return wrapper

    def leaf(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.leaf_depth or not tracer.stack:
                return fn(*args, **kwargs)
            tracer.leaf_depth += 1
            start = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec = tracer.spans[tracer.stack[-1]]
                rec[LEAF_NS] += _clock() - start
                rec[LEAF_CALLS] += 1
                tracer.leaf_depth -= 1
        return wrapper

    def run(self, mods: dict, op_id: int, argv: list[str]) -> tuple[int, str]:
        self.op_id = op_id
        idx = self._open("main", "cli")
        try:
            return call_main(mods, argv)
        finally:
            self._close(idx)
            self.op_id = None

    # -- installing wrappers -----------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_member(self, cls, attr: str, raw, wrap) -> None:
        if isinstance(raw, (classmethod, staticmethod)):
            self._set(cls, attr, type(raw)(wrap(raw.__func__)))
        elif isinstance(raw, property):
            self._set(cls, attr, property(wrap(raw.fget)))
        elif inspect.isfunction(raw):
            self._set(cls, attr, wrap(raw))

    def install(self, mods: dict) -> None:
        cyc = mods["cyclotomic"]
        for attr in LEAF_METHODS:
            self._wrap_member(cyc.CycInt, attr, cyc.CycInt.__dict__[attr], self.leaf)
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = mods[layer]
            for public in mod.__all__:
                obj = getattr(mod, public)
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self.span(public, layer, obj)
                elif isinstance(obj, type) and obj is not cyc.CycInt and obj.__module__ == mod.__name__:
                    for attr, raw in list(vars(obj).items()):
                        if not attr.startswith("_") and not isinstance(raw, property):
                            self._wrap_member(
                                obj, attr, raw,
                                lambda f, a=attr, o=obj, l=layer: self.span(f"{o.__name__}.{a}", l, f),
                            )
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and getattr(obj, "__module__", None) != mod.__name__:
                    self._set(mod, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self, mods: dict):
        """Wrappers in place for the duration of the block."""
        self.install(mods)
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------

    def self_ns(self) -> list[int]:
        """Each span's duration minus its child spans and folded arithmetic."""
        own = [s[END] - s[START] - s[LEAF_NS] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def self_by_module(self) -> dict[str, int]:
        totals = dict.fromkeys(MODULES, 0)
        for s, own in zip(self.spans, self.self_ns()):
            totals[s[MODULE]] += own
            totals["cyclotomic"] += s[LEAF_NS]
        return totals

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[NAME] == name)
