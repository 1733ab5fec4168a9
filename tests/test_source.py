"""Checks on the library source itself."""

import ast
import functools
import inspect
from pathlib import Path

import pytest

import perfiso
from perfiso import characters, cli, cyclotomic, isometry, pigroup

SOURCES = sorted(Path(perfiso.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@functools.cache
def _tree(path):
    """The module at path, parsed once however many guards read it."""
    return ast.parse(path.read_text(), filename=str(path))


def _nodes(paths=SOURCES):
    """(file name, top-level name, node) for every node of each file in paths.

    The top-level name is that of the def or class the node is in; for any
    other top-level statement it is the statement's source, or an if
    block's condition alone, as in "TYPE_CHECKING".
    """
    for path in paths:
        for top in _tree(path).body:
            name = getattr(top, "name", None) or ast.unparse(getattr(top, "test", top))
            for node in ast.walk(top):
                yield path.name, name, node


def test_library_has_no_assert():
    # invariants are real checks that raise, so they survive python -O
    found = [f"{name}:{node.lineno}" for name, _, node in _nodes() if isinstance(node, ast.Assert)]
    assert len(SOURCES) >= 7
    assert found == []


def test_trusted_constructor_stays_in_the_ring_module():
    # CycInt._trusted skips validation, so only ring operations may use it
    found = {
        name
        for name, _, node in _nodes(SOURCES + TESTS)
        if isinstance(node, ast.Attribute) and node.attr == "_trusted"
    }
    assert found == {"cyclotomic.py"}


def test_unchecked_constructor_stays_with_the_group_operations():
    # SignedIsometry._unchecked skips validation, so only the group operations
    # and _orbit, whose images are permutations by construction, may use it
    found = {
        (name, top)
        for name, top, node in _nodes(SOURCES + TESTS)
        if isinstance(node, ast.Attribute) and node.attr == "_unchecked"
    }
    assert found == {("isometry.py", "SignedIsometry"), ("pigroup.py", "_orbit")}


def _imports_one_of(node, modules):
    """Whether node imports one of the top-level modules, or a module or name in one."""
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] in modules for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in modules


@pytest.mark.parametrize(
    "modules", (("dataclasses",), ("json",), ("typing", "__future__")), ids=lambda m: m[0]
)
def test_library_imports_none_of(modules):
    # each costs every CLI child an import.  dataclasses imports inspect.
    # json's modules compile regexes at import; cli._dumps writes the same
    # bytes with the C escaper of _json, and json stays the tests' oracle.
    # Annotations that name what is not defined when the def runs are
    # strings, so typing and __future__ are not needed, and the records are
    # tuple subclasses, not typing.NamedTuple
    found = [
        f"{name}:{node.lineno}"
        for name, _, node in _nodes()
        if _imports_one_of(node, modules)
        or (
            "typing" in modules
            and isinstance(node, ast.ClassDef)
            and "NamedTuple" in map(ast.unparse, node.bases)
        )
    ]
    assert found == []


@pytest.mark.parametrize(
    "path", (Path(__file__).with_name("oracles.py"), PERFBENCH / "oracle.py"), ids=lambda path: path.name
)
def test_oracles_import_no_perfiso(path):
    # an oracle that ran library code could share a defect with what it checks
    assert [node.lineno for _, _, node in _nodes([path]) if _imports_one_of(node, ("perfiso",))] == []


def test_records_share_one_protocol():
    # perfiso.Record reads each record's fields off its __new__ and supplies
    # the properties, the repr and the copy and pickle arguments, and tuple
    # supplies equality and the hash, so a record writes none of them and its
    # signature is its one list of fields.  It is defined in the package
    # root, which every call loads, and no layer binds it but those whose
    # records derive from it
    modules = (perfiso, cyclotomic, characters, isometry, pigroup, cli)
    tuples = {
        cls
        for mod in modules
        for cls in vars(mod).values()
        if isinstance(cls, type) and issubclass(cls, tuple) and cls.__module__ == mod.__name__
    }
    records = tuples - {perfiso.Record}
    assert perfiso.Record.__module__ == "perfiso"
    assert [mod.__name__ for mod in modules if "Record" in vars(mod)] == [
        "perfiso",
        "perfiso.characters",
        "perfiso.isometry",
        "perfiso.pigroup",
    ]
    assert {cls.__name__ for cls in records} == {
        "ClassFunction",
        "SignedIsometry",
        "KernelTable",
        "Verdict",
        "AffineCoords",
        "PIGroupReport",
    }
    assert perfiso.Record in tuples and "Record" not in perfiso.__all__
    bodies = {node.name: node for _, _, node in _nodes() if isinstance(node, ast.ClassDef)}
    assert [name for name, node in bodies.items() if "tuple" in map(ast.unparse, node.bases)] == [
        "Record"
    ]
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    for cls in records:
        assert issubclass(cls, perfiso.Record), cls.__name__
        params = list(inspect.signature(cls.__new__).parameters.values())[1:]
        assert all(param.kind in positional for param in params), cls.__name__
        assert cls._fields == tuple(param.name for param in params)
        defined = set()
        for node in bodies[cls.__name__].body:
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        written = {"__eq__", "__hash__", "__repr__", "__getnewargs__", *cls._fields}
        assert defined & written == set(), cls.__name__


def _imports(source, module):
    """The lines of source that import module (as a package module, also as
    ``from . import module``), and those of them that run when source is
    imported: a function body or a TYPE_CHECKING block never runs then."""
    tree = _tree(Path(source))
    not_run = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, (ast.FunctionDef, ast.AsyncFunctionDef))
        or (isinstance(block, ast.If) and ast.unparse(block.test) == "TYPE_CHECKING")
        for node in ast.walk(block)
    }
    names = {module, f"perfiso.{module}"}
    imports = [
        node
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import) and any(a.name in names for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module in names)
        or (
            isinstance(node, ast.ImportFrom)
            and node.module in (None, "perfiso")
            and any(a.name == module for a in node.names)
        )
    ]
    return [node.lineno for node in imports], [
        node.lineno for node in imports if id(node) not in not_run
    ]


@pytest.mark.parametrize(
    "module", ("_json", "argparse", "cyclotomic", "isometry", "pigroup")
)
def test_cli_imports_late(module):
    # _json is imported in _dumps, on the --format json path, argparse in
    # build_parser, which plain calls never reach, and each layer in the
    # functions that call it: at module level, each would be a cost every CLI
    # child pays at startup
    found, at_import = _imports(cli.__file__, module)
    assert found  # the check is live: the module is imported somewhere
    assert at_import == []


def test_pigroup_imports_isometry_late_and_no_cyclotomic():
    # a passing enumerate or verify builds no map, so it loads no layer but
    # pigroup: isometry is imported only in the functions that build a map,
    # and the prime check and Record come from the package root
    found, at_import = _imports(pigroup.__file__, "isometry")
    assert found  # the check is live
    assert at_import == []
    assert _imports(pigroup.__file__, "cyclotomic") == ([], [])


def test_pigroup_builds_maps_only_in_recompose_and_orbit():
    # recompose builds every group element, the generators included, and
    # _orbit the search's hits; no other pigroup code names SignedIsometry
    found = {
        top
        for _, top, node in _nodes([Path(pigroup.__file__)])
        if (isinstance(node, ast.Name) and node.id == "SignedIsometry")
        or (isinstance(node, ast.alias) and node.name == "SignedIsometry")
    }
    assert found == {"recompose", "_orbit", "TYPE_CHECKING"}


def test_package_exports_match_modules():
    # each public name is listed once, where it is defined: in the root's
    # own tuple or in one layer's __all__, and the package exports each list
    modules = (perfiso, cyclotomic, characters, isometry, pigroup)
    lists = [perfiso._ROOT_NAMES, *(mod.__all__ for mod in modules[1:])]
    listed = [name for names in lists for name in names]
    assert sorted(perfiso.__all__) == sorted(listed)
    assert len(listed) == len(set(listed)) == 39
    for mod, names in zip(modules, lists):
        for name in names:
            obj = getattr(mod, name)
            assert getattr(perfiso, name) is obj, name
            if callable(obj):  # a function or a class, defined in the module that lists it
                assert obj.__module__ == mod.__name__, name


def test_cli_writes_the_streams_only_in_end():
    # _end alone writes or flushes stdout and stderr, so the stream rule of
    # cli's docstring holds in one place; main alone hands it output, once
    # the command has returned, so an error exit prints no partial output
    writers, texts = set(), set()
    for _, top, node in _nodes([Path(cli.__file__)]):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "print" or isinstance(func, ast.Attribute) and name in ("write", "flush"):
            writers.add(top)
        if name == "_end" and (node.args[1:] or node.keywords):
            texts.add(top)
    assert (writers, texts) == ({"_end"}, {"main"})


def test_process_exit_only_in_the_entry_function():
    # os._exit skips every finally block and atexit handler: only cli.run,
    # after main or argparse's exit has ended through _end, may call it
    found = {
        (name, top)
        for name, top, node in _nodes()
        if (isinstance(node, ast.Attribute) and node.attr == "_exit")
        or (isinstance(node, ast.alias) and node.name == "_exit")
    }
    assert found == {("cli.py", "run")}


def test_both_entry_points_call_run():
    # python -m perfiso and the perfiso script end the same way
    root = Path(__file__).resolve().parents[1]
    assert 'perfiso = "perfiso.cli:run"' in (root / "pyproject.toml").read_text()
    main = [Path(perfiso.__file__).with_name("__main__.py")]
    calls = {ast.unparse(node.func) for _, _, node in _nodes(main) if isinstance(node, ast.Call)}
    assert calls == {"run"}


def test_benchmark_trace_names_exist():
    # the benchmark's per-layer mode wraps these names; dropping one breaks it
    (leaf,) = [
        node.value
        for node in _tree(PERFBENCH / "spans.py").body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LEAF_METHODS" for t in node.targets)
    ]
    methods = ast.literal_eval(leaf)
    assert methods
    assert [m for m in methods if m not in cyclotomic.CycInt.__dict__] == []
    assert callable(characters.generalized_character)
    assert callable(characters.inner_product)
    params = list(inspect.signature(pigroup.iter_perfect).parameters.values())
    assert params[1].name == "mode"
    assert params[1].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD

    # every name perfbench/layers.py reads through a module alias or CycInt
    # exists, one attribute deeper included, and each of its calls binds
    roots = {
        "cyc": cyclotomic,
        "chars": characters,
        "iso_m": isometry,
        "pig": pigroup,
        "CycInt": cyclotomic.CycInt,
    }

    def path_of(node):
        """The dotted names of an attribute chain on a root, or None."""
        names = []
        while isinstance(node, ast.Attribute):
            names.insert(0, node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in roots:
            return [node.id, *names]
        return None

    read, missing = set(), []
    for _, _, node in _nodes([PERFBENCH / "layers.py"]):
        path = path_of(node) if isinstance(node, ast.Attribute) else None
        if path:
            obj = roots[path[0]]
            for depth, name in enumerate(path[1:], 2):
                if not hasattr(obj, name):
                    missing.append(".".join(path[:depth]))
                    break
                obj = getattr(obj, name)
            read.add(".".join(path))
    assert missing == []
    assert {"iso_m.SignedIsometry.from_literal", "chars.char_table.cache_clear"} <= read
    assert {"iso_m.forward_transform", "chars.indicator", "pig.enumerate_perfect"} <= read

    bound = set()
    for _, _, node in _nodes([PERFBENCH / "layers.py"]):
        path = path_of(node.func) if isinstance(node, ast.Call) else None
        if not path or any(isinstance(a, ast.Starred) for a in node.args):
            continue  # an unpacked call's arity is not in the source
        obj = functools.reduce(getattr, path[1:], roots[path[0]])
        if inspect.isfunction(obj) or inspect.ismethod(obj) or isinstance(obj, type):
            inspect.signature(obj).bind(*node.args, **{kw.arg: kw.value for kw in node.keywords})
            bound.add(".".join(path))
    # the report functions take p alone, positionally
    assert {"pig.enumerate_perfect", "pig.verify_structure", "pig.iter_perfect"} <= bound
