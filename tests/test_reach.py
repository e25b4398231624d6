"""Every function defined in `src/ttspec/*.py` runs under some command.

`test_every_function_is_reached` starts this file as a script, which runs
`cli.main` in its own fresh process under `sys.setprofile` over
the commands of `reach_argv`: the JSON and text golden corpora, a plain `verify`, and one
`kmw reduce` at q = 4099, above the log-table bound, where no golden goes,
and one `witt classify` at q = 27, a field that no other command gives a
log table, so that its inverses take the extended Euclidean algorithm.
A fresh process, because in the test's own one the modules are already
imported and the lru caches already full, so code that an import or a
cache miss runs would not run again.  The script records the code objects
that start to run, keyed by file, `co_firstlineno` and name, and compares
them with every `def` in the package, nested and decorated ones included,
found by `ast`.  For a decorated function `co_firstlineno` is the line of
its first decorator, so the key takes that line too.

A function that runs under none of these commands fails the test unless
`ALLOWLIST` names it with a reason, and an allowlisted function that does
run fails it as well, so the list only shrinks.  The allowlist holds the
layers that the lib-warm benchmark calls directly, the guards of `Value`,
and `__repr__` methods whose text appears only in error messages and
debugging output.  A new function must be reached by a command or a
`verify` suite, or be deleted.

`test_errors_are_typed` parses the same sources and fails on a `raise` of
a builtin exception class that `BUILTIN_RAISES` does not name with a
reason, so every other error the package raises is a `TtspecError`.
`test_every_refusal_is_invalid_argument_or_bound_exceeded` holds
`errors.py` to its three classes and each such `raise` to the two
subclasses, apart from the base-class raise of a `verify` check that
cannot finish.

`PYTHONPATH=src python tests/test_reach.py` prints the functions that no
command reaches, as a JSON list.
"""

import ast
import builtins
import contextlib
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
import typing
from pathlib import Path

import ttspec

PACKAGE = Path(ttspec.__file__).parent


def reach_argv() -> list[list[str]]:
    # imported here, under the profiler, since test_golden imports ttspec.cli
    from test_golden import COMMANDS, TEXT_COMMANDS

    return [
        *([*argv, "--json"] for argv in COMMANDS.values()),
        *TEXT_COMMANDS.values(),
        ["verify"],
        # Pohlig-Hellman discrete logs, above LOG_TABLE_BOUND
        ["kmw", "reduce", "--q", "4099", "--word", "[2]"],
        # inverses by extended Euclid: no command above gives F_27 a log table
        ["witt", "classify", "--q", "27", "--form", "1,1,1"],
    ]


_LIB_WARM = "a lib-warm layer: perfbench/libwarm.py calls it directly"
_REPR = "its text appears only in error messages and debugging output, which no command prints"

ALLOWLIST = {
    "tt_geometry.py:ideal_closure": _LIB_WARM,
    "tt_geometry.py:_window": _LIB_WARM,
    "tt_geometry.py:FiniteSpectralSpace.from_edges": _LIB_WARM,
    "_value.py:Value.__setattr__": "a Value guard: it refuses assignment, which no command tries",
    "_value.py:Value.__delattr__": "a Value guard: it refuses deletion, which no command tries",
    "_value.py:Value.__reduce__": "a Value guard: it rebuilds a record for pickle and copy, which no command uses",
    "_value.py:Value.__hash__": "a Value guard: the records that commands hash define their own __hash__",
    "_value.py:Value.__repr__": "a Value guard: the records that commands print define their own __repr__",
    "finite_field.py:PrimePower.__repr__": _REPR,
    "finite_field.py:FieldElement.__repr__": _REPR,
    "graded_spectrum.py:HomogeneousPrime.__repr__": _REPR,
    "tt_geometry.py:TateObject.__repr__": _REPR,
    "chow_motives.py:Motive.__repr__": _REPR,
}


def defined_functions() -> dict[tuple[str, int, str], str]:
    """(file name, first line, name) -> "file:qualified name" for every def
    in the package; the first line is that of the first decorator, if any."""
    found = {}

    def visit(node, prefix, filename):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[filename, first, child.name] = f"{filename}:{name}"
                visit(child, name + ".<locals>.", filename)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", filename)
            else:
                visit(child, prefix, filename)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), "", path.name)
    return found


def reached_functions() -> set[tuple[str, int, str]]:
    """(file name, first line, name) of every package function that starts
    to run in this process while `ttspec.cli` is imported and runs the
    commands of `reach_argv`."""
    codes = {}  # id -> code object: cheaper than hashing each code object

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            codes[id(code)] = code

    previous = sys.getprofile()
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(profile)
        try:
            from ttspec import cli

            argvs = reach_argv()
            exits = [cli.main(argv) for argv in argvs]
        finally:
            sys.setprofile(previous)
    assert [argv for argv, code in zip(argvs, exits) if code] == []
    package = str(PACKAGE)
    return {
        (Path(code.co_filename).name, code.co_firstlineno, code.co_name)
        for code in codes.values()
        if str(Path(code.co_filename).parent) == package
    }


def unreached() -> list[str]:
    """The functions that `reached_functions` misses, as "file:qualified
    name"; meaningful only in a fresh process."""
    reached = reached_functions()
    return sorted(name for key, name in defined_functions().items() if key not in reached)


def test_every_function_is_reached():
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, __file__], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    missing = json.loads(run.stdout)
    assert [name for name in missing if name not in ALLOWLIST] == []
    assert [name for name in ALLOWLIST if name not in missing] == []


# the raises of a builtin exception class that stay, by "file:function"
BUILTIN_RAISES = {
    ("_value.py:Value.__setattr__", "AttributeError"): "the attribute protocol: assignment to a "
    "read-only attribute raises AttributeError, as it does on a frozen dataclass",
    ("_value.py:Value.__delattr__", "AttributeError"): "the attribute protocol, as for assignment",
}


def named_raises() -> set[tuple[str, str]]:
    """("file:function", exception name) of each `raise` in the package
    that names its exception class."""
    found = set()

    def visit(node, where, filename):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}" if where else child.name, filename)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name):
                    found.add((f"{filename}:{where}", exc.id))
            visit(child, where, filename)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), "", path.name)
    return found


def _is_builtin_exception(name: str) -> bool:
    cls = getattr(builtins, name, None)
    return isinstance(cls, type) and issubclass(cls, BaseException)


def test_errors_are_typed():
    """Every error the package raises is a `TtspecError`, apart from the
    named raises of `BUILTIN_RAISES`; a bad argument raises
    `InvalidArgument`, which is also a `ValueError`."""
    found = {(where, name) for where, name in named_raises() if _is_builtin_exception(name)}
    assert sorted(found) == sorted(BUILTIN_RAISES)


def test_every_refusal_is_invalid_argument_or_bound_exceeded():
    """`errors.py` defines three classes, and every `raise` of a package
    error names `InvalidArgument` or `BoundExceeded`; only
    `verify.additive_order`, a check that cannot finish, raises the base
    class `TtspecError`."""
    from ttspec.errors import BoundExceeded, InvalidArgument, TtspecError

    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = [node.name for node in tree.body if isinstance(node, ast.ClassDef)]
    assert sorted(classes) == ["BoundExceeded", "InvalidArgument", "TtspecError"]
    assert issubclass(InvalidArgument, TtspecError) and issubclass(InvalidArgument, ValueError)
    assert issubclass(BoundExceeded, TtspecError)
    others = {(where, name) for where, name in named_raises()
              if name not in ("InvalidArgument", "BoundExceeded") and not _is_builtin_exception(name)}
    assert sorted(others) == [("verify.py:additive_order", "TtspecError")]


def test_every_annotation_resolves():
    """`typing.get_type_hints` resolves the annotations of every function
    and method of the package: under `from __future__ import annotations`
    they are strings, so a name that only an annotation mentions must
    still be defined in its module.  Nested functions are left out, since
    they cannot be looked up by name."""
    for name in defined_functions().values():
        filename, qualname = name.split(":")
        if "<locals>" in qualname:
            continue
        obj = importlib.import_module(f"ttspec.{Path(filename).stem}")
        for part in qualname.split("."):
            obj = vars(obj)[part]
        obj = getattr(obj, "fget", None) or getattr(obj, "__func__", None) or obj
        typing.get_type_hints(inspect.unwrap(obj))


if __name__ == "__main__":
    print(json.dumps(unreached(), indent=0))
