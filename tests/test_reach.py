"""Every function defined in `src/ttspec/*.py` runs under some command.

`test_every_function_is_reached` starts this file as a script, which runs
`cli.main` in its own fresh process under `sys.setprofile` over
the commands of `reach_argv`: the JSON and text golden corpora, a plain `verify`, and one
`kmw reduce` at q = 4099, above the log-table bound, where no golden goes,
and one `witt classify` at q = 27, a field that no other command gives a
log table, so that its inverses take the power ladder a^(q-2).
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

Each command records the code objects it starts in a dict of its own.
`test_verify_only_functions_name_what_they_guard` reads, from the same
fresh process, the functions that only `verify` commands reach.  Each one
outside `verify.py` and `cli.cmd_verify` needs a `VERIFY_ONLY` entry that
names the printed field or north-star identity its check guards, or says
that lib-warm calls it; an entry that another command reaches fails the
test, so this list only shrinks too.  A check of code that no command
runs cannot change what a user sees.

`test_errors_are_typed` parses the same sources and fails on a `raise` of
a builtin exception class that `BUILTIN_RAISES` does not name with a
reason, so every other error the package raises is a `TtspecError`.
`test_every_refusal_is_invalid_argument_or_bound_exceeded` holds
`errors.py` to its three classes and each such `raise` to the two
subclasses, apart from the base-class raise of a `verify` check that
cannot finish.

`PYTHONPATH=src python tests/test_reach.py` prints the functions that no
command reaches, as a JSON list, and with `--without-verify` those that
only `verify` commands reach.
"""

import ast
import builtins
import contextlib
import functools
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
        # baby-step giant-step discrete logs, above LOG_TABLE_BOUND
        ["kmw", "reduce", "--q", "4099", "--word", "[2]"],
        # inverses by the power ladder: no command above gives F_27 a log table
        ["witt", "classify", "--q", "27", "--form", "1,1,1"],
    ]


# a lib-warm layer whose command keeps a closed form says why, with the cost
# of routing the command through it (2-CPU x86-64 VM, Python 3.11)
_LIB_WARM = "a lib-warm layer: perfbench/libwarm.py calls it directly"
_REPR = "its text appears only in error messages and debugging output, which no command prints"

ALLOWLIST = {
    "tt_geometry.py:ideal_closure": _LIB_WARM,
    "tt_geometry.py:_window": _LIB_WARM,
    "tt_geometry.py:FiniteSpectralSpace.from_edges": _LIB_WARM + "; `spc sh-top` writes its relation down, since "
    "closing the covers with it took `--primes 200000 --height 1` from 0.21 s to 0.29 s cold",
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

_SES = "the exact sequence 0 -> I^(n+1) -> K^MW_n -> K^M_n -> 0 that `verify --suite ses` checks"
_SPECH = "the points and specializations `spech` prints: primality certificates and inclusions"
_TATE = "the `primes` of `spc tate`: a (x) a^dual = 1 and a (x) b != 0 in the window"

# the functions that only `verify` commands reach, outside verify.py, and
# what their checks guard; like ALLOWLIST, it only shrinks
VERIFY_ONLY = {
    "chow_motives.py:Correspondence.__init__": _LIB_WARM,
    "chow_motives.py:Motive.__init__": _LIB_WARM,
    "chow_motives.py:_column_lattice_basis": _LIB_WARM,
    "chow_motives.py:compose": _LIB_WARM,
    "chow_motives.py:hom_group": _LIB_WARM + "; `motive hom` prints the monomials of the ambient codimension, "
    "since routing it through `hom_group` took P1^16 (16 factors) from 0.05 s and 14 MB to 0.53 s and 101 MB cold",
    "chow_motives.py:identity_correspondence": _LIB_WARM,
    "chow_motives.py:motive_decompose": _LIB_WARM + "; `motive decompose` reads the twists off the monomial "
    "counts, since in-process it takes 1.2 s and 62 MB on P1^16, where `_kunneth_twists` takes 1.3 ms",
    "finite_field.py:FieldElement.__hash__": "the W(F_q) dichotomy and the exact sequence: "
    "the zero counts and `ses` key sets by field element",
    "finite_field.py:PrimePower.__hash__": "the W(F_q) dichotomy and the exact sequence, "
    "through FieldElement.__hash__",
    "graded_spectrum.py:HomogeneousPrime.contains": _SPECH,
    "graded_spectrum.py:HomogeneousPrime.includes": _SPECH,
    "graded_spectrum.py:HomogeneousPrime.integer_generators": _SPECH,
    "graded_spectrum.py:ReducedElement.__init__": _SPECH,
    "graded_spectrum.py:ReducedElement.__mul__": _SPECH,
    "graded_spectrum.py:ReducedElement.__repr__": _SPECH,
    "graded_spectrum.py:ReducedElement.is_zero": _SPECH,
    "milnor_witt.py:MilnorKElement.__init__": _SES,
    "milnor_witt.py:MilnorKElement.is_zero": _SES,
    "milnor_witt.py:SymbolWord.__init__": _LIB_WARM,
    "milnor_witt.py:from_fundamental_ideal": _SES,
    "milnor_witt.py:kmw_zero": _SES,
    "milnor_witt.py:omega_symbol": _LIB_WARM,
    "milnor_witt.py:reduce_word": _LIB_WARM + "; it folds each monomial with `eta`, `symbol`, `kmw_mul` "
    "and `kmw_add`, the operations of the `kmw reduce` parser",
    "milnor_witt.py:to_milnor": _SES,
    "milnor_witt.py:word": _LIB_WARM,
    "quadratic_forms.py:witt_class": _LIB_WARM,
    "tt_geometry.py:TateObject.dual": _TATE,
    "tt_geometry.py:TateObject.is_zero": _TATE,
    "tt_geometry.py:TateObject.tensor": _TATE,
    "tt_geometry.py:TateUniverse.lines": _TATE,
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


def reached_functions() -> tuple[set, set]:
    """(file name, first line, name) of every package function that starts
    to run in this process while `ttspec.cli` is imported and runs the
    commands of `reach_argv`; and of those that the import or a command
    other than `verify` starts.  Each command records into its own dict.
    The `verify` commands run last, so that no cache they fill keeps a
    function from starting under another command."""
    codes = {}  # id -> code object: cheaper than hashing each code object
    runs = [(None, codes)]  # (argv, codes); None is the import

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

            argvs = sorted(reach_argv(), key=lambda argv: argv[0] == "verify")
            exits = []
            for argv in argvs:
                codes = {}
                runs.append((argv, codes))
                exits.append(cli.main(argv))
        finally:
            sys.setprofile(previous)
    assert [argv for argv, code in zip(argvs, exits) if code] == []
    package = str(PACKAGE)

    def keys(runs):
        return {
            (Path(code.co_filename).name, code.co_firstlineno, code.co_name)
            for _, codes in runs for code in codes.values()
            if str(Path(code.co_filename).parent) == package
        }

    return keys(runs), keys(run for run in runs if run[0] is None or run[0][0] != "verify")


def reach() -> dict[str, list[str]]:
    """"unreached": the functions that no command reaches, and
    "verify_only": those that only `verify` commands reach, each as
    "file:qualified name"; meaningful only in a fresh process."""
    reached, without_verify = reached_functions()
    names = defined_functions().items()
    return {
        "unreached": sorted(name for key, name in names if key not in reached),
        "verify_only": sorted(name for key, name in names if key in reached and key not in without_verify),
    }


@functools.cache
def fresh_reach() -> dict[str, list[str]]:
    """`reach()` from one fresh process, shared by the tests that read it."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), str(Path(__file__).parent),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", "import json, test_reach; print(json.dumps(test_reach.reach()))"],
                         env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_every_function_is_reached():
    missing = fresh_reach()["unreached"]
    assert [name for name in missing if name not in ALLOWLIST] == []
    assert [name for name in ALLOWLIST if name not in missing] == []


def test_verify_only_functions_name_what_they_guard():
    """Every function that only `verify` commands reach, outside `verify.py`
    and `cli.cmd_verify`, is in `VERIFY_ONLY`, and every entry is such a
    function.  (The functions of `ALLOWLIST` run under no command at all.)"""
    only = [name for name in fresh_reach()["verify_only"]
            if not name.startswith("verify.py:") and name != "cli.py:cmd_verify"]
    assert [name for name in only if name not in VERIFY_ONLY] == []
    assert [name for name in VERIFY_ONLY if name not in only] == []


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
    print(json.dumps(reach()["verify_only" if sys.argv[1:] == ["--without-verify"] else "unreached"], indent=0))
