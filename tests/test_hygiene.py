"""Source hygiene that a linter would check: no module imports a name it
never uses, no function defaults its format, every name the package
exports resolves, as does every name the acceptance tests import, every
public definition has a user, no function name is defined in two modules,
the oracle imports no converter function, digitstring imports nothing
from the package but the value base, floatkit nothing at module level,
only floatkit and the oracle hold a regular expression, every value is
filled only at the end of its class's checked constructor, no record rule
raises a power outside the memo of powers of five (floatkit._pow5), the
oracle none outside its own memo (oracle._five_power) and its long-text
reader, and each memo changes only by its one idempotent store. Launch
hygiene: importing the command line loads nothing that only --check
needs, a --check run that checks no line never loads the oracle, a filter
launch loads neither argparse, __future__ nor the value modules (value,
digitstring, parse, render, staged) and of the package only floatkit,
importing the package loads none of its modules until a name is asked
for, the package hook names every module of the package and resolves
each by name on first use, no function
of the command line imports a module or caches one in a nonlocal, a
checked line adds the oracle and nothing else, and a launch ends
with its heap frozen (gc.freeze) whether it succeeds or fails while the
in-process cli.run freezes nothing."""

import ast
import gc
import io
import os
import pathlib
import subprocess
import sys

import pytest

import radival
from radival import cli

MODULES = sorted(
    path
    for path in pathlib.Path(radival.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_format_default(path):
    """No function defaults its format: a caller that forgets fmt would get
    binary32 digits for a binary64 value without an error."""
    defaulted = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = [*args.posonlyargs, *args.args]
            with_default = positional[len(positional) - len(args.defaults) :]
            with_default += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            defaulted += [node.name for a in with_default if a.arg == "fmt"]
    assert defaulted == []


def test_exports_resolve():
    missing = [name for name in radival.__all__ if not hasattr(radival, name)]
    assert missing == []


ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_acceptance_names_resolve_from_the_package():
    """Every name the acceptance tests import from a module of the package
    also resolves as radival.<name>, so the package offers all it pins."""
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    missing = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(acceptance)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("radival.")
        for alias in node.names
        if not hasattr(radival, alias.name)
    ]
    assert missing == []


def test_every_public_definition_has_a_user():
    """Each public top-level function and class in the package is used by
    name somewhere in src/ or demos/, or is pinned by the acceptance
    tests. An import alone is not a use, so re-exporting a name from
    __init__.py does not keep it alive."""
    paths = [*pathlib.Path(radival.__file__).parent.glob("*.py"), *ROOT.glob("demos/*.py")]
    trees = {path: ast.parse(path.read_text()) for path in paths}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    pinned = {
        alias.asname or alias.name
        for node in ast.walk(acceptance)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unused = [
        f"{path.name}:{node.name}"
        for path in MODULES
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used | pinned
    ]
    assert unused == []


def test_one_definition_per_function_name():
    """No top-level function name is defined in two modules, so a second
    copy of a kernel helper cannot creep in, not even in the oracle."""
    homes = {}
    for path in pathlib.Path(radival.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                homes.setdefault(node.name, []).append(path.name)
    shared = {name: sorted(where) for name, where in homes.items() if len(where) > 1}
    assert shared == {}


def test_values_are_filled_only_in_checked_constructors():
    """Every use of Value._of, the one fill of an instance, sits in a
    __new__, after that class's checks, and only value.py makes a bare
    instance with object.__new__ or tuple.__new__ or takes a private name
    from value.py: no second way to build a value skips the checks.
    FloatFormat, slotted outside the tuple base, makes its instance with
    super().__new__, and no super().__new__ sits outside a __new__."""
    outside = []
    for path in pathlib.Path(radival.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        checked = {
            id(node)
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef) and function.name == "__new__"
            for node in ast.walk(function)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "value":
                outside += [f"{path.name}:{a.name}" for a in node.names if a.name[0] == "_"]
            if not isinstance(node, ast.Attribute):
                continue
            fill = node.attr == "_of" and id(node) not in checked
            maker = node.attr == "__new__" and ast.unparse(node.value)
            bare = maker in ("object", "tuple") or maker == "super()" and id(node) not in checked
            if fill or bare and path.name != "value.py":
                outside.append(f"{path.name}:{node.lineno}")
    assert outside == []


# what the oracle may take from the package: the format descriptions and
# the value types, never a function that computes a result it checks
ORACLE_IMPORTS = {
    "floatkit": {"FloatFormat", "KIND_ZERO", "KIND_SUBNORMAL", "KIND_NORMAL", "KIND_INFINITE"},
    "value": {"FloatValue", "FloatInterval", "infinity"},
    "parse": {"DecimalScientific", "Rational"},
}


def _package_imports(module: str) -> list[tuple[str, str]]:
    """(module, name) for each name the module imports from the package,
    relative or absolute; an import statement gives its module and ""."""
    tree = ast.parse((pathlib.Path(radival.__file__).parent / module).read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [
                (a.name.partition(".")[2], "") for a in node.names if a.name.startswith("radival")
            ]
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if not node.level:
                if source.split(".")[0] != "radival":
                    continue
                source = source.partition(".")[2]
            found += [(source, a.name) for a in node.names]
    return found


def test_oracle_imports_no_converter_function():
    foreign = [
        f"{module}.{name}"
        for module, name in _package_imports("oracle.py")
        if name not in ORACLE_IMPORTS.get(module, set())
    ]
    assert foreign == []


def test_digitstring_imports_only_the_value_base():
    """The digit-at-a-time reference that tests/stepwise.py replays against
    the staged route shares no code with the converter: digitstring takes
    from the package only the value base."""
    foreign = [
        f"{module}.{name}" for module, name in _package_imports("digitstring.py")
        if module != "value"
    ]
    assert foreign == []


def test_floatkit_imports_from_the_package_only_in_a_function():
    """floatkit, which a filter launch loads alone, takes nothing from the
    package at module level; its one import from the package, value inside
    FloatFormat._build_extremes, runs on the first read of a format's
    value constants."""
    tree = ast.parse((pathlib.Path(radival.__file__).parent / "floatkit.py").read_text())
    [build] = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_build_extremes"
    ]
    inside = [ast.unparse(node) for node in ast.walk(build) if isinstance(node, ast.ImportFrom)]
    assert inside == ["from .value import FloatValue"]
    assert _package_imports("floatkit.py") == [("value", "FloatValue")]


def test_only_floatkit_and_the_oracle_import_re():
    """Every grammar the converter reads text by lives in floatkit, and the
    oracle keeps its own; no other module imports re."""
    importers = [
        path.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(a.name == "re" for a in node.names)
    ]
    assert importers == ["floatkit.py", "oracle.py"]


def test_package_hook_names_every_module():
    """The package hook's module set is the package's modules, so a module
    added or deleted cannot leave the hook stale."""
    assert radival._MODULES == {path.stem for path in MODULES}


def _powers_outside(module: str, homes: set[str]) -> list[int]:
    """The lines of the ** in the module that sit outside the named
    top-level functions, each of which must exist."""
    tree = ast.parse((pathlib.Path(radival.__file__).parent / module).read_text())
    functions = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name in homes
    ]
    assert sorted(node.name for node in functions) == sorted(homes)
    inside = {id(node) for function in functions for node in ast.walk(function)}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign))
        and isinstance(node.op, ast.Pow)
        and id(node) not in inside
    ]


def test_kernels_raise_powers_only_in_the_memo():
    """Every ** in floatkit.py, the module of the record rules, sits in
    _pow5, so no record raises a power of five or ten that the memo
    already holds."""
    assert _powers_outside("floatkit.py", {"_pow5"}) == []


def test_oracle_raises_powers_only_in_its_memo_and_reader():
    """Every ** in oracle.py sits in its own memo of powers of five or in
    _digits_value, which joins pieces of texts past 4300 digits, so no
    checked line raises a power the oracle's memo already holds."""
    assert _powers_outside("oracle.py", {"_five_power", "_digits_value"}) == []


# what a dict or a list offers to change itself in place
MUTATING_METHODS = {
    "append", "extend", "insert", "pop", "popitem", "remove", "clear", "update",
    "setdefault", "sort", "reverse", "__setitem__", "__delitem__", "__iadd__",
}


def _assert_written_only_by_idempotent_store(module: str, function: str, memo: str) -> None:
    """The memo changes in one statement only, the function's
    power = memo[k] = 5**k, which stores the same entry whichever thread
    gets there first. The module binds the memo once, to an empty dict; no
    other store, deletion or rebinding touches it, and no method that
    changes a dict or a list in place is called on it, so no fill can race
    another into a wrong or duplicated entry."""
    tree = ast.parse((pathlib.Path(radival.__file__).parent / module).read_text())
    home = next(
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == function
    )
    item_writes, bindings, methods = [], [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            if isinstance(node.value, ast.Name) and node.value.id == memo:
                item_writes.append(node)
        elif isinstance(node, ast.Name) and node.id == memo:
            if not isinstance(node.ctx, ast.Load):
                bindings.append(node)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == memo and node.attr in MUTATING_METHODS:
                methods.append((node.lineno, node.attr))
    assert methods == []
    [definition] = [
        node for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == memo
    ]
    assert bindings == [definition.target]
    assert ast.unparse(definition.value) == "{}"
    [store] = item_writes
    assert isinstance(store.ctx, ast.Store) and ast.unparse(store) == f"{memo}[k]"
    [statement] = [
        node for node in ast.walk(home)
        if isinstance(node, ast.Assign) and any(target is store for target in node.targets)
    ]
    assert ast.unparse(statement.value) == "5 ** k"


def test_pow5_memo_is_written_only_by_its_idempotent_store():
    """The converter's memo of powers of five, floatkit._POW5, changes only
    by _pow5's idempotent store."""
    _assert_written_only_by_idempotent_store("floatkit.py", "_pow5", "_POW5")


def test_oracle_memo_is_written_only_by_its_idempotent_store():
    """The oracle's own memo of powers of five, oracle._FIVES, changes only
    by _five_power's idempotent store."""
    _assert_written_only_by_idempotent_store("oracle.py", "_five_power", "_FIVES")


def test_cli_imports_nothing_private_from_render():
    tree = ast.parse((pathlib.Path(radival.__file__).parent / "cli.py").read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "render"
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


SRC = pathlib.Path(radival.__file__).resolve().parents[1]

# what a run without --check never needs: the oracle and its imports, and
# the dataclass machinery the value classes no longer use
CHECK_ONLY = ("dataclasses", "decimal", "fractions", "radival.oracle")


def _python(*args, stdin=""):
    # -S keeps the site hooks from loading modules of their own
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-S", *args], input=stdin, capture_output=True, text=True, env=env
    )


def test_cli_import_leaves_check_modules_unloaded():
    code = f"import sys, radival.cli; print([m for m in {CHECK_ONLY!r} if m in sys.modules])"
    result = _python("-c", code)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "[]\n"


def test_cli_import_leaves_typing_unloaded():
    # annotations name collections.abc and io types, so no import on the
    # command line's path needs typing
    result = _python("-c", "import sys, radival.cli; print('typing' in sys.modules)")
    assert (result.returncode, result.stderr, result.stdout) == (0, "", "False\n")


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["parse", "--format", "binary64", "0.1"], ""),
        (["parse", "--format", "binary64"], "0.1\n-2.5e-310\n1e400\n"),
        (["print-interval", "--digits", "17", "bits:3eaaaaaa", "bits:3eaaaaab"], ""),
        (["print-interval", "--digits", "3"], "0.25 0.5\nbits:7f7fffff bits:7f800000\n"),
        (["table"], ""),
    ],
    ids=["parse", "parse-filter", "print-interval", "print-interval-filter", "table"],
)
def test_check_loads_the_oracle_on_demand(argv, stdin):
    """A fresh process runs --check, single-shot and as a filter, with the
    oracle imported only then, and prints what the run without it prints."""
    plain = _python("-m", "radival.cli", *argv, stdin=stdin)
    checked = _python("-m", "radival.cli", *argv, "--check", stdin=stdin)
    assert (plain.returncode, plain.stderr) == (0, "")
    assert (checked.returncode, checked.stderr) == (0, "")
    assert checked.stdout == plain.stdout != ""


# the --check paths of parse and print-interval compare integer ratios
FRACTION_ONLY = ("decimal", "fractions")


@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["parse", "--format", "binary64", "0.1"], ""),
        (["parse", "--format", "binary64"], "0.1\n-2.5e-310\n1e400\n"),
        (["parse-rational"], "1/3\n-2/7\n"),
        (["print-interval", "--digits", "17", "bits:3eaaaaaa", "bits:3eaaaaab"], ""),
        (["print-interval", "--digits", "3"], "0.25 0.5\nbits:7f7fffff bits:7f800000\n"),
    ],
    ids=[
        "parse", "parse-filter", "parse-rational-filter", "print-interval", "print-interval-filter"
    ],
)
def test_check_leaves_fraction_modules_unloaded(argv, stdin):
    """A fresh process runs the command line with --check and, at exit,
    reports which of the oracle and the Fraction modules it loaded."""
    code = (
        "import atexit, runpy, sys\n"
        "names = ('radival.oracle',) + " + repr(FRACTION_ONLY) + "\n"
        "atexit.register(lambda: sys.stderr.write(repr([m for m in names if m in sys.modules])))\n"
        "runpy.run_module('radival.cli', run_name='__main__')\n"
    )
    result = _python("-c", code, *argv, "--check", stdin=stdin)
    assert (result.returncode, result.stderr) == (0, "['radival.oracle']")
    assert result.stdout != ""


@pytest.mark.parametrize(
    "argv",
    [["parse"], ["parse-rational"], ["print"], ["print-interval"]],
    ids=["parse", "parse-rational", "print", "print-interval"],
)
def test_check_with_no_line_leaves_the_oracle_unloaded(argv):
    """A fresh --check filter on empty stdin checks no line, so it never
    imports the oracle: each record binds it on its first checked line."""
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: sys.stderr.write(repr('radival.oracle' in sys.modules)))\n"
        "runpy.run_module('radival.cli', run_name='__main__')\n"
    )
    result = _python("-c", code, *argv, "--check")
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "False")


# the value layer, argparse and __future__, which no filter record needs
VALUE_LAYER = (
    "__future__", "argparse", "radival.value", "radival.digitstring", "radival.parse",
    "radival.render", "radival.staged",
)


@pytest.mark.parametrize("command", ["parse", "parse-rational", "print", "print-interval"])
def test_launch_leaves_the_value_layer_unloaded(command):
    """A fresh filter on empty stdin loads neither argparse, __future__ nor
    a module of value classes or the staged route: the records run on
    floatkit alone."""
    code = (
        "import atexit, runpy, sys\n"
        "names = " + repr(VALUE_LAYER) + "\n"
        "atexit.register(lambda: sys.stderr.write(repr([m for m in names if m in sys.modules])))\n"
        "runpy.run_module('radival.cli', run_name='__main__')\n"
    )
    result = _python("-c", code, command)
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "[]")


@pytest.mark.parametrize("command", ["parse", "parse-rational", "print", "print-interval"])
def test_filter_launch_loads_only_the_record_path(command):
    """A fresh filter on one line loads the package and floatkit, and no
    other module of the package: cli runs as __main__, and the value
    classes, the help and usage texts and the table stay unloaded."""
    line = {"parse-rational": "-2/7", "print": "bits:3f800000", "print-interval": "0.25 0.5"}
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: sys.stderr.write(repr(sorted(\n"
        "    m for m in sys.modules if m.split('.')[0] == 'radival'))))\n"
        "runpy.run_module('radival.cli', run_name='__main__')\n"
    )
    result = _python("-c", code, command, stdin=line.get(command, "0.1") + "\n")
    assert (result.returncode, result.stdout.count("\n")) == (0, 1)
    assert "ERR" not in result.stdout
    assert result.stderr == "['radival', 'radival.floatkit']"


def test_package_import_loads_no_module():
    """import radival loads no module of the package; a star import then
    binds every exported name."""
    code = (
        "import sys, radival\n"
        "print(sorted(m for m in sys.modules if m.startswith('radival.')))\n"
        "names = {}\n"
        "exec('from radival import *', names)\n"
        "print([name for name in radival.__all__ if name not in names])\n"
    )
    result = _python("-c", code)
    assert (result.returncode, result.stderr, result.stdout) == (0, "", "[]\n[]\n")


def test_package_resolves_a_module_on_first_use():
    """radival.oracle loads the oracle and binds it in the package, so the
    hook runs once per module; a name that is neither a module nor an
    export still raises AttributeError, and __all__ gains no module."""
    code = (
        "import sys, radival\n"
        "names = sorted(radival.__all__)\n"
        "print('radival.oracle' in sys.modules)\n"
        "print(radival.oracle is sys.modules['radival.oracle'] is vars(radival)['oracle'])\n"
        "try:\n"
        "    radival.nosuch\n"
        "except AttributeError as err:\n"
        "    print(err)\n"
        "print(sorted(radival.__all__) == names, 'oracle' in names)\n"
    )
    result = _python("-c", code)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "False\nTrue\nmodule 'radival' has no attribute 'nosuch'\nTrue False\n"


def test_cli_functions_hold_no_import_or_nonlocal():
    """cli reaches the modules it loads on demand through the package's
    hook, so none of its functions imports or caches a module itself."""
    tree = ast.parse((pathlib.Path(radival.__file__).parent / "cli.py").read_text())
    found = [
        f"{function.name}:{node.lineno}"
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom, ast.Nonlocal))
    ]
    assert found == []


@pytest.mark.parametrize(
    "argv, line",
    [
        (["parse", "--format", "binary64"], "0.1"),
        (["parse-rational"], "-2/7"),
        (["print"], "bits:3f800000"),
        (["print-interval", "--digits", "3"], "0.25 0.5"),
    ],
    ids=["parse", "parse-rational", "print", "print-interval"],
)
def test_checked_line_adds_only_the_oracle(argv, line):
    """A fresh filter run on one line, with and without --check, prints the
    same record, and --check loads radival.oracle and no other module of
    the package."""
    code = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: sys.stderr.write(repr(sorted(\n"
        "    m for m in sys.modules if m.startswith('radival.')))))\n"
        "runpy.run_module('radival.cli', run_name='__main__')\n"
    )
    plain = _python("-c", code, *argv, stdin=line + "\n")
    checked = _python("-c", code, *argv, "--check", stdin=line + "\n")
    assert (plain.returncode, checked.returncode) == (0, 0)
    assert checked.stdout == plain.stdout != ""
    loaded = set(eval(checked.stderr)) - set(eval(plain.stderr))
    assert loaded == {"radival.oracle"}


@pytest.mark.parametrize(
    "argv, stdin, status",
    [
        (["parse-rational"], "1/3\n-2/7\n", 0),
        (["parse", "--format", "binary64", "--check"], "0.1\n1e400\n", 0),
        (["parse-rational", "1/0"], "", 2),
        (["parse", "--digits", "3"], "", 1),
    ],
    ids=["filter", "check-filter", "domain-error", "argument-error"],
)
def test_launch_heap_is_frozen_at_exit(argv, stdin, status):
    """main() moves the launch heap to the permanent generation, so the
    collections at exit do not walk it: an atexit probe in a fresh process
    sees a nonzero freeze count after a filter, a checked filter, a domain
    error and an argument error."""
    code = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: sys.stderr.write(f'\\nfrozen {gc.get_freeze_count() > 0}'))\n"
        "runpy.run_module('radival.cli', run_name='__main__')\n"
    )
    result = _python("-c", code, *argv, stdin=stdin)
    assert result.returncode == status
    assert result.stderr.endswith("\nfrozen True")


def test_run_freezes_nothing():
    """cli.run, the in-process entry, leaves the collector as it found it."""
    before = gc.get_freeze_count()
    out = io.StringIO()
    assert cli.run(["parse-rational"], io.StringIO("1/3\n"), out, io.StringIO()) == 0
    assert out.getvalue() != ""
    assert gc.get_freeze_count() == before
