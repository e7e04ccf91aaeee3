"""Source hygiene that a linter would check: no module imports a name it
never uses, no function defaults its format, every name the package
exports resolves, every public definition has a user, no function
name is defined in two modules, and the oracle imports no converter
function. Launch hygiene:
importing the command line loads nothing that only --check needs."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import radival

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
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
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


# the oracle's own copies of converter helpers, kept so that it shares no
# code with what it checks
ORACLE_COPIES = {"_shifted_ge"}


def test_one_definition_per_function_name():
    """No top-level function name is defined in two modules, so a second
    copy of a kernel helper cannot creep in; only the oracle's deliberate
    copies are exempt."""
    homes = {}
    for path in pathlib.Path(radival.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                homes.setdefault(node.name, []).append(path.name)
    shared = {name: sorted(where) for name, where in homes.items() if len(where) > 1}
    assert shared == {name: ["floatkit.py", "oracle.py"] for name in ORACLE_COPIES}


# what the oracle may take from the package: the format descriptions and
# the value types, never a function that computes a result it checks
ORACLE_IMPORTS = {
    "floatkit": {
        "FloatFormat",
        "FloatValue",
        "FloatInterval",
        "KIND_ZERO",
        "KIND_SUBNORMAL",
        "KIND_NORMAL",
        "KIND_INFINITE",
        "ZERO",
        "infinity",
    },
    "parse": {"DecimalScientific", "Rational"},
}


def test_oracle_imports_no_converter_function():
    tree = ast.parse((pathlib.Path(radival.__file__).parent / "oracle.py").read_text())
    foreign = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            foreign += [alias.name for alias in node.names if alias.name.startswith("radival")]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "radival":
                    continue
                module = module.partition(".")[2]
            allowed = ORACLE_IMPORTS.get(module, set())
            foreign += [f"{module}.{a.name}" for a in node.names if a.name not in allowed]
    assert foreign == []


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
