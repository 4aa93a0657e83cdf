"""The public names of the package, and the functions the benchmark tracer
(perfbench/tracing.py) looks up by name, all resolve; no private helper
or module-level import is left unused, the CLI reaches the library by
public names only, importing the package loads none of the stdlib
modules it was built to avoid, and a well-formed command runs without
argparse."""

import ast
import os
import subprocess
import sys
from importlib import import_module, util
from pathlib import Path

import pytest

import sternbrocot
from sternbrocot import cli

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
PACKAGE = Path(sternbrocot.__file__).resolve().parent


def test_every_exported_name_resolves():
    assert [name for name in sternbrocot.__all__ if not hasattr(sternbrocot, name)] == []


def test_every_traced_function_exists():
    spec = util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{layer}.{name}" for layer, names in tracing.LAYERS.items() for name in names
               if not callable(getattr(import_module(f"sternbrocot.{layer}"), name, None))]
    assert tracing.LAYERS and missing == []


def test_every_private_module_name_is_used():
    """A module-level private function, class or constant of the package
    is read somewhere in the package, so a merge leaves no orphan behind."""
    defined, used = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined.update(n for n in names
                           if n.startswith("_") and not (n.startswith("__") and n.endswith("__")))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert len(defined) > 20
    assert sorted(defined - used) == []


def test_every_module_level_import_is_read():
    """A name a package module imports at module level is read in that
    module, so removing its last reader removes the import too. The
    package's `__init__` reads its imports through `__all__`."""
    imported, unread = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = [(alias.asname or alias.name).split(".")[0] for node in tree.body
                 if isinstance(node, ast.Import)
                 or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                 for alias in node.names]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        if path.name == "__init__.py":
            read.update(sternbrocot.__all__)
        imported += len(names)
        unread += [f"{path.stem}.{name}" for name in names if name not in read]
    assert imported > 100
    assert unread == []


def test_the_cli_imports_only_public_names():
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and (node.level or node.module.split(".")[0] == "sternbrocot")
                for alias in node.names]
    assert "g_inductive" in imported
    assert [name for name in imported if name.startswith("_")] == []


#: Stdlib modules that importing the package must not load: the records
#: are built on `exact._Record`, not dataclasses, `cli.main` imports
#: `signal` only when it runs, and `cli.build_parser` imports argparse
#: (which imports gettext) only for help and usage errors.
AVOIDED_AT_IMPORT = ("dataclasses", "inspect", "ast", "signal", "json", "typing", "logging",
                     "subprocess", "tempfile", "locale", "argparse", "gettext")


@pytest.mark.parametrize("module", ["sternbrocot", "sternbrocot.cli"])
def test_import_loads_none_of_the_avoided_modules(module):
    # a fresh interpreter without `site`, whose own start-up imports none of them
    code = (f"import sys\nimport {module}\n"
            f"print(' '.join(sorted(set({AVOIDED_AT_IMPORT!r}) & set(sys.modules))))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    child = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                           text=True, check=True)
    assert child.stdout == "\n"


#: One well-formed command line of each subcommand, with its stdin.
WELL_FORMED = [
    (["eval", "--lambda", "tau2", "--x", "1/2"], ""),
    (["eval-stream", "--lambda", "1/2", "--epsilon", "1e-5"], "1 " * 30),
    (["question-mark", "--x", "2/3"], ""),
    (["stern-brocot", "--n", "4"], ""),
    (["xi", "--n", "3"], ""),
    (["theta", "--k", "5"], ""),
    (["convert-cf", "--x", "3/5"], ""),
    (["verify", "theorem1", "--x", "1/2", "--n-max", "12", "--tol", "0.02"], ""),
    (["plot-data", "--lambda=-2+√5", "--grid=4"], ""),
]
PARSER_MODULES = {"argparse", "gettext", "locale"}


def imported_by_a_run(argv, stdin=""):
    """(child, modules it imported) of `python -S -m sternbrocot.cli ARGV`,
    the modules read from its `-X importtime` lines on stderr."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    child = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "sternbrocot.cli", *argv],
                           input=stdin, env=env, capture_output=True, text=True, timeout=60)
    times = [line for line in child.stderr.splitlines() if line.startswith("import time:")]
    return child, {line.rsplit("|", 1)[1].strip() for line in times}


def test_a_well_formed_command_runs_without_argparse():
    assert sorted(argv[0] for argv, _ in WELL_FORMED) == sorted(
        words[0] for words in cli._COMMANDS if len(words) == 1)
    for argv, stdin in WELL_FORMED:
        child, modules = imported_by_a_run(argv, stdin)
        assert child.returncode == 0 and child.stdout, argv
        assert sorted(PARSER_MODULES & modules) == [], argv
    # a usage error still builds argparse's parser, and gets its usage block
    child, modules = imported_by_a_run(["xi", "--n"])
    assert child.returncode == 2 and child.stdout == ""
    assert "argparse" in modules
    errors = [line for line in child.stderr.splitlines() if not line.startswith("import time:")]
    assert errors[0].startswith("usage: sternbrocot xi ")
    assert errors[-1] == "sternbrocot xi: error: argument --n: expected one argument"
