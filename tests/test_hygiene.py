"""Every module of the package, script and test file reads each name it
imports, every CLI subcommand reads each option it accepts, every defaulted
parameter of the package is passed by some caller, importing a module or
script runs nothing, and every function the benchmark's tracer probes exists.

A name that is imported and never read is usually left over from deleted
code.  The package's __init__.py imports names to re-export them and is
exempt.  An option whose value its command never reads is accepted and then
silently ignored.  A defaulted parameter that no call in the package or its
scripts passes is a setting nothing uses.  A call at the top level of a
module, outside an `if __name__ == "__main__":` block, runs whenever the
module is imported.  The tracer skips a probe whose function is gone and
reports its metrics as missing, so a rename would go unnoticed there.
"""

import argparse
import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from innerseries import experiments
from innerseries.cli import build_parser
from innerseries.ingest import gen_bounded_walk

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "innerseries"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ENTRY_FILES = sorted([*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py")])
# scripts, tests and the benchmark have no re-exporting __init__.py: each
# one is scanned
OTHER_FILES = sorted([*(ROOT / "scripts").glob("*.py"), *(ROOT / "tests").glob("*.py")])
BENCH_FILES = sorted((ROOT / "bench").glob("**/*.py"))


def unused_imports(source: str) -> list[str]:
    """'name (line k)' for each imported name the source never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_modules_found():
    assert {"cli.py", "model.py", "ingest.py"} <= {p.name for p in MODULES}
    assert {"run.py", "tracer.py", "test_bench.py"} <= {p.name for p in BENCH_FILES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", OTHER_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import_in_scripts_and_tests(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import_in_bench(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .model import Trajectory, WeightSeries as WS\n"
        "np.zeros(1)\n"
        "WS = Trajectory\n"
    )
    assert unused_imports(source) == ["WS (line 4)", "os (line 2)"]


def subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return dict(action.choices)


def unread_options(sub: argparse.ArgumentParser, source: str) -> list[str]:
    """Each option of sub whose dest its set_defaults(func=...) function
    (looked up by name in source) never reads as args.<dest>."""
    name = sub.get_default("func").__name__
    (func,) = (
        n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.FunctionDef) and n.name == name
    )
    read = {
        n.attr
        for n in ast.walk(func)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "args"
    }
    return sorted(
        "/".join(a.option_strings) or a.dest
        for a in sub._actions
        if not isinstance(a, argparse._HelpAction) and a.dest not in read
    )


CLI_COMMANDS = subcommands(build_parser())


@pytest.mark.parametrize("command", sorted(CLI_COMMANDS))
def test_cli_command_reads_every_option(command):
    source = (SRC / "cli.py").read_text()
    assert unread_options(CLI_COMMANDS[command], source) == []


def test_scan_flags_unread_options():
    def cmd_go(args):
        pass  # the scan reads the source below, not this body

    source = "def cmd_go(args):\n    print(args.fast, args.input)\n"
    ap = argparse.ArgumentParser()
    p = ap.add_subparsers(dest="command").add_parser("go")
    p.add_argument("name")
    p.add_argument("--in", dest="input")
    p.add_argument("--fast", action="store_true")
    p.add_argument("--scheme", "-s")
    p.set_defaults(func=cmd_go)
    assert unread_options(subcommands(ap)["go"], source) == ["--scheme/-s", "name"]


def public_functions(tree: ast.Module) -> list[tuple[str, ast.FunctionDef]]:
    """('name' or 'Class.name', node) for each public module-level function
    and each public method."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            out += [(f"{node.name}.{n.name}", n) for n in node.body if isinstance(n, ast.FunctionDef)]
    return [(q, f) for q, f in out if not q.rpartition(".")[2].startswith("_")]


def defaulted_parameters(func: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position or None for keyword-only, name) of each parameter with a
    default."""
    a = func.args
    pos = [*a.posonlyargs, *a.args]
    first = len(pos) - len(a.defaults)
    out = [(i, p.arg) for i, p in enumerate(pos) if i >= first]
    return out + [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def uncalled_parameters(sources: dict[str, str], callers: list[str]) -> list[str]:
    """'module:function(param)' for each defaulted parameter of a public
    function in sources that no call in callers passes, by position or by
    keyword.  Calls are matched by the called name alone, a call with *args
    or **kwargs counts as passing every parameter, and a method call's
    positions start after self."""
    funcs = {
        (module, q): f for module, src in sources.items() for q, f in public_functions(ast.parse(src))
    }
    passed = {}
    for src in callers:
        for n in ast.walk(ast.parse(src)):
            if not isinstance(n, ast.Call):
                continue
            name = n.func.id if isinstance(n.func, ast.Name) else getattr(n.func, "attr", None)
            got = passed.setdefault(name, set())
            if any(isinstance(a, ast.Starred) for a in n.args) or any(
                k.arg is None for k in n.keywords
            ):
                got.add("*")
            got.update(range(len(n.args)))
            got.update(k.arg for k in n.keywords)
    out = []
    for (module, q), func in funcs.items():
        got = passed.get(q.rpartition(".")[2], set())
        shift = 1 if "." in q else 0  # a method call does not pass self
        out += [
            f"{module}:{q}({p})"
            for i, p in defaulted_parameters(func)
            if "*" not in got and p not in got and (i is None or i - shift not in got)
        ]
    return sorted(out)


def test_every_defaulted_parameter_is_passed():
    callers = [p.read_text() for p in ENTRY_FILES]
    assert uncalled_parameters({p.stem: p.read_text() for p in MODULES}, callers) == []


def test_scan_flags_uncalled_parameters():
    sources = {
        "a": (
            "def load(path, dt=None, *, strict=False, mode='r'):\n"
            "    pass\n"
            "def spread(x, scale=1.0):\n"
            "    pass\n"
            "def _private(x, unused=0):\n"
            "    pass\n"
            "class Box:\n"
            "    def fill(self, value=0, count=1):\n"
            "        pass\n"
        ),
    }
    callers = [
        "load('x.csv', 0.5)\nload('y.csv', mode='w')\n",
        "spread(*args)\nBox().fill(3)\n",
    ]
    # dt is passed by position, mode by keyword, spread through *args, and
    # Box.fill's value by its first position after self
    assert uncalled_parameters(sources, callers) == ["a:Box.fill(count)", "a:load(strict)"]


# statements that only define a name; a constant computed by a call is one
DEFINITIONS = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.Import,
    ast.ImportFrom,
    ast.Assign,
    ast.AnnAssign,
)


def top_level_calls(source: str) -> list[str]:
    """'line k' for each top-level statement, other than a definition or an
    `if __name__ == "__main__":` block, that makes a call."""
    return [
        f"line {node.lineno}"
        for node in ast.parse(source).body
        if not isinstance(node, DEFINITIONS)
        and not (isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'")
        and any(isinstance(n, ast.Call) for n in ast.walk(node))
    ]


@pytest.mark.parametrize("path", ENTRY_FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_call_at_import(path):
    assert top_level_calls(path.read_text()) == []


def test_scan_flags_top_level_calls():
    source = (
        '"""doc"""\n'
        "import sys\n"
        "TABLE = dict(a=1)\n"
        "sys.exit(main())\n"
        "for k in TABLE:\n"
        "    print(k)\n"
        "if __name__ == '__main__':\n"
        "    main()\n"
        'if __name__ == "__main__" or True:\n'
        "    main()\n"
    )
    assert top_level_calls(source) == ["line 4", "line 5", "line 9"]


def test_package_main_imports_without_running():
    importlib.import_module("innerseries.__main__")


def public_definitions(tree: ast.Module) -> list[str]:
    """Each public module-level function, class and constant, and each public
    method or property, as 'name' or 'Class.name'."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, ast.Assign):
            out += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append(node.target.id)
        if isinstance(node, ast.ClassDef):
            out += [
                f"{node.name}.{n.name}"
                for n in node.body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    return [q for q in out if not q.rpartition(".")[2].startswith("_")]


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """'module:name' for each public definition in sources that no source
    reads, as a name or as an attribute."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                read.add(n.attr)
    return sorted(
        f"{module}:{q}"
        for module, tree in trees.items()
        for q in public_definitions(tree)
        if q.rpartition(".")[2] not in read
    )


def test_every_public_name_is_read():
    # the benchmark's tracer reads the functions it probes by name
    probed = {f"{p.module}:{p.name}" for p in load_bench_tracer().PROBES}
    unread = unread_public_names({p.stem: p.read_text() for p in MODULES})
    assert [name for name in unread if name not in probed] == []


def test_scan_flags_unread_public_names():
    sources = {
        "a": (
            "LIMIT = 3\n"
            "_CACHE = {}\n"
            "SPARE: int = 4\n"
            "def used():\n"
            "    def inner():\n"
            "        pass\n"
            "def unused():\n"
            "    return LIMIT\n"
            "class Box:\n"
            "    size: int\n"
            "    def read(self):\n"
            "        return self.size\n"
            "    @property\n"
            "    def spare(self):\n"
            "        return 0\n"
            "    def _helper(self):\n"
            "        pass\n"
            "class Spare:\n"
            "    pass\n"
        ),
        "b": "from a import used, Box, unused as alias\nused()\nBox().read()\nspare = 1\n",
    }
    # an import or a store is not a read: b's own `spare` is unread too
    assert unread_public_names(sources) == [
        "a:Box.spare",
        "a:SPARE",
        "a:Spare",
        "a:unused",
        "b:spare",
    ]


# modules that start processes or threads
PROCESS_MODULES = {"multiprocessing", "concurrent", "subprocess", "threading", "_thread"}


def process_use(source: str) -> list[tuple[str, str, int]]:
    """(what, where, line) for each use of os.fork and each import of a
    module in PROCESS_MODULES; where is the enclosing 'Class.function', or
    '<module>' at the top level."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if where == "<module>" else f"{where}.{child.name}"
                visit(child, inner)
                continue
            if isinstance(child, ast.Import):
                names = [a.name for a in child.names]
            elif isinstance(child, ast.ImportFrom) and child.module:
                names = [child.module]
                if child.module == "os":
                    names += ["os.fork" for a in child.names if a.name == "fork"]
            elif (
                isinstance(child, ast.Attribute)
                and child.attr == "fork"
                and isinstance(child.value, ast.Name)
                and child.value.id == "os"
            ):
                names = ["os.fork"]
            else:
                names = []
            out.extend(
                (name, where, child.lineno)
                for name in names
                if name == "os.fork" or name.split(".")[0] in PROCESS_MODULES
            )
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_processes_start_only_in_the_csv_fork_helper(path):
    # the CSV writer and reader fork their children through one helper;
    # nothing else in the package starts a process or a thread
    allowed = {("os.fork", "_forked")} if path.name == "ingest.py" else set()
    found = process_use(path.read_text())
    assert [u for u in found if u[:2] not in allowed] == []
    assert allowed <= {u[:2] for u in found}


def test_scan_flags_process_use():
    source = (
        "import os, threading\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from os import fork, getpid\n"
        "def write():\n"
        "    import multiprocessing.pool\n"
        "    return os.fork()\n"
        "class Pool:\n"
        "    def start(self):\n"
        "        from subprocess import run\n"
        "        run(['ls'])\n"
        "pid = os.getpid()\n"
        "from . import threads\n"
    )
    assert process_use(source) == [
        ("threading", "<module>", 1),
        ("concurrent.futures", "<module>", 2),
        ("os.fork", "<module>", 3),
        ("multiprocessing.pool", "write", 5),
        ("os.fork", "write", 6),
        ("subprocess", "Pool.start", 9),
    ]


def test_package_import_loads_no_process_pool():
    # multiprocessing and concurrent.futures cost import time on every run
    # of the CLI
    code = (
        "import sys, innerseries.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in {'multiprocessing', "
        "'concurrent'}))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def load_bench_tracer():
    """The benchmark's tracer module, bench/tracer.py, imported from its file."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_bench_probes_name_package_functions():
    tracer = load_bench_tracer()
    gone = [
        f"{p.module}.{p.name}"
        for p in tracer.PROBES
        if not callable(getattr(importlib.import_module(f"innerseries.{p.module}"), p.name, None))
    ]
    assert gone == []
    traj = gen_bounded_walk(20_000, seed=0, dim=2, noise=("laplace", "uniform"))
    t = tracer.Tracer()
    t.install()
    try:
        res = experiments.run_pipeline(traj, (3, 3), None)
    finally:
        t.uninstall()
    assert t.missing == set()
    assert t.counts["estimate.bins_occupied"] == len(res.moments)
    field = res.field
    assert t.counts["frames.alignment_edges"] == len(field.frames) - len(
        set(field.component_ids.values())
    )
