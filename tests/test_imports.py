"""Every name the benchmark imports from bgpchurn exists, every
bgpchurn module imports on its own, and bgpchurn needs nothing beyond
the standard library.

``perfbench/run.py --trace 0`` never imports ``perfbench/pipelines.py``,
so a library change that breaks a traced pass would not show in the
gated benchmark; this test reads the imports instead of running it.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bgpchurn
from bgpchurn.mrt.codec import write_mrt_stream

from helpers import update_entry

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(bgpchurn.__file__).resolve().parents[1]


def bgpchurn_imports(path: Path):
    """(module, name) for each ``from bgpchurn... import name`` in a file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module and (
            node.module == "bgpchurn" or node.module.startswith("bgpchurn.")
        ):
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("bench_file", ["perfbench/pipelines.py", "perfbench/run.py"])
def test_benchmark_imports_resolve(bench_file):
    found = list(bgpchurn_imports(ROOT / bench_file))
    assert found
    for module, name in found:
        resolved = hasattr(importlib.import_module(module), name) or (
            importlib.util.find_spec(f"{module}.{name}") is not None
        )
        assert resolved, f"{bench_file}: from {module} import {name}"


MODULES = sorted(
    info.name for info in pkgutil.walk_packages(bgpchurn.__path__, "bgpchurn.")
)


@pytest.mark.parametrize("module", ["bgpchurn"] + MODULES)
def test_module_imports_alone(module):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def imported_modules(path: Path):
    """(line, top-level name) of every import in a file, at any depth;
    a relative import counts as bgpchurn."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            name = "bgpchurn" if node.level else node.module.split(".")[0]
            yield node.lineno, name


def test_package_imports_only_the_standard_library():
    found = [
        f"{path.name}:{lineno}: {name}"
        for path in sorted((SRC / "bgpchurn").rglob("*.py"))
        for lineno, name in imported_modules(path)
        if name not in sys.stdlib_module_names and name != "bgpchurn"
    ]
    assert found == []


def test_only_addr_imports_ipaddress():
    """Address and prefix text is read, printed and packed by bgpchurn.addr
    alone, so no other module builds ipaddress objects."""
    package = SRC / "bgpchurn"
    found = [
        f"{path.relative_to(package)}:{lineno}"
        for path in sorted(package.rglob("*.py"))
        if path != package / "addr.py"
        for lineno, name in imported_modules(path)
        if name == "ipaddress"
    ]
    assert found == []


def test_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project.get("dependencies", []) == []


# Start-up is paid per invocation, so each command loads only its own
# code: no command here loads the simulator, the MRT builders, fetch's
# thread pool or urllib.request (only a download needs it).
NEVER_LOADED = ("bgpchurn.sim", "bgpchurn.mrt.build", "concurrent.futures", "urllib.request")

# case: (argv for cli.main, or None for a bare import; loaded; not loaded)
LOAD_CASES = {
    "import": (None, (), ("bgpchurn.allocation", "bgpchurn.beacon", "bgpchurn.reduce")),
    "help": (["--help"], (), ("bgpchurn.allocation", "bgpchurn.beacon", "bgpchurn.reduce")),
    "reduce": (
        ["reduce", "{mrt}"],
        ("bgpchurn.reduce",),
        ("bgpchurn.allocation", "bgpchurn.beacon"),
    ),
    "classify": (
        ["classify", "{mrt}"],
        (),
        ("bgpchurn.allocation", "bgpchurn.beacon", "bgpchurn.reduce"),
    ),
    "classify-allocation": (
        ["classify", "{mrt}", "--allocation", "{delegated}"],
        ("bgpchurn.allocation",),
        ("bgpchurn.beacon", "bgpchurn.reduce"),
    ),
    "beacon": (
        ["beacon", "{mrt}"],
        ("bgpchurn.beacon",),
        ("bgpchurn.allocation", "bgpchurn.reduce"),
    ),
}


def loaded_by(case: str, tmp_path: Path) -> set[str]:
    """The modules a fresh interpreter holds after running ``case``."""
    argv = LOAD_CASES[case][0]
    if argv is None:
        run = "import bgpchurn.cli"
    else:
        mrt = tmp_path / "updates.mrt"
        with open(mrt, "wb") as f:  # one message for a beacon prefix
            write_mrt_stream([update_entry(announced=("84.205.64.0/24",))], f)
        delegated = tmp_path / "delegated.txt"
        delegated.write_text("ripencc|ZZ|ipv4|84.205.0.0|65536|20000101|allocated|x\n")
        args = [a.format(mrt=mrt, delegated=delegated) for a in argv]
        if argv != ["--help"]:
            args += ["-o", str(tmp_path / "out")]
        run = (
            "from bgpchurn.cli import main\n"
            "try:\n"
            f"    code = main({args!r})\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "assert code == 0, code"
        )
    code = f"{run}\nimport sys\nprint(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("case", LOAD_CASES)
def test_each_command_loads_only_its_own_code(case, tmp_path):
    _, wanted, unwanted = LOAD_CASES[case]
    loaded = loaded_by(case, tmp_path)
    assert set(wanted) <= loaded
    found = sorted(
        name
        for name in loaded
        for prefix in NEVER_LOADED + unwanted
        if name == prefix or name.startswith(prefix + ".")
    )
    assert found == []


WRITERS = {("csv", "writer"), ("json", "dump")}


def test_reports_are_written_only_by_output():
    """Only output.py builds a csv.writer or calls json.dump; every other
    module writes its reports through output.write_csv and write_json."""
    package = SRC / "bgpchurn"
    found = []
    for path in sorted(package.rglob("*.py")):
        if path == package / "output.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                used = {(node.module, alias.name) for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                used = {(node.value.id, node.attr)}
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {m}.{n}" for m, n in used & WRITERS]
    assert found == []


# The simulator raises these and reports them through cli.main's
# BgpChurnError handler; no code needs to tell them apart.
UNCAUGHT_ERRORS = {"NonConvergence", "ScenarioError"}


def test_every_error_class_is_caught():
    """Each class in errors.py is caught by name somewhere in the package,
    so no exception type outlives the last code that tells it apart."""
    package = SRC / "bgpchurn"
    tree = ast.parse((package / "errors.py").read_text(encoding="utf-8"))
    defined = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    caught = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
    assert sorted(defined - caught - UNCAUGHT_ERRORS) == []


MEMO_DECORATORS = {"lru_cache", "cache"}


def memo_uses(tree: ast.AST):
    """(line, functools name, call or None) for each use of lru_cache or
    cache; the call is the one that builds the memo, None for a bare use."""
    names = {}  # local name -> functools name
    modules = set()  # local names of functools itself
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            for alias in node.names:
                if alias.name in MEMO_DECORATORS:
                    names[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "functools"}
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in names:
            kind = names[node.id]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr in MEMO_DECORATORS
        ):
            kind = node.attr
        else:
            continue
        yield node.lineno, kind, calls.get(id(node))


def test_every_memo_is_bounded():
    """An unbounded memo keyed on wire bytes or file text would grow with
    a whole collector day, so each lru_cache names a maxsize that is not
    None, and functools.cache, which has none, is not used."""
    package = SRC / "bgpchurn"
    found = []
    for path in sorted(package.rglob("*.py")):
        for lineno, kind, call in memo_uses(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{lineno}: {kind}"
            if kind == "cache" or call is None:
                found.append(where)
                continue
            sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
            if len(sizes) != 1 or (
                isinstance(sizes[0], ast.Constant) and sizes[0].value is None
            ):
                found.append(where)
    assert found == []
    memos = [
        obj
        for module in MODULES
        for obj in vars(importlib.import_module(module)).values()
        if callable(getattr(obj, "cache_parameters", None))
    ]
    assert memos
    for memo in memos:
        assert isinstance(memo.cache_parameters()["maxsize"], int), memo


# perfbench/pipelines.py still calls these, and src does not; the
# benchmark change that stops calling them deletes them.
BENCHMARK_ONLY = {
    "expand_stream",
    "normalize_stream",
    "filter_allocated",
    "StreamClassifier.process",
    "record_to_dict",
    "FilterStats.dropped",
}


def definitions(tree: ast.Module):
    """(qualified name, name, node) of each module-level function and
    class and of each method of those classes but the dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, item


def references(tree: ast.AST):
    """(line, name) of each name and each attribute name in a tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr


def test_every_definition_has_a_caller_outside_tests():
    """Each function, class and method of the package is used by package
    code outside its own definition, so none is kept alive by tests alone."""
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((SRC / "bgpchurn").rglob("*.py"))
    }
    used: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for line, name in references(tree):
            used.setdefault(name, []).append((path, line))
    unused = {
        qualified
        for path, tree in trees.items()
        for qualified, name, node in definitions(tree)
        if all(
            where == path and node.lineno <= line <= node.end_lineno
            for where, line in used.get(name, ())
        )
    }
    assert sorted(unused) == sorted(BENCHMARK_ONLY)
    bench = {
        name
        for path in (ROOT / "perfbench").glob("*.py")
        for _, name in references(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert {q.rpartition(".")[2] for q in BENCHMARK_ONLY} <= bench
