"""Each name has one import path, and a command loads what it runs.

A package ``__init__`` re-exports nothing (three keep the names
``benchmarks/perf`` imports from them), so importing a module runs only
that module's imports: an offline command never starts asyncio or the
overlay, and no module needs another imported before it.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
#: what an offline trace command has no use for, each with its submodules
_ONLINE = (
    "asyncio",
    "repro.experiments.registry",
    "repro.live",
    "repro.network",
    "repro.routing",
)


def _run(code: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(REPO)])),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("command", ["tracegen", "trace-inspect", "trace-eval"])
def test_an_offline_command_loads_no_online_module(tmp_path, command):
    store = str(tmp_path / "trace.rptrace")
    out = _run(
        f"""
        import contextlib, io, sys
        from repro.cli import main

        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["tracegen", {store!r}, "--blocks", "3"]) == 0
            if {command!r} != "tracegen":
                assert main([{command!r}, {store!r}]) == 0
        print(sorted(name for name in sys.modules if name.startswith({_ONLINE!r})))
        """
    )
    assert out.strip() == "[]"


#: the HTTP client stack, which only the cluster collector's scrapes use
_HTTP = ("repro.obs.scrape", "http.client", "urllib.request", "email")


def test_a_simulator_or_live_node_loads_no_http_client():
    """The simulators and a live node report through ``repro.obs``'s
    instruments; none of them loads the scrape client or what it brings."""
    out = _run(
        f"""
        import sys
        import repro.network.hier.network, repro.network.overlay, repro.live.node

        print(sorted(
            name for name in sys.modules if name.split(".")[0] == "email"
            or name in {_HTTP!r}
        ))
        """
    )
    assert out.strip() == "[]"


def _modules() -> list[str]:
    names = (".".join(p.relative_to(SRC).with_suffix("").parts) for p in SRC.rglob("*.py"))
    return sorted(n.removesuffix(".__init__") for n in names if n != "repro.__main__")


def test_every_module_imports_first():
    """No module leans on another having been imported before it (as a
    package ``__init__`` that imports its modules in a set order can)."""
    out = _run(
        f"""
        import importlib, sys

        for name in {_modules()!r}:
            for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
                del sys.modules[loaded]
            try:
                importlib.import_module(name)
            except Exception as exc:
                print(name, repr(exc))
        """
    )
    assert out == ""


def _package_imports(path: Path) -> list[tuple[str, str]]:
    """``(module, name)`` for each ``from repro... import name`` in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.level == 0
        and (node.module or "").split(".")[0] == "repro"
        for alias in node.names
    ]


def _resolves(module: str, name: str) -> bool:
    try:
        exec(f"from {module} import {name}", {})
    except ImportError:
        return False
    return True


def test_every_benchmark_import_resolves():
    """``benchmarks/perf`` imports a few names from package roots; each
    must still be there."""
    imports = [
        (path.name, module, name)
        for path in sorted((REPO / "benchmarks" / "perf").glob("*.py"))
        for module, name in _package_imports(path)
    ]
    assert len(imports) > 30  # the reader still finds them
    assert [i for i in imports if not _resolves(*i[1:])] == []


def test_src_imports_each_name_from_its_module():
    """No module in ``src/`` imports a name through a package root."""
    through = [
        f"{path.relative_to(REPO)}: from {module} import {name}"
        for path in sorted(SRC.rglob("*.py"))
        for module, name in _package_imports(path)
        if module != "repro"
        and (SRC / module.replace(".", "/") / "__init__.py").exists()
        and not (SRC / module.replace(".", "/") / f"{name}.py").exists()
        and not (SRC / module.replace(".", "/") / name / "__init__.py").exists()
    ]
    assert through == []
