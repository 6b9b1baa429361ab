"""docs/api.md cannot keep a row for a name that is gone.

Each ``## repro.<pkg> — ...`` section of docs/api.md names the module its
tables document.  In every ``| name |`` or ``| function |`` table of such
a section, the first cell of a row lists backticked names; each one's
leading identifier must be an attribute of that module once it is
imported.  The conventions the parser reads:

* a ``(`repro.x.y`)`` in the cell says the row's names live in that
  module instead (one per row);
* a name spelled ``repro.x.y.z`` resolves from the module ``repro.x.y``;
* a name starting with ``.`` is an attribute of the name before it and
  is not resolved on its own;
* anything after a ``→`` / ``->`` outside backticks describes a result,
  not a name (one inside backticks is part of the name's signature).

Tables with other headers (``| method |``, ``| series |``, ...) are not
read: their rows are methods of a class above or metric names.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

API_MD = Path(__file__).resolve().parent.parent / "docs" / "api.md"

_SECTION = re.compile(r"^## (repro(?:\.\w+)*)\b")
_OVERRIDE = re.compile(r"\(`(repro(?:\.\w+)+)`\)")
#: the text before each backticked token, and the token: an arrow inside
#: backticks is part of a signature, one outside starts the result.
_TOKEN = re.compile(r"([^`]*)`([^`]+)`")
_ARROW = re.compile(r"→|->")
_LEADING = re.compile(r"[A-Za-z_]\w*(?:\.\w+)*")


def documented_names(text: str) -> list[tuple[int, str, str]]:
    """``(line number, module, name)`` for every name the tables list."""
    found = []
    module = None
    header = None
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.startswith("## "):
            match = _SECTION.match(line)
            module = match.group(1) if match else None
            header = None
            continue
        if not line.startswith("|"):
            header = None
            continue
        cell = line.split("|")[1].strip()
        if header is None:
            header = cell
            continue
        if module is None or header not in ("name", "function") or set(cell) <= {"-"}:
            continue
        override = _OVERRIDE.search(cell)
        row_module = override.group(1) if override else module
        cell = _OVERRIDE.sub("", cell)
        for before, token in _TOKEN.findall(cell):
            if _ARROW.search(before):
                break  # the rest of the cell describes a result
            leading = _LEADING.match(token)
            if leading is None:
                continue
            found.append((lineno, row_module, leading.group(0)))
    return found


def resolve(module_name: str, name: str) -> object:
    """The object ``name`` names in ``module_name`` (AttributeError if none)."""
    parts = name.split(".")
    if parts[0] == "repro":
        for cut in range(len(parts) - 1, 0, -1):
            try:
                module = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            return getattr(module, parts[cut])
        raise AttributeError(name)
    return getattr(importlib.import_module(module_name), parts[0])


def stale_rows(text: str) -> list[str]:
    stale = []
    for lineno, module, name in documented_names(text):
        try:
            resolve(module, name)
        except AttributeError:
            stale.append(f"docs/api.md:{lineno}: {name} (in {module})")
    return stale


def test_every_documented_name_resolves():
    names = documented_names(API_MD.read_text(encoding="utf-8"))
    assert len(names) > 150  # the parser still reads the tables
    assert stale_rows(API_MD.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "row, names",
    [
        (
            "| `ContentCatalog.draw_library(rng, profile, *, size) -> ndarray` | x |",
            ["ContentCatalog.draw_library"],
        ),
        ("| `sample_library(...) -> frozenset[int]` | x |", ["sample_library"]),
        ("| `match_block(ruleset, block)` → `(covered, hit)` | x |", ["match_block"]),
        (
            "| `Topology`, `random_regular` -> `Topology` | x |",
            ["Topology", "random_regular"],
        ),
    ],
)
def test_documented_names_reads_names_before_an_outside_arrow(row, names):
    table = f"| name | what |\n|---|---|\n{row}\n"
    text = f"## repro.workload.content — a section\n\n{table}"
    assert documented_names(text) == [(5, "repro.workload.content", n) for n in names]


@pytest.mark.parametrize(
    "row",
    [
        "| `install_uvloop` | gone |",
        "| `Topology`, `NullTracer` | one live, one gone |",
        "| `read_queries` (`repro.trace.capture`) | wrong module |",
    ],
)
def test_a_planted_stale_row_is_caught(row):
    text = API_MD.read_text(encoding="utf-8")
    anchor = "| `Topology`, `random_regular` |"
    assert anchor in text
    planted = text.replace(anchor, row + "\n" + anchor, 1)
    assert len(stale_rows(planted)) == 1
