"""docs/performance.md says what is, and every citation of it resolves.

Four checks, each a function of text so that a planted defect can be
shown to fire:

* every section another file cites by name resolves to a heading of
  docs/performance.md.  A citation is ``performance.md``, "X";
  ``performance.md`` § X (ended by ``)`` or ``]``); or a
  ``performance.md#slug`` link.  Whitespace is collapsed first, because
  docstrings and comments wrap a name across lines;
* every ``##`` section holds a runnable command: a code span or a line of
  a fenced block that starts with ``python``, ``python3`` or ``pytest``,
  after an optional ``$`` prompt and ``NAME=value`` assignments;
* the file ends with the one "Sized and rejected" list, and each of its
  entries names the PR that sized it;
* the file is at most 600 lines.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFORMANCE_MD = ROOT / "docs" / "performance.md"
MAX_LINES = 600
REJECTED = "Sized and rejected"
CITING = ("src", "docs", "benchmarks", "scripts", "examples", "README.md", ".github")
SUFFIXES = {".py", ".md", ".yml", ".yaml", ".toml", ".txt"}

_HEADING = re.compile(r"^(#{1,6}) +(.+?) *$", re.M)
_QUOTED = re.compile(r'performance\.md`*,\s*"([^"]+)"')
_SECTION_SIGN = re.compile(r"performance\.md`*\s*§\s*([^)\]]+?)\s*[)\]]")
_ANCHOR = re.compile(r"performance\.md#([\w-]+)")
_FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.M | re.S)
_SPAN = re.compile(r"`([^`]+)`")
_COMMAND = re.compile(r"^(?:\$ )?(?:[A-Z_]+=\S* +)*(?:python3?|pytest)\b")
_PR = re.compile(r"\bPRs? \d+")


def slug(heading: str) -> str:
    """The anchor GitHub gives a heading."""
    text = re.sub(r"[^\w\- ]", "", heading.lower())
    return text.replace(" ", "-")


def headings(text: str) -> list[str]:
    return [title.replace("`", "") for _, title in _HEADING.findall(text)]


def citations(text: str) -> list[tuple[str, str]]:
    """``(kind, name)`` for every citation of performance.md in ``text``."""
    flat = " ".join(text.split())
    found = [("name", name) for name in _QUOTED.findall(flat)]
    found += [("name", name) for name in _SECTION_SIGN.findall(flat)]
    found += [("anchor", anchor) for anchor in _ANCHOR.findall(flat)]
    return found


def unresolved(cited: list[tuple[str, str]], text: str) -> list[tuple[str, str]]:
    names = set(headings(text))
    anchors = {slug(name) for name in names}
    return [
        (kind, name)
        for kind, name in cited
        if name not in (names if kind == "name" else anchors)
    ]


def sections(text: str) -> list[tuple[str, str]]:
    """``(title, body)`` of every ``##`` section, ``###`` ones inside it."""
    parts = re.split(r"^## +(.+?) *$", text, flags=re.M)
    return list(zip(parts[1::2], parts[2::2]))


def commands(body: str) -> list[str]:
    fenced = [
        line.strip() for block in _FENCE.findall(body) for line in block.splitlines()
    ]
    spans = [" ".join(span.split()) for span in _SPAN.findall(_FENCE.sub("", body))]
    return [text for text in fenced + spans if _COMMAND.match(text)]


def sections_without_a_command(text: str) -> list[str]:
    return [title for title, body in sections(text) if not commands(body)]


def rejected_entries(text: str) -> list[str]:
    """The entries of the closing "Sized and rejected" list, one string each."""
    titles = [title for title, _ in sections(text)]
    assert titles.count(REJECTED) == 1, f"one {REJECTED!r} section, got {titles}"
    assert titles[-1] == REJECTED, f"{REJECTED!r} must be the last section"
    body = sections(text)[-1][1]
    entries = re.split(r"^- ", body, flags=re.M)[1:]
    return [" ".join(entry.split()) for entry in entries]


def entries_without_a_pr(text: str) -> list[str]:
    return [entry for entry in rejected_entries(text) if not _PR.search(entry)]


def citing_files() -> list[Path]:
    found = []
    for name in CITING:
        path = ROOT / name
        paths = [path] if path.is_file() else sorted(path.rglob("*"))
        found += [
            p for p in paths
            if p.is_file() and p.suffix in SUFFIXES and p != PERFORMANCE_MD
            and "__pycache__" not in p.parts and "out" not in p.parts
        ]
    return found


@pytest.fixture(scope="module")
def text() -> str:
    return PERFORMANCE_MD.read_text(encoding="utf-8")


def test_every_cited_section_is_a_heading(text):
    cited = {
        (str(path.relative_to(ROOT)), kind, name)
        for path in citing_files()
        for kind, name in citations(path.read_text(encoding="utf-8"))
    }
    assert len(cited) >= 10, "the citation patterns stopped matching"
    missing = [
        (where, kind, name)
        for where, kind, name in sorted(cited)
        if unresolved([(kind, name)], text)
    ]
    assert not missing


def test_every_section_holds_a_runnable_command(text):
    assert not sections_without_a_command(text)


def test_every_rejected_design_names_its_pr(text):
    assert rejected_entries(text)
    assert not entries_without_a_pr(text)


def test_the_file_is_at_most_600_lines(text):
    assert len(text.splitlines()) <= MAX_LINES


class TestPlantedDefects:
    """Each check fires on the defect it exists for."""

    DOC = (
        "# Performance\n\n## Running experiments\n\n"
        "Run `python -m repro run fig1\n  --workers 2`.\n\n"
        "### Trace generation\n\nArrays.\n\n"
        "## Gate\n\n```\n$ PYTHONPATH=src python -m benchmarks.bench_mining\n```\n\n"
        f"## {REJECTED}\n\nSee `python3 benchmarks/perf/run.py`.\n\n"
        "- **A cache** — PR 20: unresolved.\n"
        "- **A thread** — PRs 29 and 34:\n  none.\n"
    )

    def test_the_clean_document_passes(self):
        cited = citations(
            '(see ``docs/performance.md``, "Running\n    experiments") and '
            "[performance.md § Trace generation](performance.md#trace-generation)"
        )
        assert cited == [
            ("name", "Running experiments"),
            ("name", "Trace generation"),
            ("anchor", "trace-generation"),
        ]
        assert not unresolved(cited, self.DOC)
        assert not sections_without_a_command(self.DOC)
        assert len(rejected_entries(self.DOC)) == 2
        assert not entries_without_a_pr(self.DOC)

    def test_a_stale_section_name_fires(self):
        cited = citations('(docs/performance.md, "Per-block memoization")')
        assert unresolved(cited, self.DOC) == [("name", "Per-block memoization")]
        stale = citations("(`docs/performance.md` § Rule counts)")
        assert unresolved(stale, self.DOC) == [("name", "Rule counts")]

    def test_a_section_with_no_command_fires(self):
        section = "## Rule counts\n\nNested rows.\n\n"
        doc = self.DOC.replace("## Gate\n", section + "## Gate\n")
        assert sections_without_a_command(doc) == ["Rule counts"]

    def test_an_entry_with_no_pr_fires(self):
        doc = self.DOC + "- **A memo** — sized once: slower.\n"
        assert entries_without_a_pr(doc) == ["**A memo** — sized once: slower."]

    def test_a_second_list_fires(self):
        doc = self.DOC.replace("## Gate\n", f"## {REJECTED}\n\n- PR 1\n\n## Gate\n")
        with pytest.raises(AssertionError, match="one"):
            rejected_entries(doc)
