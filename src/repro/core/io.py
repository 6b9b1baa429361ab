"""Rule-set persistence.

The paper's simulator kept the current rule set in a database table with
three values per entry: query source, replying neighbor, and use count.
This module persists :class:`~repro.core.rules.RuleSet` objects in the
same tabular shape — a TSV with header — so mined rules can be shipped
between processes, diffed across blocks, or inspected by hand.
"""

from __future__ import annotations

import os

from repro.core.rules import Rule, RuleSet

__all__ = ["write_ruleset", "read_ruleset"]

_HEADER = "antecedent\tconsequent\tcount"


def write_ruleset(path: str | os.PathLike, ruleset: RuleSet) -> int:
    """Write a rule set as TSV; returns the number of rules written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_HEADER + "\n")
        for rule in ruleset:
            fh.write(f"{rule.antecedent}\t{rule.consequent}\t{rule.count}\n")
            n += 1
    return n


def read_ruleset(path: str | os.PathLike) -> RuleSet:
    """Read a rule set written by :func:`write_ruleset`."""
    rules = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header != _HEADER:
            raise ValueError(f"not a rule-set file: header {header!r}")
        for line in fh:
            ante, cons, count = line.rstrip("\n").split("\t")
            rules.append(Rule(int(ante), int(cons), int(count)))
    return RuleSet(rules)

