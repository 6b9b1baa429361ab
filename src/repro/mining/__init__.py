"""Association analysis (the data-mining technique the paper borrows).

The paper applies *association analysis* — mining rules ``{A} -> {B}`` with
support/confidence measures, introduced by Agrawal et al. [15][16] — to P2P
query routing.  This subpackage implements the technique in its general
form — multi-item transactions and itemsets — next to the single-antecedent
pair rules the routing application mines in :mod:`repro.core`:

* :class:`~repro.mining.transactions.TransactionDataset` — a collection of
  transactions (sets of items) with an item-id encoding;
* :func:`~repro.mining.apriori.apriori` — level-wise frequent-itemset
  mining with candidate pruning;
* :func:`~repro.mining.fpgrowth.fpgrowth` — FP-tree based mining (no
  candidate generation), cross-checked against Apriori in the test suite;
* :mod:`~repro.mining.measures` — support, confidence, lift, leverage and
  conviction interestingness measures;
* :func:`~repro.mining.rules.generate_rules` — association-rule extraction
  from frequent itemsets with support/confidence pruning.

Counting pairs from a stream (their reference [18]) is
:class:`repro.core.counts.SketchCounts`.
"""

from repro.mining.apriori import apriori
from repro.mining.fpgrowth import fpgrowth
from repro.mining.measures import RuleMeasures, compute_measures
from repro.mining.rules import AssociationRule, generate_rules
from repro.mining.transactions import TransactionDataset

__all__ = [
    "AssociationRule",
    "RuleMeasures",
    "TransactionDataset",
    "apriori",
    "compute_measures",
    "fpgrowth",
    "generate_rules",
]
