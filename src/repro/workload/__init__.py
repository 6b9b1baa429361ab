"""Synthetic workload models.

The paper's evaluation is driven by a proprietary 7-day Gnutella trace
captured at one modified node.  We cannot obtain that trace, so this
subpackage builds the closest synthetic equivalent (see DESIGN.md §2): a
generative *monitor-node* model producing query and reply records with the
statistical properties the rule-routing results depend on —

* **skewed activity**: neighbor query volumes are heavy-tailed
  (:mod:`~repro.workload.zipf`, lognormal activity weights);
* **interest-based locality**: each neighbor's queries concentrate on a
  few interest categories (:mod:`~repro.workload.interests`), so its
  replies concentrate on the few neighbors serving those categories;
* **churn**: neighbor sessions are heavy-tailed
  (:mod:`~repro.workload.churn`) and reply paths drift over time, which is
  what degrades stale rule sets.

:mod:`~repro.workload.tracegen` combines these into the trace generator;
:mod:`~repro.workload.content` and :mod:`~repro.workload.querygen` also
serve the online overlay simulator in :mod:`repro.network`.
"""
