"""The cases of each benchmark workload.

This module imports only ``stabgap``, so the set-up probe in ``run.py``
times ``import stabgap`` plus building a workload's case specs and
nothing of the benchmark's own.  Each workload's one-line reason is in
``BENCHMARK.json``.
"""

from __future__ import annotations

from stabgap import builtin_cases, catalog

# The group ladder uses the catalog's own family builders at sizes beyond
# the built-in catalog, so the group layer is loaded and the eigensolve
# left idle.
WORKLOADS = {
    "catalog": builtin_cases,
    "group-ladder": lambda: [catalog._kneser(8, 3), catalog._complete(8)],
}
