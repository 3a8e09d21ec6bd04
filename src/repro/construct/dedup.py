"""The skew heuristic that selects the degree-based dedup optimization.

Every undirected fine edge is stored twice in the CSR, but only one copy
is needed for deduplication.  For skewed-degree graphs it matters *which*
copy: keeping the copy at the endpoint whose coarse vertex has the lower
estimated degree (the upper bound C' of Algorithm 6, line 5) keeps the
per-vertex dedup bins small — a hub's bin would otherwise hold nearly all
of the graph.  The paper measures this optimization at 25.7x on kron21's
construction time and enables it selectively using the max-degree to
average-degree ratio (Section III-B); regular meshes gain nothing, so the
sweep is skipped there.  The sweep itself runs inside
:func:`repro.construct.vertex_sort.vertex_centric`.
"""

from __future__ import annotations

__all__ = ["SKEW_THRESHOLD", "is_skewed"]

#: Graphs with Δ/(2m/n) above this use the degree-based dedup sweep.
#: The paper's corpus splits between 6.1 (regular max) and 17.0 (skewed
#: min); our ~1/1000-scale stand-ins compress the skew range to 2.7 vs
#: 8.7, so the threshold sits at 5 — splitting our corpus exactly as the
#: paper's threshold splits theirs.
SKEW_THRESHOLD = 5.0


def is_skewed(g) -> bool:
    """The paper's selective-invocation test for the dedup optimization."""
    return g.degree_skew() > SKEW_THRESHOLD
