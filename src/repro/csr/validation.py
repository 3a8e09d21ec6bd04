"""Structural validation of CSR graphs with structured findings.

A corrupt-but-checksum-valid graph (bad generator, bit-rot that slipped
past the cache) must fail *loudly* before it produces garbage
coarsenings.  :func:`find_defects` checks every
invariant of the paper's graph model and returns one structured finding
per violated invariant; :func:`validate_graph` raises them as a single
:class:`GraphValidationError` whose ``findings`` list is machine-readable
(the bench CLI prints it, tests assert on codes).

Invariants checked, in order:

* ``indptr``: ``xadj[0] == 0``, monotonically non-decreasing,
  ``xadj[-1] == len(adjncy)``; array lengths agree.
* indices: every neighbour id in ``[0, n)``.
* rows: sorted strictly ascending (implies no duplicate edges).
* no self-loops.
* symmetry: each stored ``(u, v, w)`` has a matching ``(v, u, w)``.
* weights: edge weights strictly positive and finite; vertex weights
  strictly positive and finite.
"""

from __future__ import annotations

import numpy as np

from ..storage.chunked import row_windows

__all__ = ["GraphValidationError", "find_defects", "validate_graph"]

#: edge entries examined per window; every edge-volume check below walks
#: the arrays in windows so memmapped (out-of-core) graphs never load a
#: full-length array or temporary
_WINDOW = 1 << 20


class GraphValidationError(ValueError):
    """A graph violated the model; ``findings`` lists every defect."""

    def __init__(self, findings: list[dict], name: str = ""):
        self.findings = findings
        label = f" {name!r}" if name else ""
        detail = "; ".join(f["message"] for f in findings)
        super().__init__(f"invalid graph{label}: {detail}")


def _finding(code: str, message: str, **detail) -> dict:
    return {"code": code, "message": message, **detail}


def find_defects(g) -> list[dict]:
    """Every violated invariant of ``g`` as a structured finding list.

    Returns ``[]`` for a valid graph.  Later checks that depend on
    earlier ones (e.g. symmetry needs in-range indices) are skipped once
    a prerequisite fails, so the list never contains cascading noise.
    """
    findings: list[dict] = []
    xadj, adjncy, ewgts, vwgts = g.xadj, g.adjncy, g.ewgts, g.vwgts
    n = len(xadj) - 1

    if len(xadj) == 0 or xadj[0] != 0 or xadj[-1] != len(adjncy):
        findings.append(_finding(
            "indptr-endpoints",
            "xadj endpoints inconsistent with adjncy length",
            first=int(xadj[0]) if len(xadj) else None,
            last=int(xadj[-1]) if len(xadj) else None,
            nnz=len(adjncy),
        ))
    if np.any(np.diff(xadj) < 0):
        bad = int(np.flatnonzero(np.diff(xadj) < 0)[0])
        findings.append(_finding(
            "indptr-monotonic", "xadj not monotone (row pointers decrease)",
            row=bad,
        ))
    if len(adjncy) != len(ewgts):
        findings.append(_finding(
            "length-mismatch", "adjncy/ewgts length mismatch",
            adjncy=len(adjncy), ewgts=len(ewgts),
        ))
    if len(vwgts) != n:
        findings.append(_finding(
            "length-mismatch", "vwgts length mismatch", vwgts=len(vwgts), n=n,
        ))
    if findings:
        return findings  # structural layout broken: nothing below is safe

    # weights are checkable regardless of index sanity
    bad_count, bad_first = 0, 0
    for i in range(0, len(ewgts), _WINDOW):
        blk = np.asarray(ewgts[i : i + _WINDOW])
        bad = np.flatnonzero(~np.isfinite(blk) | (blk <= 0))
        if len(bad):
            if not bad_count:
                bad_first = i + int(bad[0])
            bad_count += len(bad)
    if bad_count:
        findings.append(_finding(
            "edge-weight",
            "non-positive or non-finite edge weight",
            count=bad_count, first=bad_first,
        ))
    if len(vwgts) and (not np.all(np.isfinite(vwgts)) or np.any(vwgts <= 0)):
        bad = np.flatnonzero(~np.isfinite(vwgts) | (vwgts <= 0))
        findings.append(_finding(
            "vertex-weight",
            "non-positive or non-finite vertex weight",
            count=int(len(bad)), first=int(bad[0]),
        ))

    if len(adjncy) == 0:
        return findings
    bad_count, bad_first = 0, 0
    for i in range(0, len(adjncy), _WINDOW):
        blk = np.asarray(adjncy[i : i + _WINDOW])
        bad = np.flatnonzero((blk < 0) | (blk >= n))
        if len(bad):
            if not bad_count:
                bad_first = i + int(bad[0])
            bad_count += len(bad)
    if bad_count:
        findings.append(_finding(
            "index-range", "neighbour id out of range",
            count=bad_count, first=bad_first,
        ))
        return findings  # gathers below would index out of bounds

    # per-row checks over row-aligned windows; a window-boundary pair is
    # always a row boundary too, exactly the pairs the full-array
    # ``same_row`` mask discards
    loop_count = dec_count = dup_count = 0
    loop_vertex = dec_row = dup_row = 0
    xadj_a = np.asarray(xadj)
    for r0, r1, e0, e1 in row_windows(xadj, _WINDOW):
        adj_w = np.asarray(adjncy[e0:e1])
        src_w = np.repeat(
            np.arange(r0, r1, dtype=xadj_a.dtype), xadj_a[r0 + 1 : r1 + 1] - xadj_a[r0:r1]
        )
        bad = np.flatnonzero(src_w == adj_w)
        if len(bad):
            if not loop_count:
                loop_vertex = int(src_w[bad[0]])
            loop_count += len(bad)
        # sorted strictly ascending within each row; equality = duplicate
        same_row = src_w[1:] == src_w[:-1]
        bad = np.flatnonzero(same_row & (adj_w[1:] < adj_w[:-1]))
        if len(bad):
            if not dec_count:
                dec_row = int(src_w[bad[0]])
            dec_count += len(bad)
        bad = np.flatnonzero(same_row & (adj_w[1:] == adj_w[:-1]))
        if len(bad):
            if not dup_count:
                dup_row = int(src_w[bad[0]])
            dup_count += len(bad)
    if loop_count:
        findings.append(_finding(
            "self-loop", "self-loop present",
            count=loop_count, vertex=loop_vertex,
        ))
    if dec_count:
        findings.append(_finding(
            "rows-unsorted", "adjacency rows not sorted ascending",
            count=dec_count, row=dec_row,
        ))
    if dup_count:
        findings.append(_finding(
            "duplicate-edge", "duplicate edge within a row",
            count=dup_count, row=dup_row,
        ))

    if not _is_symmetric(g, xadj_a, sorted_rows=not (dec_count or dup_count)):
        findings.append(_finding(
            "asymmetric",
            "graph is not symmetric with matching weights",
        ))
    return findings


def _is_symmetric(g, xadj_a: np.ndarray, sorted_rows: bool) -> bool:
    """Each stored ``(u, v, w)`` has a matching ``(v, u, ~w)``.

    With sorted duplicate-free rows the storage order is already the
    canonical lexicographic order, so each entry's reverse is located by
    a vectorised bisection of row ``v`` — windowed, never materialising
    a full-length array.  Rows that are unsorted or carry duplicates
    (the graph is already invalid) fall back to the dense two-lexsort
    canonicalisation.
    """
    adjncy, ewgts = g.adjncy, g.ewgts
    n = len(xadj_a) - 1
    if not sorted_rows:
        # symmetry over possibly-unsorted rows: canonicalise both directions
        src = np.repeat(np.arange(n, dtype=xadj_a.dtype), np.diff(xadj_a))
        adj, w = np.asarray(adjncy), np.asarray(ewgts)
        order = np.lexsort((adj, src))
        s, d, w = src[order], adj[order], w[order]
        order_t = np.lexsort((s, d))
        return (
            np.array_equal(s, d[order_t])
            and np.array_equal(d, s[order_t])
            and np.allclose(w, w[order_t])
        )
    for r0, r1, e0, e1 in row_windows(xadj_a, _WINDOW):
        adj_w = np.asarray(adjncy[e0:e1])
        u = np.repeat(
            np.arange(r0, r1, dtype=xadj_a.dtype), xadj_a[r0 + 1 : r1 + 1] - xadj_a[r0:r1]
        )
        # lower_bound of u within row adj_w, all lanes bisecting together
        lo = xadj_a[adj_w].astype(np.int64)
        hi = xadj_a[adj_w + 1].astype(np.int64)
        end = hi.copy()
        while True:
            act = np.flatnonzero(lo < hi)
            if len(act) == 0:
                break
            mid = (lo[act] + hi[act]) >> 1
            less = np.asarray(adjncy[mid]) < u[act]
            lo[act[less]] = mid[less] + 1
            hi[act[~less]] = mid[~less]
        found = lo < end
        if not np.all(found):
            return False
        if not np.array_equal(np.asarray(adjncy[lo]), u):
            return False
        # matching weights, elementwise with np.allclose's tolerances
        if not np.all(np.isclose(np.asarray(ewgts[e0:e1]), np.asarray(ewgts[lo]))):
            return False
    return True


def validate_graph(g) -> None:
    """Raise :class:`GraphValidationError` unless ``g`` is a valid model graph."""
    findings = find_defects(g)
    if findings:
        raise GraphValidationError(findings, getattr(g, "name", ""))
