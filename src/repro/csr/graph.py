"""Compressed sparse row (CSR) graph container.

This is the storage format assumed throughout the paper (Section II): an
undirected graph with no self-loops or parallel edges and positive edge
weights, stored symmetrically (each undirected edge ``{u, v}`` appears in
both ``u``'s and ``v``'s adjacency array).

:class:`CSRGraph` additionally carries *vertex weights*: on the input
graph these are all 1; after coarsening a coarse vertex's weight is the
number of fine vertices in its aggregate.  Vertex weights drive balance
constraints in multilevel partitioning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..types import VI, WT, vi_array, wt_array

__all__ = ["CSRGraph"]

#: live temporaries per window entry of the weighted-degree pass
#: (window-local source ids + ewgts window view + bincount scratch)
_WDEG_BPE = 3 * 8


@dataclass(frozen=True)
class CSRGraph:
    """An immutable undirected weighted graph in CSR format.

    Parameters
    ----------
    xadj:
        Row-pointer array of length ``n + 1``; the neighbours of vertex
        ``u`` are ``adjncy[xadj[u]:xadj[u + 1]]``.
    adjncy:
        Concatenated adjacency arrays, length ``2 m`` for ``m``
        undirected edges.
    ewgts:
        Edge weights aligned with ``adjncy`` (the weight of undirected
        edge ``{u, v}`` is stored twice and must agree).
    vwgts:
        Per-vertex weights (aggregate sizes), length ``n``.
    name:
        Optional label used by the benchmark harness.

    Use :func:`repro.csr.build.from_edge_list` (or the generator modules)
    rather than constructing instances by hand; the builders symmetrise,
    deduplicate, and validate.
    """

    xadj: np.ndarray
    adjncy: np.ndarray
    ewgts: np.ndarray
    vwgts: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "xadj", vi_array(self.xadj))
        object.__setattr__(self, "adjncy", vi_array(self.adjncy))
        object.__setattr__(self, "ewgts", wt_array(self.ewgts))
        object.__setattr__(self, "vwgts", wt_array(self.vwgts))
        for arr in ("xadj", "adjncy", "ewgts", "vwgts"):
            getattr(self, arr).setflags(write=False)

    # -- basic size accessors -------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self.xadj) - 1

    @property
    def m_directed(self) -> int:
        """Number of stored (directed) adjacency entries, ``2 m``."""
        return len(self.adjncy)

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.adjncy) // 2

    @property
    def size_measure(self) -> int:
        """The paper's graph-size measure ``2 m + n`` (Table I ordering)."""
        return self.m_directed + self.n

    # -- per-vertex views ------------------------------------------------------

    def neighbors(self, u: int) -> np.ndarray:
        """Neighbour ids of ``u`` (a read-only view, not a copy)."""
        return self.adjncy[self.xadj[u] : self.xadj[u + 1]]

    def edge_weights(self, u: int) -> np.ndarray:
        """Weights of ``u``'s incident edges, aligned with :meth:`neighbors`."""
        return self.ewgts[self.xadj[u] : self.xadj[u + 1]]

    def degree(self, u: int) -> int:
        """Number of neighbours of ``u``."""
        return int(self.xadj[u + 1] - self.xadj[u])

    # -- whole-graph derived quantities ---------------------------------------

    def degrees(self) -> np.ndarray:
        """All vertex degrees as a :data:`VI` array (computed once)."""
        cached = self.__dict__.get("_degrees")
        if cached is None:
            cached = np.diff(self.xadj)
            cached.setflags(write=False)
            object.__setattr__(self, "_degrees", cached)
        return cached

    def has_unit_ewgts(self) -> bool:
        """True when every edge weight is exactly 1.0 (computed once).

        Input graphs are unweighted; the flag lets kernels replace
        weight merges with run counts on the dominant level-0 volume.
        Checked in bounded windows so a memmapped graph never
        materialises a full-length comparison temporary.
        """
        cached = self.__dict__.get("_unit_ewgts")
        if cached is None:
            step = 1 << 20
            cached = all(
                bool(np.all(self.ewgts[i : i + step] == 1.0))
                for i in range(0, len(self.ewgts), step)
            )
            object.__setattr__(self, "_unit_ewgts", cached)
        return cached

    def tie_mask(self) -> np.ndarray:
        """``u < v`` per stored adjacency entry (computed once).

        A pure graph property — the upper-triangle selector of the
        symmetric storage — used as the tie-break of the keep-side
        dedup predicate.
        """
        cached = self.__dict__.get("_tie_mask")
        if cached is None:
            idx_t = np.int32 if self.n < (1 << 31) else VI
            src = np.repeat(np.arange(self.n, dtype=idx_t), self.degrees())
            cached = src < self.adjncy
            cached.setflags(write=False)
            object.__setattr__(self, "_tie_mask", cached)
        return cached

    def weighted_degrees(self) -> np.ndarray:
        """Sum of incident edge weights per vertex (computed once).

        The spectral-uncoarsening feed: every Fiedler solve starts from
        this degree vector.  One row-window body run through
        :func:`repro.parallel.tiles.row_window_map`: ``np.bincount``
        accumulates strictly sequentially (unlike the pairwise
        ``add.reduce`` family) and rows never straddle windows, so each
        row's left-to-right accumulation is byte-identical under every
        driver arm.
        """
        cached = self.__dict__.get("_wdeg")
        if cached is not None:
            return cached
        from ..parallel import tiles as _tiles

        degs = self.degrees()

        def window(r0, r1, e0, e1):
            src = np.repeat(np.arange(r1 - r0, dtype=VI), degs[r0:r1])
            return np.bincount(
                src, weights=np.asarray(self.ewgts[e0:e1]), minlength=r1 - r0
            ).astype(WT, copy=False)

        out = _tiles.stitch(_tiles.row_window_map(self.xadj, _WDEG_BPE, window, self))
        out.setflags(write=False)
        object.__setattr__(self, "_wdeg", out)
        return out

    def edge_sources(self) -> np.ndarray:
        """Source vertex of every stored adjacency entry (COO row index).

        ``edge_sources()[k]`` is the ``u`` such that ``adjncy[k]`` lies in
        ``u``'s adjacency array.  Computed on demand; O(2m).
        """
        return np.repeat(np.arange(self.n, dtype=VI), self.degrees())

    def gather_rows(self, rows: np.ndarray):
        """Positions/layout of the concatenated adjacency entries of ``rows``.

        Returns ``(pos, local_xadj, degs, reps, within)``: global entry
        indices in row-major order, the local row-pointer array over the
        gathered slice, per-row degrees, the row index (into ``rows``) of
        each entry, and each entry's offset within its row.
        """
        xadj = np.asarray(self.xadj)
        starts = xadj[rows]
        degs = (xadj[rows + 1] - starts).astype(np.int64)
        local = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(degs, out=local[1:])
        reps = np.repeat(np.arange(len(rows), dtype=np.int64), degs)
        within = np.arange(int(local[-1]), dtype=np.int64) - local[reps]
        return starts[reps] + within, local, degs, reps, within

    def max_degree(self) -> int:
        """Maximum vertex degree Δ."""
        return int(self.degrees().max(initial=0))

    def avg_degree(self) -> float:
        """Average degree ``2 m / n``."""
        return self.m_directed / self.n if self.n else 0.0

    def degree_skew(self) -> float:
        """The paper's skew measure ``Δ / (2 m / n)`` (Table I).

        Graphs with skew above :data:`repro.construct.dedup.SKEW_THRESHOLD`
        are treated as *skewed-degree*; the rest as *regular*.
        """
        avg = self.avg_degree()
        return self.max_degree() / avg if avg > 0 else 0.0

    def total_edge_weight(self) -> float:
        """Sum of undirected edge weights (each edge counted once)."""
        return float(self.ewgts.sum()) / 2.0

    def total_vertex_weight(self) -> float:
        """Sum of vertex weights (invariant across coarsening levels)."""
        return float(self.vwgts.sum())

    # -- validation ------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`~repro.csr.validation.GraphValidationError` on defects.

        Checks the full graph model: monotonic ``xadj``, in-range and
        sorted adjacency rows, symmetry, no self-loops, finite positive
        weights.  The raised error carries structured ``findings`` (one
        dict per violated invariant); use
        :func:`repro.csr.validation.find_defects` to collect them without
        raising.
        """
        from .validation import validate_graph

        validate_graph(self)

    # -- out-of-core backing ---------------------------------------------------

    def to_mapped(self, path) -> "CSRGraph":
        """Write this graph to a mapped directory and reopen it from disk.

        The returned graph's arrays are read-only ``np.memmap`` views —
        byte-identical values, out-of-core backing.  See
        :mod:`repro.storage.mapped` for the directory format.
        """
        from ..storage import mapped

        mapped.write_mapped(self, path)
        return mapped.open_mapped(path)

    @classmethod
    def from_mapped(cls, path) -> "CSRGraph":
        """Open a mapped directory written by :meth:`to_mapped`, zero-copy."""
        from ..storage import mapped

        return mapped.open_mapped(path)

    # -- conversions -----------------------------------------------------------

    def to_coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(src, dst, wgt)`` arrays covering all 2m directed entries."""
        return self.edge_sources(), self.adjncy.copy(), self.ewgts.copy()

    def to_scipy(self):
        """Return the adjacency matrix as a ``scipy.sparse.csr_array``."""
        import scipy.sparse as sp

        return sp.csr_array(
            (self.ewgts, self.adjncy, self.xadj), shape=(self.n, self.n)
        )

    def with_name(self, name: str) -> "CSRGraph":
        """Return a copy of this graph relabelled with ``name``."""
        return CSRGraph(self.xadj, self.adjncy, self.ewgts, self.vwgts, name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return f"<CSRGraph{label} n={self.n} m={self.m}>"
