"""Out-of-core CSR storage engine.

Three pieces turn the in-memory corpus into something that scales past
RAM without changing a single result byte:

* :mod:`repro.storage.mapped` — a directory format for CSR graphs
  (``manifest.json`` + one raw binary file per array) opened as
  read-only ``np.memmap`` views behind the ordinary
  :class:`~repro.csr.graph.CSRGraph` interface
  (``CSRGraph.to_mapped()`` / ``CSRGraph.from_mapped()``).
* :mod:`repro.storage.budget` — a thread-local resident-memory budget;
  the row-window driver (:func:`repro.parallel.tiles.row_window_map`)
  runs a kernel in budget-sized windows when its transient working set
  would exceed it.
* :mod:`repro.storage.chunked` — the shared streaming machinery:
  row-aligned edge windows, disk spill buffers, an external merge sort
  that reproduces ``np.sort`` bit-exactly, and streamed run-length
  dedup.

:class:`repro.storage.store.GraphStore` materialises mapped graphs
straight into the PR-1 artifact cache as directory entries — no full
in-memory detour.
"""

from .budget import MemoryBudget, current, limit, parse_budget
from .mapped import (
    MappedWriter,
    advise_dontneed,
    is_mapped,
    mapped_nbytes,
    open_mapped,
    write_mapped,
)
from .store import GraphStore

__all__ = [
    "GraphStore",
    "MappedWriter",
    "MemoryBudget",
    "advise_dontneed",
    "current",
    "is_mapped",
    "limit",
    "mapped_nbytes",
    "open_mapped",
    "parse_budget",
    "write_mapped",
]
