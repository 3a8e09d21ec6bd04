"""Mapped-graph entries in the artifact cache — no in-memory detour.

A :class:`GraphStore` wraps the PR-1 :class:`~repro.cache.store.ArtifactCache`
with directory artifacts (``<key>.csrdir``): the builder streams a
mapped CSR directory straight into a temp path inside the cache root
(via :class:`~repro.storage.mapped.MappedWriter`), the cache renames it
into place atomically and records a directory-aware checksum in the
sidecar.  Loads come back as zero-copy memmapped
:class:`~repro.csr.graph.CSRGraph` instances; corruption, staleness and
concurrent generation are handled by the cache exactly as for ``.npz``
entries (quarantine + rebuild under the per-entry file lock).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from ..cache import ArtifactCache
from ..csr.graph import CSRGraph
from .mapped import MAPPED_EXT, open_mapped

__all__ = ["GraphStore"]


class GraphStore:
    """Out-of-core graphs materialised directly into an artifact cache."""

    def __init__(self, cache: ArtifactCache):
        self.cache = cache

    def get_or_build(
        self,
        key: str,
        fingerprint: str,
        build: Callable[[Path], None],
        *,
        name: str | None = None,
    ) -> CSRGraph:
        """The mapped graph for ``key``, building it on disk if needed.

        ``build(tmp_dir)`` must materialise a complete mapped directory
        at ``tmp_dir`` (typically by writing through a
        :class:`~repro.storage.mapped.MappedWriter`); it runs under the
        entry's inter-process lock, so concurrent callers build once.
        """
        return self.cache.get_or_create_path(
            key,
            fingerprint,
            build,
            lambda path: open_mapped(path, name=name),
            ext=MAPPED_EXT,
        )
