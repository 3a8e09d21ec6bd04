"""Shared fixtures: small graphs with known structure, and a counter of
the refined reads a hierarchy computes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.csr import CSRGraph, from_edge_list


def ring_graph(n: int, weights=None) -> CSRGraph:
    """Cycle 0-1-...-n-1-0."""
    src = np.arange(n)
    dst = (src + 1) % n
    return from_edge_list(n, src, dst, weights, name=f"ring{n}")


def path_graph(n: int, weights=None) -> CSRGraph:
    src = np.arange(n - 1)
    return from_edge_list(n, src, src + 1, weights, name=f"path{n}")


def star_graph(k: int) -> CSRGraph:
    """Hub 0 with k leaves."""
    return from_edge_list(k + 1, np.zeros(k, dtype=int), np.arange(1, k + 1), name=f"star{k}")


def grid_graph(nx: int, ny: int) -> CSRGraph:
    src, dst = [], []
    for i in range(nx):
        for j in range(ny):
            v = i * ny + j
            if i + 1 < nx:
                src.append(v)
                dst.append(v + ny)
            if j + 1 < ny:
                src.append(v)
                dst.append(v + 1)
    return from_edge_list(nx * ny, src, dst, name=f"grid{nx}x{ny}")


def random_connected(n: int, extra: int, seed: int = 0, weighted: bool = True) -> CSRGraph:
    """Ring (guarantees connectivity) plus ``extra`` random chords."""
    rng = np.random.default_rng(seed)
    ring_src = np.arange(n)
    ring_dst = (ring_src + 1) % n
    ex = rng.integers(0, n, size=(extra, 2))
    src = np.concatenate([ring_src, ex[:, 0]])
    dst = np.concatenate([ring_dst, ex[:, 1]])
    w = rng.integers(1, 10, size=len(src)).astype(float) if weighted else None
    return from_edge_list(n, src, dst, w, name=f"rc{n}")


#: the strategies that share the one Algorithm 6 pipeline
VERTEX_CENTRIC = ("sort", "hash", "heap")


def per_vertex_centric(cases):
    """One ``pytest.param`` per ``(id, values)`` case and vertex-centric
    constructor, the constructor's name passed last.  Sort cases keep
    the bare case id, so a test's sort-only ids stay stable."""
    cases = list(cases)
    return [
        pytest.param(*values, c, id=case_id if c == "sort" else f"{case_id}-{c}")
        for c in VERTEX_CENTRIC
        for case_id, values in cases
    ]


def two_triangles() -> CSRGraph:
    """Two triangles joined by one bridge edge: obvious bisection."""
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
    src, dst = zip(*edges)
    return from_edge_list(6, src, dst, name="twotri")


@pytest.fixture
def ring8():
    return ring_graph(8)


@pytest.fixture
def grid6():
    return grid_graph(6, 6)


@pytest.fixture
def star10():
    return star_graph(10)


@pytest.fixture
def rc100():
    return random_connected(100, 150, seed=3)


@pytest.fixture
def rc400():
    return random_connected(400, 700, seed=5)


@pytest.fixture
def kept_computes(monkeypatch) -> list:
    """One entry per bisection or k-way read that computed (plain or
    recorded) instead of replaying what its hierarchy kept."""
    from repro.partition import kway
    from repro.partition import multilevel

    calls = []
    for module, name in ((multilevel, "_bisect"), (kway, "_kway")):
        real = getattr(module, name)

        def counting(*args, _real=real, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls
