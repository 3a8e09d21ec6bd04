"""The 20-graph evaluation corpus (Table I) as synthetic stand-ins.

Each paper graph gets a generator matched on *structure class* and
*degree skew* at ~1/1000 scale (see DESIGN.md for the substitution
rationale).  Paper-scale ``(n, m)`` ride along as metadata: the memory /
OOM simulation projects a scaled run's working set to paper scale
through the ratio of the size measures.

Graphs are cached on disk (``.graph_cache/`` next to the repo) so the
benchmark suites do not pay generation on every process start.
"""

from __future__ import annotations

import inspect
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from ..cache import ArtifactCache, fingerprint_payload
from ..csr.graph import CSRGraph
from ..csr.io import load_npz, save_npz
from .delaunay import delaunay_graph
from .kron import rmat
from .mesh import grid3d
from .mycielskian import mycielskian
from .powerlaw import ba_tree, chung_lu, watts_strogatz
from .road import road_like
from .rgg import random_geometric
from .tiers import TIER_SCALES, TIER_SCHEMA, materialize_tier, parse_tier_name, tier_name

__all__ = [
    "GraphSpec",
    "CORPUS",
    "REGULAR",
    "SKEWED",
    "TIER_SCALES",
    "load",
    "load_tier",
    "corpus_table",
    "memory_scale",
]


@dataclass(frozen=True)
class GraphSpec:
    """One Table-I row: stand-in generator plus paper-scale metadata."""

    name: str
    domain: str
    group: str  # "regular" | "skewed"
    paper_m: int
    paper_n: int
    paper_skew: float
    factory: Callable[[int], CSRGraph]

    def generate(self, seed: int = 0) -> CSRGraph:
        return self.factory(seed).with_name(self.name)

    @property
    def paper_size_measure(self) -> int:
        return 2 * self.paper_m + self.paper_n


CORPUS: list[GraphSpec] = [
    # ---- regular group (ordered by paper size measure, as in Table I) ----
    GraphSpec("HV15R", "cfd", "regular", 162_357_569, 2_017_169, 3.1,
              lambda s: grid3d(16, 16, 16, radius=2, kind="box")),
    GraphSpec("rgg24", "syn", "regular", 132_557_200, 16_777_215, 2.5,
              lambda s: random_geometric(16384, avg_degree=15.8, seed=s)),
    GraphSpec("nlpkkt160", "opt", "regular", 110_586_256, 8_345_600, 1.0,
              lambda s: grid3d(20, 20, 20, radius=1, kind="box")),
    GraphSpec("europeOsm", "road", "regular", 54_054_660, 50_912_018, 6.1,
              lambda s: road_like(49152, seed=s)),
    GraphSpec("CubeCoup", "fem", "regular", 62_520_692, 2_164_760, 1.2,
              lambda s: grid3d(14, 14, 14, radius=2, kind="box")),
    GraphSpec("delaunay24", "syn", "regular", 50_331_601, 16_777_216, 4.3,
              lambda s: delaunay_graph(16384, seed=s)),
    GraphSpec("Flan1565", "fem", "regular", 57_920_625, 1_564_794, 1.1,
              lambda s: grid3d(12, 12, 12, radius=2, kind="box")),
    GraphSpec("MLGeer", "sim", "regular", 54_687_985, 1_504_002, 1.0,
              lambda s: grid3d(11, 11, 16, radius=2, kind="box")),
    GraphSpec("cage15", "bio", "regular", 47_022_346, 5_154_859, 2.5,
              lambda s: watts_strogatz(5155, k=18, p=0.15, seed=s)),
    GraphSpec("channel050", "sim", "regular", 42_681_372, 4_802_000, 1.0,
              lambda s: grid3d(17, 17, 17, radius=1, kind="box")),
    # ---- skewed group ----
    GraphSpec("ic04", "www", "skewed", 149_054_854, 7_320_539, 6296.9,
              lambda s: rmat(13, edge_factor=20, a=0.57, b=0.19, c=0.19, seed=s)),
    GraphSpec("Orkut", "soc", "skewed", 117_185_083, 3_072_441, 436.7,
              lambda s: chung_lu(6144, avg_degree=38.0, exponent=2.2, seed=s)),
    GraphSpec("vasStokes4M", "vlsi", "skewed", 97_708_521, 4_344_906, 25.3,
              lambda s: chung_lu(8690, avg_degree=22.5, exponent=2.9, seed=s)),
    GraphSpec("kmerU1a", "bio", "skewed", 66_393_629, 64_678_340, 17.0,
              lambda s: ba_tree(65536, seed=s, bias=0.45)),
    GraphSpec("kron21", "syn", "skewed", 91_040_839, 1_543_901, 1813.7,
              lambda s: rmat(11, edge_factor=30, a=0.57, b=0.19, c=0.19, seed=s)),
    GraphSpec("products", "ecom", "skewed", 61_806_303, 2_385_902, 337.4,
              lambda s: chung_lu(4772, avg_degree=26.0, exponent=2.3, seed=s)),
    GraphSpec("hollywood09", "soc", "skewed", 56_306_653, 1_069_126, 108.9,
              lambda s: chung_lu(3207, avg_degree=35.0, exponent=2.2, seed=s)),
    GraphSpec("mycielskian17", "syn", "skewed", 50_122_871, 98_303, 48.2,
              lambda s: mycielskian(11)),
    GraphSpec("citation", "cit", "skewed", 30_344_439, 2_915_301, 480.4,
              lambda s: chung_lu(5830, avg_degree=10.4, exponent=2.4, seed=s)),
    GraphSpec("ppa", "bio", "skewed", 21_231_776, 576_039, 44.0,
              lambda s: chung_lu(2304, avg_degree=18.4, exponent=2.5, seed=s)),
]

REGULAR = [s for s in CORPUS if s.group == "regular"]
SKEWED = [s for s in CORPUS if s.group == "skewed"]

_BY_NAME = {s.name: s for s in CORPUS}

#: bump only when the .npz array layout itself changes; parameter changes
#: are picked up automatically by the fingerprint below
_NPZ_SCHEMA = 1
# `or` (not a .get default) so REPRO_GRAPH_CACHE="" falls back instead of
# silently making the current directory the cache root
_CACHE_DIR = Path(
    os.environ.get("REPRO_GRAPH_CACHE")
    or Path(__file__).resolve().parents[3] / ".graph_cache"
)

_CACHES: dict[Path, ArtifactCache] = {}


def _get_cache() -> ArtifactCache:
    """The ArtifactCache for the current ``_CACHE_DIR`` (monkeypatch-friendly)."""
    root = Path(_CACHE_DIR)
    cache = _CACHES.get(root)
    if cache is None:
        cache = _CACHES[root] = ArtifactCache(root)
    return cache


def _cache_key(name: str, seed: int) -> str:
    return f"{name}-s{seed}"


def _fingerprint(spec: GraphSpec, seed: int) -> str:
    """Parameter fingerprint: hashes the factory's *source line*.

    The generator call with all its arguments lives on the CORPUS entry
    line, so editing any parameter changes the fingerprint and the stale
    cache entry is quarantined automatically — no hand-bumped version
    constant to forget.
    """
    try:
        factory_src = " ".join(inspect.getsource(spec.factory).split())
    except (OSError, TypeError):  # no source (REPL, frozen app): fall back
        factory_src = repr(spec.factory)
    return fingerprint_payload(
        {"npz_schema": _NPZ_SCHEMA, "name": spec.name, "seed": seed,
         "factory": factory_src}
    )


def load(name: str, seed: int = 0) -> tuple[CSRGraph, GraphSpec]:
    """Generate (or load from cache) one corpus graph by Table-I name.

    Cached entries are integrity-checked (checksum + parameter
    fingerprint); a corrupt, truncated, or stale entry is quarantined
    and regenerated transparently, and concurrent workers generating the
    same graph serialise on a per-entry file lock so only one pays the
    generation cost.
    """
    base, tier = parse_tier_name(name)
    if tier != "base":
        return load_tier(base, tier, seed=seed)
    spec = _BY_NAME.get(name)
    if spec is None:
        raise KeyError(f"unknown corpus graph {name!r}; known: {[s.name for s in CORPUS]}")
    g = _get_cache().get_or_create(
        key=_cache_key(name, seed),
        fingerprint=_fingerprint(spec, seed),
        generate=lambda: spec.generate(seed),
        save=save_npz,
        load=load_npz,
    )
    return g, spec


def load_tier(base: str, tier: str, seed: int = 0) -> tuple[CSRGraph, GraphSpec]:
    """Load one scale tier of a corpus graph as a mapped (out-of-core) graph.

    The tier artifact is materialised straight into the graph cache as a
    ``.csrdir`` directory (no in-memory detour — see
    :func:`repro.generators.tiers.materialize_tier`) and loaded back as a
    zero-copy memmapped :class:`~repro.csr.graph.CSRGraph`.  The returned
    spec is the base spec renamed ``base@tier``; paper-scale metadata is
    unchanged, so the OOM projection reflects how much closer the tier
    sits to paper scale.
    """
    if tier not in TIER_SCALES:
        raise KeyError(f"unknown scale tier {tier!r}; known: {sorted(TIER_SCALES)}")
    if tier == "base":
        return load(base, seed=seed)
    spec = _BY_NAME.get(base)
    if spec is None:
        raise KeyError(f"unknown corpus graph {base!r}; known: {[s.name for s in CORPUS]}")
    name = tier_name(base, tier)
    tier_spec = replace(spec, name=name)
    fingerprint = fingerprint_payload(
        {
            "tier_schema": TIER_SCHEMA,
            "tier": tier,
            "scale": TIER_SCALES[tier],
            "base": _fingerprint(spec, seed),
        }
    )
    from ..storage.mapped import MAPPED_EXT, open_mapped

    g = _get_cache().get_or_create_path(
        f"{base}-s{seed}-{tier}",
        fingerprint,
        lambda tmp_path: materialize_tier(spec, tier, seed, tmp_path),
        lambda path: open_mapped(path, name=name),
        ext=MAPPED_EXT,
    )
    return g, tier_spec


def memory_scale(g: CSRGraph, spec: GraphSpec) -> float:
    """Paper-scale projection factor for the OOM simulation.

    Clamped below at 1.0: once a graph's real size measure meets or
    exceeds the paper-scale metadata (large tiers), the simulation uses
    the actual array sizes rather than projecting them *down*.
    """
    return max(1.0, spec.paper_size_measure / max(g.size_measure, 1))


def corpus_table(seed: int = 0) -> list[dict]:
    """Table I: the realised corpus with measured sizes and skews."""
    rows = []
    for spec in CORPUS:
        g, _ = load(spec.name, seed)
        rows.append(
            {
                "graph": spec.name,
                "domain": spec.domain,
                "group": spec.group,
                "m": g.m,
                "n": g.n,
                "skew": g.degree_skew(),
                "paper_m": spec.paper_m,
                "paper_n": spec.paper_n,
                "paper_skew": spec.paper_skew,
            }
        )
    return rows
