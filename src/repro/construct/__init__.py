"""Coarse-graph construction strategies (Algorithm 6 and alternatives)."""

from .base import (
    available_constructors,
    coarse_vertex_weights,
    finalize_csr,
    get_constructor,
    mapped_cross_edges,
    register_constructor,
)
from .dedup import SKEW_THRESHOLD, is_skewed
from .global_sort import construct_global_sort
from .heap_dedup import construct_heap
from .reference import construct_reference
from .spgemm import CSRMatrix, spgemm, spgemm_rowwise_reference, transpose
from .spgemm_construct import aggregation_matrix, construct_spgemm
from .vertex_hash import construct_hash
from .vertex_sort import construct_sort

__all__ = [
    "available_constructors",
    "get_constructor",
    "register_constructor",
    "mapped_cross_edges",
    "coarse_vertex_weights",
    "finalize_csr",
    "SKEW_THRESHOLD",
    "is_skewed",
    "construct_sort",
    "construct_hash",
    "construct_spgemm",
    "aggregation_matrix",
    "construct_global_sort",
    "construct_heap",
    "construct_reference",
    "CSRMatrix",
    "spgemm",
    "spgemm_rowwise_reference",
    "transpose",
]
