"""CSR graph substrate: container, builders, components, ops, and I/O."""

from .build import empty, from_edge_list, from_scipy, preprocess
from .components import connected_components, is_connected, largest_component
from .graph import CSRGraph
from .io import load_npz, read_edge_list, read_matrix_market, save_npz, write_matrix_market
from .ops import degree_histogram, induced_subgraph, laplacian_csr, permute
from .update import EdgeDelta, apply_edges
from .validation import GraphValidationError, find_defects, validate_graph as validate

__all__ = [
    "CSRGraph",
    "EdgeDelta",
    "apply_edges",
    "empty",
    "from_edge_list",
    "from_scipy",
    "preprocess",
    "connected_components",
    "is_connected",
    "largest_component",
    "read_matrix_market",
    "write_matrix_market",
    "read_edge_list",
    "save_npz",
    "load_npz",
    "permute",
    "induced_subgraph",
    "laplacian_csr",
    "degree_histogram",
    "validate",
    "GraphValidationError",
    "find_defects",
]
