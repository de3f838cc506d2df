"""Entanglement of directed-graph qubit states.

Two independent routes to the same numbers: exact state-vector simulation of
graph states built from diagonal edge operators, and closed forms that depend
on nothing but the graph's degree distribution.  The package keeps both so
every closed form can be checked against the brute-force oracle.
"""

from .density import vertex_eigenvalues, vertex_entropy, vertex_hs2
from .entanglement import (
    ed_binary_tree,
    ed_binary_tree_limit,
    ed_bridged_cycles,
    ed_closed_form,
    ed_closed_general,
    ed_ffnn,
    ed_ffnn_output_self_exponent,
    ed_young_fibonacci,
    ed_young_fibonacci_limit,
    interaction_expectation,
    pauli_vector_closed,
    vertex_share,
)
from .graphs import (
    DegreeDistribution,
    DirectedGraph,
    bridged_cycles_degree_counts,
    degree_distribution,
    ffnn_degree_counts,
    flip_edge,
    from_json,
    full_binary_tree_degree_counts,
    gen_bridged_cycles,
    gen_ffnn,
    gen_full_binary_tree,
    gen_young_fibonacci,
    load_graph,
    permute_vertices,
    random_graph,
    save_graph,
    to_json,
    young_fibonacci_degree_counts,
)
from .statevector import (
    DEFAULT_MAX_QUBITS,
    EdReport,
    build_graph_state,
    ed_numeric,
    pauli_vectors,
    product_state,
)
from .verify import VerificationReport, ffnn_variant_report, run_verification

__version__ = "0.1.0"
