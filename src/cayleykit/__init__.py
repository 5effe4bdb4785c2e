"""Minimal one-class generating sets of symmetric groups and the structure
of their Cayley graphs: constructions, automorphism groups, cycle factors
and quasi-hamiltonicity, and spectra."""

from .perms import CycleType, Permutation, analyze, in_extended_class
from .groups import (
    OrbitPartition,
    StabilizerChain,
    build_chain,
    enumerate_elements,
    generates,
    orbits,
)
from .gensets import (
    BalanceCertificate,
    GeneratorSet,
    brute_force_f,
    construct,
    construct_basic_tree,
    construct_cycle_pair,
    construct_cycle_tree,
    construct_general,
    eulerian_circuit_complete,
    extend_tree,
    f_lower_bound,
    general_plan,
    predicates,
    split_divisor,
)
from .graphs import (
    SimpleGraph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    export_dot,
    export_edge_list,
    import_edge_list,
    path_graph,
    petersen_graph,
)
from .cayley import (
    CayleyGraph,
    build_cayley,
    commutator_cycle,
    commuting_4cycle,
    count_4cycles_through,
    cycle_graph_of,
    is_normal,
    walk_in_graph,
)
from .quasiham import (
    CycleFactor,
    FlowNetwork,
    QuasiHamiltonian,
    brute_cycle_factor,
    brute_hamiltonian,
    coset_partition,
    cycle_factor_forced,
    hamiltonian_via_qh,
    is_k_quasi_hamiltonian,
    qh_report,
)
from .spectral import (
    SpectrumReport,
    check_regular_spectrum,
    jacobi_eigensystem,
    second_eigenvalue_comparison,
    spectrum_topk,
)
from .automorphisms import (
    AutReport,
    GraphAutomorphism,
    aut_snt,
    graph_aut_order,
    verify_order_identity,
)
from . import errors, numth

__version__ = "0.1.0"
