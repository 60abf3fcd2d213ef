"""cyclestab: exact cycle spectra, stability decompositions, and Ramsey
coloring sweeps on graphs of at most 64 vertices."""

from ._kernel import backend_name
from .graph import (
    Graph,
    bipartition,
    build_graph,
    complement,
    components,
    cut_vertices,
    induced,
    is_clique,
    is_complete_bipartite_between,
    is_independent,
)
from .formats import parse_graph, serialize_graph
from .cycles import (
    BoundReport,
    SpectrumReport,
    check_bollobas_pancyclicity,
    check_erdos_gallai,
    check_fan_lv_weng,
    cycle_of_length,
    cycle_spectrum,
    longest_cycle,
)
from .paths import (
    PathWitness,
    bipartite_even_cycle,
    bipartite_path,
    hamiltonian_path_between,
    near_spanning_paths,
)
from .coloring import TwoColoring, parse_coloring, serialize_coloring
from .stability import (
    DecompositionParams,
    StabilityCertificate,
    decompose_three_parts,
    decompose_two_parts,
    decompose_vertex_split,
    verify_stability_certificate,
)
from .ramsey import (
    RamseyCertificate,
    extract_biclique_partition,
    mono_even_cycle,
    pancyclic_color_verdict,
    ramsey_certificate,
    ramsey_sweep,
    verdict_sample_sweep,
    verify_ramsey_certificate,
)

__version__ = "0.1.0"
