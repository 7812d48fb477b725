"""Workbench for promise constraint satisfaction over symmetric ternary templates."""

from .errors import (
    ArityBoundError,
    FormatError,
    PcspError,
    SignatureMismatchError,
    TimeBudgetExceeded,
    UnsupportedTargetError,
)
from .homs import (
    HomLattice,
    HomMap,
    check_coloring,
    find_homomorphism,
    hom_exists,
    hom_lattice,
    hom_order_compare,
    lattice_to_dot,
)
from .polymorphisms import (
    MinorMap,
    PolyTable,
    enumerate_polymorphisms,
    is_polymorphism,
)
from .properties import (
    PROPERTY_CATALOG,
    SELECTOR_CATALOG,
    KneserGraph,
    PropertyReport,
    SelectorSpec,
    check_properties,
    chromatic_number,
    kneser_graph,
    verify_selector,
)
from .solvers import (
    GF3System,
    Instance,
    IntAffineSystem,
    classify_template,
    gauss_gf3,
    generate_planted,
    hnf_solve,
    solve_nae,
    solve_t2,
    solve_via_relaxation,
)
from .structures import (
    Digraph,
    RelStructure,
    TemplatePair,
    associated_digraph,
    automorphisms,
    make_structure,
    named_template,
    plus_closure,
    symmetrize,
)
from .symmetric import (
    BlockSymTable,
    PropagationTrace,
    SymTable,
    chplus23_certificate,
    is_block_symmetric_polymorphism,
    is_symmetric_polymorphism,
    propagate,
    restrict_block_to_symmetric,
    search_block_symmetric,
    search_symmetric,
    sym_compatible_triples,
)

__version__ = "0.1.0"
