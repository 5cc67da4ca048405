"""Exact computation of stable commutator length in free products of free
abelian groups, through rational flow polyhedra.

The package is organized around the pipeline word -> flow cones ->
paired-flow linear program, with exact rational arithmetic end to end:

- words: the block-exponent parametrization of words and its grammar
- linprog: exact simplex and a vertex-enumeration oracle
- graphs: multi-digraphs, flows, abstraction, positive flows
- cones: disc vectors, essential and extremal classification, rays
- engine: Klein function values, the scl linear program and the conjecture check
- bounds: combinatorial lower bound, maximizing words, generic sampling
- hardness: subset-sum variants and the reduction chain to scl queries
- synth: extremal points with a prescribed abstract graph
- acceptance: the scorecard battery behind `scl verify`
"""

from .bounds import (
    generic_check,
    lower_bound,
    min_vanishing,
    sample_generic_word,
    universal_word,
    upper_bound_C,
)
from .cones import (
    clear_caches,
    cone_spec,
    enumerate_disc_vectors,
    extremal_rays,
    in_cone,
    is_disc_vector,
    is_essential,
    is_extremal,
    weight_vector,
)
from .engine import (
    SclResult,
    conjecture_check,
    klein_value,
    pair_flow,
    scl,
)
from .errors import (
    InputError,
    InternalCheckError,
    LimitExceeded,
    ParseError,
    PromiseViolation,
    SclflowError,
)
from .graphs import (
    Flow,
    MDGraph,
    abstract_flow,
    abstract_graph,
    connectivity,
    cycle_flow,
    hamiltonian_cycles,
    mdgraph,
    positive_flow,
    removable_edge,
)
from .hardness import (
    SubsetInstance,
    append_balance,
    build_table,
    collapse,
    decide_small_scl,
    essential_gadget,
    instance,
    j_pair_certificate,
    reduce_ss_to_smallscl,
    small_scl_instance,
    solve_subset,
)
from .linprog import LinearProgram, LPResult, enumerate_vertices, make_lp, resume_lp, solve_lp
from .synth import lemma_numbers, synthesize_extremal
from .words import ExponentMatrix, Word, make_word, parse_word, reduced_length, render_word

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
