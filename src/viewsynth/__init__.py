"""View synthesis from schema mappings.

Given mappings relating source queries to target queries, decide whether
one view per source symbol exists making every source query a nonempty
sound (or exact) rewriting of its target query, and produce such views.
Covers regular path queries (congruence-class search) and (unions of)
conjunctive queries (bounded candidate search), plus containment of
two-way path queries via folding.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    CapExceeded,
    InputError,
    ParseError,
    ViewSynthError,
)
from .model import (
    Atom,
    CQ,
    Mapping,
    ProblemInstance,
    Regex,
    SymbolId,
    UCQ,
)
from .parser import parse_cq, parse_instance, parse_regex, parse_ucq, parse_views
from .automata import (
    NWA,
    accepts,
    compile_regex,
    complement,
    contains,
    determinize,
    difference_witness,
    eliminate_epsilon,
    equivalent,
    is_empty,
    nwa_to_regex,
    product,
    substitute,
    to_dot,
)
from .congruence import (
    TransitionMonoid,
    class_automaton,
    class_of,
    relation_of_word,
    transition_monoid,
)
from .report import CaptureResult, Check, SynthesisReport
from .rpq_synth import (
    capture_check,
    maximize,
    realize_views,
    reduce_to_single_mapping,
    synthesize,
    synthesize_exact,
    synthesize_sound,
    views_to_regex,
)
from .cq_synth import (
    SynthesisBounds,
    capture_check_cq,
    cq_substitute,
    find_hom,
    synthesize_cq,
    ucq_contains,
)
from .twoway import (
    TwoNWA,
    contains_2rpq,
    fold_automaton,
    folds_onto,
    two_to_one,
)
from .oracle import (
    GraphDatabase,
    RelInstance,
    brute_view_existence_rpq,
    canonical_db,
    coherence_soundness_sample,
    eval_2rpq,
    eval_rpq,
    eval_ucq,
    parse_graph,
)
