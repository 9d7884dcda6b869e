"""Nondeterministic top-down tree transducers, the constructions that decide
functionality of their compositions at bounded scale, and a small definition
language with text/JSON/DOT renderers."""

from .constructions import (
    BuildReport,
    CompositionChain,
    build_hat_t1,
    build_m,
    compose_linear_nondeleting,
    decompose_la,
    domain_automaton,
    p_construction,
    reduce_chain,
)
from .decision import (
    DerivationTrace,
    Verdict,
    chain_outputs,
    check_functional_bounded,
    decide_functionality,
    trace_derivation,
)
from .errors import (
    AlphabetMismatch,
    ChainTooShort,
    InvalidAddress,
    NotLinearNondeleting,
    ResourceLimit,
    TtcError,
    TtcSyntaxError,
    UnknownState,
    ValidationError,
    ValidationWarning,
)
from .machines import (
    LookaheadTransducer,
    Rule,
    StateId,
    Transducer,
    enumerate_satisfying,
    enumerate_trees,
)
from .textform import Workspace, parse_workspace
from .trees import (
    AnnotatedSymbol,
    NodeAddress,
    PlaceholderLeaf,
    RankedAlphabet,
    StateOverNode,
    StateOverVariable,
    Tree,
    parse_tree,
    sort_trees,
    subtree_at,
)

__version__ = "0.1.0"
