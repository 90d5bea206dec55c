"""Workbench for implication semigroups: syntactic decision procedures for
the sixteen subvarieties, exact finite-model oracles, reconstruction of the
subvariety lattice, exhaustive small-order censuses and replay of equational
derivations."""

from .terms import (
    Arrow,
    Identity,
    Mode,
    ParseError,
    TreeTerm,
    Var,
    Word,
    ZERO,
    Zero,
    contains_square,
    content,
    length,
    los,
    normalize_is,
    parse_identity,
    parse_term,
    parse_word,
    substitute,
    substitute_term,
)
from .models import (
    AxiomViolationError,
    FiniteAlgebra,
    SatResult,
    VerificationError,
    builtin,
    check_axioms,
    direct_product,
    evaluate,
    is_isomorphic,
    load_algebra,
    make_algebra,
    parse_algebra,
    rees_quotient,
    render_algebra,
    satisfies,
    subalgebra_generated,
    subdirect_check,
)
from .varieties import (
    Variety,
    VarietyRecord,
    decide,
    exhaustive_identity_words,
    record,
    registry,
    variety_by_name,
    variety_of,
)
from .lattice import (
    FiniteLattice,
    LatticeError,
    build_lattice,
    find_n5,
    is_distributive,
    is_zero_distributive,
    neutral_elements,
)
from .enumeration import (
    EnumerationReport,
    canonical_form,
    classify,
    enumerate_algebras,
    render_report,
)
from .derivations import (
    Direction,
    Kind,
    ReplayResult,
    Rule,
    Script,
    Step,
    StepError,
    apply_step,
    load_script,
    parse_script,
    render_script,
    replay,
    shipped_scripts,
)

__version__ = "0.1.0"
