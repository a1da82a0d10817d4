"""First-order logic kernel built on simultaneous index substitution.

The pieces: concrete syntax and parsing (:mod:`folkit.syntax`), the
substitution calculus (:mod:`folkit.subst`), Hilbert-style axiom
recognition and proof checking (:mod:`folkit.proof`), finite-structure
semantics with countermodel search (:mod:`folkit.semantics`), and a
scriptable command line (:mod:`folkit.cli`).
"""

from .syntax import (
    EQ_NAME,
    FALSE,
    FALSE_NAME,
    App,
    Atom,
    Forall,
    Formula,
    Implies,
    Param,
    ParseError,
    Signature,
    Term,
    Var,
    check_formula,
    check_term,
    has_params,
    parse_formula,
    parse_signature,
    parse_term,
    print_formula,
    print_term,
)
from .subst import (
    IDENTITY,
    SHIFT_DOWN,
    SHIFT_UP,
    Substitution,
    compose,
    forall_n,
    forall_var,
    free_vars,
    has_rank,
    instantiate,
    is_independent,
    lift,
    min_rank,
    neg,
    parse_substitution,
    print_substitution,
    shift_down,
    shift_up,
    single,
    single_subst,
    subst_formula,
    subst_term,
    swap_front,
)
from .proof import (
    EMPTY_THEORY,
    AxiomTag,
    ByAxiom,
    ByHyp,
    ByInd,
    ByMP,
    Proof,
    ProofLine,
    Theory,
    Verdict,
    arith_signature,
    arith_theory,
    axiom_from_tag,
    check_proof,
    induction_sentence,
    is_axiom,
    match_a5,
    parse_proof,
    parse_theory,
    print_proof,
    print_theory,
)
from .semantics import (
    DEFAULT_CEILING,
    AuditReport,
    EvalError,
    SearchLimit,
    Structure,
    count_structures,
    enumerate_structures,
    eval_formula,
    eval_term,
    find_countermodel,
    induced_valuation_check,
    parse_env,
    parse_model,
    print_model,
)

__version__ = "0.1.0"
