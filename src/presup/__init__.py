"""A dependent type theory kernel with a presupposition operator.

Terms carry `require` nodes for presupposed content (pronouns, definite
descriptions); the typechecker produces explicit derivations, branching over
every witness the solver finds in the discourse context; elaboration rewrites
each derivation into a require-free term of the same type.  A small
controlled-English frontend composes meanings for the covered fragment.
"""

from .derivations import (
    CheckConfig,
    Derivation,
    InvalidDerivation,
    Judgment,
    to_json,
    to_json_dict,
    validate,
)
from .elaborate import elaborate, elaborate_all
from .evaluator import (
    EvalError,
    NonTermination,
    StuckTerm,
    UnresolvedRequire,
    convertible,
    eval_closed,
    normalize,
)
from .frontend import (
    Conditional,
    DetNP,
    DiscourseTree,
    ParseError,
    PronNP,
    RelClause,
    Simple,
    interpret,
    parse_context_text,
    parse_discourse,
    parse_signature_text,
    parse_term,
)
from .lexicon import LexEntry, UnknownWord, base_signature, entry, explicit_the, validate_entries
from .solver import Solution, enumerate_spines, solve
from .syntax import (
    App,
    Const,
    Context,
    Fst,
    Lam,
    Let,
    Pair,
    Pi,
    Require,
    Sigma,
    Signature,
    Snd,
    Telescope,
    Term,
    Universe,
    Var,
    alpha_eq,
    alpha_key,
    contains_require,
    format_term,
    free_vars,
    substitute,
)
from .typecheck import (
    BinderEscape,
    BudgetExceeded,
    CannotInfer,
    DuplicateName,
    IllTypedEntry,
    NotAFunction,
    NotAPair,
    NotAType,
    TypeCheckError,
    TypeMismatch,
    UnboundName,
    UnresolvedPresupposition,
    check_all,
    check_context,
    check_entry,
    check_signature,
    infer_all,
)

__all__ = [name for name in dir() if not name.startswith("_")]
