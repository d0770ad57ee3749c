"""skewforms: a symbolic/numeric engine for skew-symmetric differential forms.

Computes exterior derivatives, commutators and Hodge duals; classifies
forms as closed/exact/inexact and relations as identical/nonidentical;
detects pseudostructures where inexact forms close; and analyzes
balance-law evolutionary relations.  Driven by the ``.forms`` text format
and the ``skewforms`` command-line tool.
"""

from .expr import (
    Expression,
    VariableSet,
    DomainError,
    UnknownVariableError,
    const,
    var,
    sin,
    cos,
    exp,
    ln,
    differentiate,
    substitute,
    evaluate,
    is_zero,
    to_text,
)
from .forms import (
    DifferentialForm,
    Parameterization,
    FormError,
    wedge,
    exterior_derivative,
    commutator,
    pullback,
    zero_verdict,
    form_to_text,
)
from .duality import Metric, hodge_star
from .analysis import (
    AnalysisError,
    ClosureVerdict,
    Relation,
    Locus,
    StructureReport,
    classify_closure,
    classify_relation,
    reconstruct_potential,
    frobenius_test,
    characteristic_curve,
    find_pseudostructure,
    jacobian_determinant,
    stokes_check,
    classification_table,
)
from .balance import (
    BalanceSystem,
    EvolutionaryRelation,
    EquilibriumReport,
    build_relation,
    equilibrium_scan,
)
from .dsl import Document, DslError, parse, print_document

__version__ = "0.1.0"

__all__ = [
    "Expression", "VariableSet", "DomainError", "UnknownVariableError",
    "const", "var", "sin", "cos", "exp", "ln",
    "differentiate", "substitute", "evaluate", "is_zero", "to_text",
    "DifferentialForm", "Parameterization", "FormError",
    "wedge", "exterior_derivative", "commutator", "pullback",
    "zero_verdict", "form_to_text",
    "Metric", "hodge_star",
    "AnalysisError", "ClosureVerdict", "Relation", "Locus", "StructureReport",
    "classify_closure", "classify_relation", "reconstruct_potential",
    "frobenius_test", "characteristic_curve",
    "find_pseudostructure", "jacobian_determinant", "stokes_check",
    "classification_table",
    "BalanceSystem", "EvolutionaryRelation", "EquilibriumReport",
    "build_relation", "equilibrium_scan",
    "Document", "DslError", "parse", "print_document",
    "__version__",
]
