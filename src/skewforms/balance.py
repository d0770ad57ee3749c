"""Evolutionary relations built from balance-law action coefficients.

Given coordinates xi^1..xi^n (xi^1 along the trajectory) and action
coefficients A_mu, the 1-form omega = A_mu d(xi^mu) carries the relation
d(psi) = omega.  Inconsistent energy and force actions show up as a
nonzero commutator, making the relation nonidentical; the equilibrium scan
looks for the locus where the commutator vanishes and the relation becomes
identical in the restricted sense.
"""

from __future__ import annotations

from .expr import Expression, VariableSet, _Record
from .forms import DifferentialForm, exterior_derivative, pullback, zero_verdict
from .duality import Metric
from .analysis import (
    DEFAULT_TOL,
    Relation,
    StructureReport,
    classify_closure,
    classify_relation,
    find_pseudostructure,
)

__all__ = ["BalanceSystem", "EvolutionaryRelation", "EquilibriumReport",
           "build_relation", "equilibrium_scan"]


class BalanceSystem(_Record):
    """Action coefficients over trajectory coordinates; A_1 is the energy
    action and the remaining entries are force actions (labels only)."""

    __slots__ = __match_args__ = ("vars", "actions", "psi")

    def __init__(self, vars: VariableSet, actions: tuple[Expression, ...], psi: Expression | None = None):
        self.vars, self.actions, self.psi = vars, tuple(actions), psi
        if len(self.actions) != vars.dimension:
            raise ValueError("one action coefficient per coordinate is required")


class EvolutionaryRelation(_Record):
    """commutator is d(omega); verdict is "identical", "nonidentical" or "unknown"."""

    __slots__ = __match_args__ = ("system", "omega", "commutator", "verdict", "relation", "psi", "notes")

    def __init__(self, system: BalanceSystem, omega: DifferentialForm, commutator: DifferentialForm,
                 verdict: str, relation: Relation | None, psi: Expression | None, notes: str = ""):
        self.system, self.omega, self.commutator, self.verdict = system, omega, commutator, verdict
        self.relation, self.psi, self.notes = relation, psi, notes


def build_relation(system: BalanceSystem) -> EvolutionaryRelation:
    """Assemble omega = A_mu d(xi^mu) and classify d(psi) = omega.

    Nonidentical whenever any commutator component is nonzero.  Without a
    given psi, the verdict is that of ``classify_closure(omega)``: identical
    when omega is exact, with its potential as the state functional.
    """
    omega = DifferentialForm.one_form(system.vars, system.actions)
    if system.psi is not None:
        relation = classify_relation(DifferentialForm.scalar(system.vars, system.psi), omega)
        return EvolutionaryRelation(system, omega, relation.eta_commutator, relation.verdict,
                                    relation, system.psi)

    closure = classify_closure(omega)
    comm, psi = closure.derivative, closure.potential
    if closure.exact == "exact":
        relation = Relation(DifferentialForm.scalar(system.vars, psi), omega, "identical",
                            closure.residual, comm)
        return EvolutionaryRelation(system, omega, comm, "identical", relation, psi,
                                    "state functional reconstructed by homotopy integration")
    if closure.closed == "unclosed":
        return EvolutionaryRelation(system, omega, comm, "nonidentical", None, None)
    notes = ""
    if closure.closed == "closed":
        notes = "commutator vanishes but no state functional was reconstructed"
    return EvolutionaryRelation(system, omega, comm, "unknown", None, None, notes)


class EquilibriumReport(_Record):
    """A pseudostructure report relabeled in balance-law vocabulary;
    identity_on_locus is the zero verdict of d_pi(psi) - omega_pi."""

    __slots__ = __match_args__ = ("structure", "label", "identity_on_locus")

    def __init__(self, structure: StructureReport, label: str, identity_on_locus: str | None = None):
        self.structure, self.label, self.identity_on_locus = structure, label, identity_on_locus


def equilibrium_scan(relation: EvolutionaryRelation, box, grid,
                     tol: float = DEFAULT_TOL) -> EquilibriumReport:
    """Scan for the locally-equilibrium locus of an evolutionary relation.

    Delegates to the pseudostructure detector on omega; when psi is known
    and a symbolic locus was found, verifies the restricted identity
    d_pi(psi) = omega_pi by pullback comparison.
    """
    structure = find_pseudostructure(relation.omega, Metric.euclidean(relation.omega.vars),
                                     box, grid, tol)
    kind = structure.locus.kind
    if kind == "whole_box":
        label = "whole box in locally-equilibrium state"
    elif kind == "empty":
        label = "state remains nonequilibrium (no structure realized)"
    else:
        label = "locally equilibrium pseudostructure realized"

    identity = None
    if relation.psi is not None and structure.chart is not None:
        psi_form = DifferentialForm.scalar(relation.omega.vars, relation.psi)
        lhs = pullback(exterior_derivative(psi_form), structure.chart)
        rhs = structure.restricted_form
        identity = zero_verdict(lhs - rhs)
    return EquilibriumReport(structure, label, identity)
