"""Evolutionary relations built from balance-law action coefficients.

Given coordinates xi^1..xi^n (xi^1 along the trajectory) and action
coefficients A_mu, the 1-form omega = A_mu d(xi^mu) carries the relation
d(psi) = omega.  Inconsistent energy and force actions show up as a
nonzero commutator, making the relation nonidentical; the equilibrium scan
looks for the locus where the commutator vanishes and the relation becomes
identical in the restricted sense.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import Expression, VariableSet
from .forms import DifferentialForm, commutator, exterior_derivative, pullback, zero_verdict
from .duality import Metric
from .analysis import (
    Relation,
    StructureReport,
    classify_relation,
    find_pseudostructure,
    reconstruct_potential,
)

__all__ = ["BalanceSystem", "EvolutionaryRelation", "EquilibriumReport",
           "build_relation", "equilibrium_scan"]


@dataclass
class BalanceSystem:
    """Action coefficients over trajectory coordinates; A_1 is the energy
    action and the remaining entries are force actions (labels only)."""

    vars: VariableSet
    actions: tuple[Expression, ...]
    psi: Expression | None = None

    def __post_init__(self):
        self.actions = tuple(self.actions)
        if len(self.actions) != self.vars.dimension:
            raise ValueError("one action coefficient per coordinate is required")


@dataclass
class EvolutionaryRelation:
    system: BalanceSystem
    omega: DifferentialForm
    commutator: DifferentialForm      # d(omega)
    verdict: str                      # "identical" | "nonidentical" | "unknown"
    relation: Relation | None
    psi: Expression | None
    notes: str = ""


def build_relation(system: BalanceSystem) -> EvolutionaryRelation:
    """Assemble omega = A_mu d(xi^mu) and classify d(psi) = omega.

    Nonidentical whenever any commutator component is nonzero.  Without a
    given psi, an identical verdict requires a reconstructed state
    functional that verifies d(psi) = omega symbolically.
    """
    omega = DifferentialForm.one_form(system.vars, system.actions)
    if system.psi is not None:
        relation = classify_relation(DifferentialForm.scalar(system.vars, system.psi), omega)
        return EvolutionaryRelation(system, omega, relation.eta_commutator, relation.verdict,
                                    relation, system.psi)

    comm = commutator(omega)
    comm_verdict = zero_verdict(comm)
    notes: list[str] = []

    if comm_verdict == "nonzero":
        return EvolutionaryRelation(system, omega, comm, "nonidentical", None, None)

    if comm_verdict == "zero":
        psi = reconstruct_potential(omega)
        if psi is not None:
            # d(omega) is known to vanish: only the residual is left to test
            psi_form = DifferentialForm.scalar(system.vars, psi)
            residual = exterior_derivative(psi_form) - omega
            if zero_verdict(residual) == "zero":
                relation = Relation(psi_form, omega, "identical", residual, comm)
                notes.append("state functional reconstructed by homotopy integration")
                return EvolutionaryRelation(system, omega, comm, "identical",
                                            relation, psi, "; ".join(notes))
        notes.append("commutator vanishes but no state functional was reconstructed")
        return EvolutionaryRelation(system, omega, comm, "unknown", None, None,
                                    "; ".join(notes))

    return EvolutionaryRelation(system, omega, comm, "unknown", None, None)


@dataclass
class EquilibriumReport:
    """A pseudostructure report relabeled in balance-law vocabulary."""

    structure: StructureReport
    label: str
    identity_on_locus: str | None = None   # zero-verdict of d_pi(psi) - omega_pi


def equilibrium_scan(relation: EvolutionaryRelation, box, grid,
                     tol: float = 1e-6) -> EquilibriumReport:
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
