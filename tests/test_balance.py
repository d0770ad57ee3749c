"""Balance systems: evolutionary relations and equilibrium scans."""

import random
from pathlib import Path

import pytest

from skewforms import analysis as analysis_module
from skewforms import forms as forms_module
from skewforms.analysis import Relation, classify_relation, reconstruct_potential
from skewforms.dsl import BalanceDecl, parse
from skewforms.expr import (
    VariableSet, ZERO, const, cos, differentiate, evaluate, exp, sin, to_text, var,
)
from skewforms.forms import (
    DifferentialForm, commutator, exterior_derivative, form_to_text, zero_verdict,
)
from skewforms.balance import BalanceSystem, EvolutionaryRelation, build_relation, equilibrium_scan

from conftest import VARSETS, random_polynomial

BALANCE_FILE = Path(__file__).parent / "data" / "balance2d.forms"
XI = VariableSet(["xi1", "xi2"])
xi1, xi2 = var("xi1"), var("xi2")
BOX = [(-1.0, 1.0), (-1.0, 1.0)]


class TestBuildRelation:
    def test_symmetric_coefficients_identical(self):
        rel = build_relation(BalanceSystem(XI, (xi2, xi1)))
        assert rel.verdict == "identical"
        assert rel.psi == xi1 * xi2
        lhs = exterior_derivative(DifferentialForm.scalar(XI, rel.psi))
        assert lhs == rel.omega

    def test_reconstructed_relation_differentiates_omega_once(self, monkeypatch):
        degrees = []

        def counted(form, eta=None):
            degrees.append(form.degree)
            return derivative_minus(form, eta)

        # every d, and the residual d(phi) - eta, differentiates through this one helper
        derivative_minus = forms_module._derivative_minus
        monkeypatch.setattr(forms_module, "_derivative_minus", counted)
        monkeypatch.setattr(analysis_module, "_derivative_minus", counted)
        rel = build_relation(BalanceSystem(XI, (xi2, xi1)))
        assert degrees == [1, 0]  # d(omega) for the commutator, then d(psi) in the residual
        assert rel.verdict == "identical"
        assert rel.notes == "state functional reconstructed by homotopy integration"
        assert rel.relation.verdict == "identical"
        assert rel.relation.residual.is_structurally_zero()
        assert rel.relation.eta_commutator == rel.commutator
        assert rel.relation.phi == DifferentialForm.scalar(XI, xi1 * xi2)
        assert rel.relation.eta == rel.omega

    def test_rotation_nonidentical_everywhere(self):
        rel = build_relation(BalanceSystem(XI, (xi2, -xi1)))
        assert rel.verdict == "nonidentical"
        assert rel.commutator.coefficient((1, 2)) == const(-2)

    def test_partial_inconsistency(self):
        rel = build_relation(BalanceSystem(XI, (xi2**2, xi1 * xi2)))
        assert rel.verdict == "nonidentical"
        assert rel.commutator.coefficient((1, 2)) == -xi2

    def test_given_psi_verified(self):
        rel = build_relation(BalanceSystem(XI, (xi2, xi1), psi=xi1 * xi2))
        assert rel.verdict == "identical"
        assert rel.relation is not None
        assert rel.relation.residual.is_structurally_zero()

    def test_given_psi_with_residual(self):
        rel = build_relation(BalanceSystem(XI, (xi2, xi1), psi=xi1))
        assert rel.verdict == "nonidentical"

    def test_transcendental_commutator_zero_unknown(self):
        rel = build_relation(BalanceSystem(XI, (sin(xi2), ZERO)))
        assert rel.verdict in ("nonidentical", "unknown")

    def test_action_count_validated(self):
        with pytest.raises(ValueError):
            BalanceSystem(XI, (xi1,))


class TestEquilibriumScan:
    def test_locus_on_axis(self):
        rel = build_relation(BalanceSystem(XI, (xi2**2, xi1 * xi2)))
        report = equilibrium_scan(rel, BOX, 101)
        assert report.label == "locally equilibrium pseudostructure realized"
        assert report.structure.locus.hyperplane == ("xi2", 0.0)
        for p in report.structure.locus.points:
            point = dict(zip(XI.names, p))
            assert all(abs(evaluate(c, point)) < 1e-6
                       for _, c in rel.commutator.items())
        assert report.structure.intensity == pytest.approx(0.02, abs=1e-12)

    def test_identical_system_whole_box(self):
        rel = build_relation(BalanceSystem(XI, (xi2, xi1)))
        report = equilibrium_scan(rel, BOX, 21)
        assert report.label == "whole box in locally-equilibrium state"
        assert report.structure.intensity == 0.0

    def test_constant_commutator_stays_nonequilibrium(self):
        rel = build_relation(BalanceSystem(XI, (xi2, -xi1)))
        report = equilibrium_scan(rel, BOX, 21)
        assert report.label == "state remains nonequilibrium (no structure realized)"

    def test_agrees_with_find_pseudostructure(self):
        from skewforms.analysis import find_pseudostructure
        from skewforms.duality import Metric
        rel = build_relation(BalanceSystem(XI, (xi2**2, xi1 * xi2)))
        report = equilibrium_scan(rel, BOX, 41)
        direct = find_pseudostructure(rel.omega, Metric.euclidean(XI), BOX, 41)
        assert report.structure.locus.points == direct.locus.points

    def test_restricted_identity_check(self):
        """With psi given and a symbolic locus, d_pi(psi) = omega_pi is
        verified by pullback comparison."""
        rel = build_relation(BalanceSystem(XI, (xi2**2, xi1 * xi2), psi=xi2))
        report = equilibrium_scan(rel, BOX, 41)
        # on xi2 = 0: omega_pi = 0 and d(xi2) pulls back to 0
        assert report.identity_on_locus == "zero"

        rel2 = build_relation(BalanceSystem(XI, (xi2**2, xi1 * xi2), psi=xi1))
        report2 = equilibrium_scan(rel2, BOX, 41)
        # d(xi1) pulls back to d(xi1) != 0 = omega_pi
        assert report2.identity_on_locus == "nonzero"


# --- the path build_relation took before it read classify_closure, kept as a reference


def _reference_build_relation(system):
    omega = DifferentialForm.one_form(system.vars, system.actions)
    if system.psi is not None:
        relation = classify_relation(DifferentialForm.scalar(system.vars, system.psi), omega)
        return EvolutionaryRelation(system, omega, relation.eta_commutator, relation.verdict,
                                    relation, system.psi)

    comm = commutator(omega)
    comm_verdict = zero_verdict(comm)
    notes = []

    if comm_verdict == "nonzero":
        return EvolutionaryRelation(system, omega, comm, "nonidentical", None, None)

    if comm_verdict == "zero":
        psi = reconstruct_potential(omega)
        if psi is not None:
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


def _summary(rel):
    """The observable parts of an evolutionary relation, as text."""
    return (rel.verdict, None if rel.psi is None else to_text(rel.psi), rel.notes,
            form_to_text(rel.commutator),
            None if rel.relation is None else form_to_text(rel.relation.residual),
            None if rel.relation is None else rel.relation.verdict)


def _random_system(rng, variables):
    """Action coefficients: the gradient of a polynomial times a parameter, a
    transcendental or a rational factor (or none), and in half the cases one
    component perturbed so that omega is no longer closed."""
    u, v = var(variables.names[0]), var(variables.names[1])
    factor = rng.choice([const(1), var("p"), exp(u), sin(v), cos(u * v), (1 + u**2 + v**2) ** -1])
    f = random_polynomial(rng, variables.names) * factor
    actions = [differentiate(f, name) for name in variables.names]
    if rng.random() < 0.5:
        k = rng.randrange(len(actions))
        actions[k] = actions[k] + random_polynomial(rng, variables.names)
    return BalanceSystem(variables, actions)


class TestBuildRelationMatchesReference:
    def test_bundled_systems(self):
        systems = [decl.system for decl in parse(BALANCE_FILE.read_text()).declarations
                   if isinstance(decl, BalanceDecl)]
        assert len(systems) == 4
        for system in systems:
            assert _summary(build_relation(system)) == _summary(_reference_build_relation(system))

    def test_undecided_commutator(self):
        # exp(xi1)^2 - exp(2*xi1) is zero, but no rule reduces it
        system = BalanceSystem(XI, (ZERO, xi1 * (exp(xi1) ** 2 - exp(2 * xi1))))
        rel = build_relation(system)
        assert (rel.verdict, rel.notes) == ("unknown", "")
        assert _summary(rel) == _summary(_reference_build_relation(system))

    def test_random_systems(self):
        rng = random.Random(5150)
        verdicts = []
        for _ in range(80):
            system = _random_system(rng, VARSETS[rng.choice((2, 3))])
            got = _summary(build_relation(system))
            assert got == _summary(_reference_build_relation(system)), system.actions
            verdicts.append(got[0])
        assert all(verdicts.count(v) > 5 for v in ("identical", "nonidentical", "unknown"))
