"""Center-manifold reduction: branch coefficients and transition classes."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtphase import (
    ModelParams,
    MTPhaseError,
    OutOfTheory,
    ParameterRay,
    Resonance,
    TransitionType,
    classify_transition,
    find_threshold,
    laplacian_eigenvalue,
    mode_spectra,
    parse_config,
    principal_mode_vectors,
    quadratic_coefficient,
    quadratic_nonlinearity,
    transition_number,
    transition_number_simplified,
)
from mtphase.transition import _biorth, _gauss_legendre
from mtphase.verification import _random_params

CONFIGS = Path(__file__).parents[1] / "configs"


@pytest.fixture(scope="module")
def jump_threshold():
    base = ModelParams(
        k1=4.9669, k3=0.4280, k5=6.4185, k7=0.4256, C1=4.3293, E=0.9599,
        d1=1.7390, d2=1.4256, d3=0.3804, ell=4.828, bc="neumann-zero-average",
    )
    ray = ParameterRay(
        base=base,
        direction={"d1": base.d1, "d2": base.d2, "d3": base.d3},
        bracket=(0.5, 2.0),
    )
    return find_threshold(ray)


def test_canonical_transition_is_mixed(canonical_threshold):
    report = classify_transition(canonical_threshold)
    assert report.transition_type is TransitionType.TRANSCRITICAL_MIXED
    assert report.bc == "dirichlet"
    assert report.quadratic_coeff == pytest.approx(-0.0746634837, abs=1e-9)
    assert report.quadratic_coeff_quadrature == pytest.approx(
        report.quadratic_coeff, rel=1e-12
    )


def test_canonical_eigenvector_components(canonical_threshold):
    omega, omega_star, rho1 = principal_mode_vectors(canonical_threshold.lambda0)
    assert rho1 == pytest.approx(1.0, abs=1e-14)
    scaled = omega / omega[0]
    assert scaled[1] == pytest.approx(2.17008649, abs=1e-7)
    assert scaled[2] == pytest.approx(0.53918887, abs=1e-7)
    scaled_star = omega_star / (omega_star[2] / scaled[2])
    assert scaled_star[0] == pytest.approx(0.82991351, abs=1e-7)
    assert scaled_star[1] == pytest.approx(1.17008649, abs=1e-7)


def test_quadratic_coefficient_quadrature_node_invariance(canonical_threshold):
    a = quadratic_coefficient(canonical_threshold.lambda0, n_nodes=32)
    b = quadratic_coefficient(canonical_threshold.lambda0, n_nodes=128)
    assert a.quadrature == pytest.approx(b.quadrature, rel=1e-12)


def test_gauss_legendre_rule_is_computed_once_and_read_only():
    nodes, weights = _gauss_legendre(64)
    assert _gauss_legendre(64)[0] is nodes
    fresh = np.polynomial.legendre.leggauss(64)
    assert np.array_equal(nodes, fresh[0]) and np.array_equal(weights, fresh[1])
    assert not nodes.flags.writeable and not weights.flags.writeable
    with pytest.raises(ValueError):
        nodes[0] = 0.0


def test_transcritical_branch_amplitudes(canonical_threshold):
    report = classify_transition(canonical_threshold)
    (y,) = report.branch_amplitudes(0.01)
    assert y == pytest.approx(-0.01 / report.quadratic_coeff, rel=1e-12)


def test_jump_point_is_type_two(jump_threshold):
    report = classify_transition(jump_threshold)
    assert report.transition_type is TransitionType.TYPE_II
    assert report.transition_number == pytest.approx(0.602248, abs=1e-4)
    # Below threshold a repelling pair exists; above it none.
    lo = report.branch_amplitudes(-0.02)
    assert len(lo) == 2
    assert lo[0] == pytest.approx(-lo[1], rel=1e-12)
    assert lo[0] == pytest.approx(np.sqrt(0.02 / report.transition_number), rel=1e-12)
    assert report.branch_amplitudes(0.02) == ()


def test_simplified_transition_number_requires_unit_rates(jump_threshold):
    with pytest.raises(OutOfTheory):
        transition_number_simplified(jump_threshold.lambda0)


def test_simplified_matches_general_on_constrained_point():
    k3, k5, k7 = 0.9, 1.4, 1.7
    d1, d2, d3 = 0.32, 0.21, 0.55
    ell = 4.1
    rho1 = laplacian_eigenvalue(1, ell)
    C1 = k3 * (k5 + rho1 * d2) / k7
    p = ModelParams(
        k1=1.0, k3=k3, k5=k5, k7=k7, C1=C1, E=1.0,
        d1=d1, d2=d2, d3=d3, ell=ell, bc="neumann-zero-average",
    )
    general = transition_number(p)
    simplified = transition_number_simplified(p)
    assert simplified == pytest.approx(general, rel=1e-12)


def _eigen_expansion_transition_number(p: ModelParams) -> float:
    """Oracle for ``b``: the slaved harmonic from the full mode-2 eigen-expansion.

    ``v = -1/2 * sum_i omega_2i (omega*_2i . F(omega)) / (sigma_2i omega_2i . omega*_2i)``
    and ``b = 1/2 * 2G(omega, v) . omega* / (omega . omega*)``, with the
    bilinear form taken by polarization, ``2G(u, v) = F(u+v) - F(u) - F(v)``.
    """
    omega, omega_star, _ = principal_mode_vectors(p)
    ms = mode_spectra(p, 2)[1]
    driving = quadratic_nonlinearity(p, omega)
    v = -0.5 * sum(
        ms.omega[i] * (ms.omega_star[i] @ driving)
        / (ms.sigma[i] * (ms.omega[i] @ ms.omega_star[i]))
        for i in range(3)
    )
    F = lambda w: quadratic_nonlinearity(p, w)
    bilinear = F(omega + v) - F(omega) - F(v)
    b = 0.5 * (bilinear @ omega_star) / (omega @ omega_star)
    assert abs(b.imag) <= 1e-12 * abs(b.real)
    return float(b.real)


def test_transition_number_matches_eigen_expansion():
    # criterion 8's parameter ranges; each threshold on a proportional
    # diffusivity ray, as there
    rng = np.random.default_rng(20140)
    checked = 0
    while checked < 200:
        base = _random_params(
            rng,
            rate_range=(0.316, 10.0),
            diff_range=(0.1, 1.0),
            ell_range=(3.0, 10.0),
            bc="neumann-zero-average",
            k1_margin=0.05,
        )
        ray = ParameterRay(
            base=base,
            direction={"d1": base.d1, "d2": base.d2, "d3": base.d3},
            bracket=(1e-3, 50.0),
        )
        try:
            p = find_threshold(ray).lambda0
        except MTPhaseError:
            continue
        reference = _eigen_expansion_transition_number(p)
        assert transition_number(p) == pytest.approx(reference, rel=1e-12, abs=0.0)
        checked += 1


_TIME_SCALED = ("k1", "k3", "k5", "k7", "C1", "E", "d1", "d2", "d3")


@pytest.mark.parametrize("bc", ["dirichlet", "neumann-zero-average"])
@settings(max_examples=25, deadline=None)
@example(exponent=-6.0)
@example(exponent=6.0)
@given(exponent=st.floats(-6.0, 6.0))
def test_classification_is_independent_of_the_time_unit(
    bc, exponent, canonical_threshold, jump_threshold
):
    # Multiplying every rate and diffusivity by lam rescales time: the
    # threshold stays a threshold, alpha scales as lam**2 and b as lam**3,
    # and the verdict must not change.
    p = (canonical_threshold if bc == "dirichlet" else jump_threshold).lambda0
    lam = 10.0**exponent
    scaled = p.replace(**{k: lam * getattr(p, k) for k in _TIME_SCALED})
    unit, report = classify_transition(p), classify_transition(scaled)
    assert report.transition_type is unit.transition_type
    if bc == "dirichlet":
        assert report.quadratic_coeff / lam**2 == pytest.approx(
            unit.quadratic_coeff, rel=1e-14
        )
    else:
        assert report.transition_number / lam**3 == pytest.approx(
            unit.transition_number, rel=1e-14
        )


def test_resonant_interaction_mode_raises():
    # With every diffusivity divided by 4 the mode-2 block at rho_2 = 4*rho_1
    # is the principal block of the threshold, so sigma_21 is zero.
    config = parse_config(CONFIGS / "neumann-jump.ini")
    p = find_threshold(config.ray(), tol=config.analysis.tol).lambda0
    resonant = p.replace(d1=p.d1 / 4.0, d2=p.d2 / 4.0, d3=p.d3 / 4.0)
    assert abs(mode_spectra(resonant, 2)[1].sigma[0]) < 1e-12
    with pytest.raises(Resonance, match="sigma_21"):
        transition_number(resonant)


def test_pairing_guard_rejects_near_orthogonal_pair():
    omega = np.array([1.0, 2.0, 0.0])
    omega_star = np.array([2.0, -1.0 + 1e-14, 3.0])
    with pytest.raises(Resonance, match="test pair is near-defective"):
        _biorth(omega, omega_star, "test pair")
    assert _biorth(omega, omega, "test pair") == 5.0
