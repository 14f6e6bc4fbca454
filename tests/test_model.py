"""Reaction-term algebra: steady state, Jacobian, exact quadratic remainder."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtphase import (
    K1NotPositive,
    MTPhaseError,
    NonPositiveParameter,
    ParamBatch,
    ValidationError,
    check_conditions,
    laplacian_eigenvalue,
    linearization_matrix,
    mode_matrices,
    mode_matrix,
    quadratic_nonlinearity,
    reaction_rhs,
    steady_state,
    validate_params,
)


def test_canonical_steady_state_is_all_ones(canonical_params):
    ss = steady_state(canonical_params)
    assert ss.Mg == pytest.approx(1.0, abs=1e-15)
    assert ss.Ms == pytest.approx(1.0, abs=1e-15)
    assert ss.Df == pytest.approx(1.0, abs=1e-15)
    assert ss.K1 == pytest.approx(1.0, abs=1e-15)
    assert ss.K2 == pytest.approx(2.0, abs=1e-15)


def test_steady_state_zeroes_the_reaction_term(random_params_factory):
    rng = np.random.default_rng(7)
    for _ in range(50):
        p = random_params_factory(rng)
        ss = steady_state(p)
        residual = np.abs(reaction_rhs(p, ss.as_array())).max()
        scale = max(ss.Mg, ss.Ms, ss.Df, 1.0)
        assert residual <= 1e-12 * scale


def test_linearization_matches_finite_differences(random_params_factory):
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(20):
        p = random_params_factory(rng)
        ss = steady_state(p).as_array()
        A = linearization_matrix(p)
        fd = np.empty((3, 3))
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd[:, j] = (reaction_rhs(p, ss + e) - reaction_rhs(p, ss - e)) / (2 * h)
        assert np.abs(A - fd).max() <= 1e-6 * max(np.abs(A).max(), 1.0)


@settings(max_examples=60, deadline=None)
@given(
    w1=st.floats(-1.0, 1.0),
    w2=st.floats(-1.0, 1.0),
    w3=st.floats(-1.0, 1.0),
)
def test_quadratic_remainder_makes_taylor_exact(w1, w2, w3):
    p = validate_params(
        dict(k1=1.2, k3=0.8, k5=1.5, k7=2.5, C1=1.1, E=0.9,
             d1=0.3, d2=0.4, d3=0.2, ell=3.5)
    )
    ss = steady_state(p).as_array()
    w = np.array([w1, w2, w3])
    lhs = reaction_rhs(p, ss + w)
    rhs = linearization_matrix(p) @ w + quadratic_nonlinearity(p, w)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(lhs).max())


def test_quadratic_remainder_first_two_components_cancel():
    p = validate_params(
        dict(k1=1.2, k3=0.8, k5=1.5, k7=2.5, C1=1.1, E=0.9,
             d1=0.3, d2=0.4, d3=0.2, ell=3.5)
    )
    rng = np.random.default_rng(3)
    w = rng.normal(size=(3, 17))
    F = quadratic_nonlinearity(p, w)
    assert np.abs(F[0] + F[1]).max() == 0.0


def test_vectorized_reaction_matches_scalar_loop(canonical_params):
    rng = np.random.default_rng(5)
    state = rng.uniform(0.5, 1.5, size=(3, 9))
    batch = reaction_rhs(canonical_params, state)
    for j in range(9):
        single = reaction_rhs(canonical_params, state[:, j])
        assert np.allclose(batch[:, j], single, rtol=0, atol=0)


def test_nonpositive_parameter_rejected():
    base = dict(k1=1.0, k3=1.0, k5=1.0, k7=2.0, C1=1.0, E=1.0,
                d1=0.3, d2=0.3, d3=0.3, ell=3.0)
    with pytest.raises(NonPositiveParameter):
        validate_params({**base, "k1": 0.0})
    with pytest.raises(NonPositiveParameter):
        validate_params({**base, "d2": -0.1})


def test_infeasible_combination_rejected():
    # C1*k1*k7 = 1 < k3*k5*E = 4 means no positive steady state.
    with pytest.raises(K1NotPositive):
        validate_params(
            dict(k1=1.0, k3=2.0, k5=2.0, k7=1.0, C1=1.0, E=1.0,
                 d1=0.3, d2=0.3, d3=0.3, ell=3.0)
        )


def test_non_numeric_parameter_rejected():
    base = dict(k1=1.0, k3=1.0, k5=1.0, k7=2.0, C1=1.0, E=1.0,
                d1=0.3, d2=0.3, d3=0.3, ell=3.0)
    with pytest.raises(ValidationError, match="not a number: 'fast'"):
        validate_params({**base, "k3": "fast"})


def test_param_batch_matches_single_points():
    base = dict(k1=1.0, k3=1.0, k5=1.0, k7=2.0, C1=1.0, E=1.0,
                d1=0.3, d2=0.3, d3=0.3, ell=3.0)
    k7 = np.array([2.0, 0.5, 1.0, 3.7, np.nan, np.inf, 1.5])
    d2 = np.array([0.3, 0.2, 0.1, 0.0, 0.3, 0.3, -1e-300])
    batch = ParamBatch.from_record({**base, "k7": k7, "d2": d2})
    points = []
    for j in range(len(batch)):
        try:
            points.append(validate_params({**base, "k7": k7[j], "d2": d2[j]}))
        except MTPhaseError:
            points.append(None)
    assert batch.feasible().tolist() == [p is not None for p in points]

    ok = batch.select(batch.feasible())
    feasible = [p for p in points if p is not None]
    rho = np.array([laplacian_eigenvalue(2, p.ell) for p in feasible])
    assert np.array_equal(
        linearization_matrix(ok), [linearization_matrix(p) for p in feasible]
    )
    assert np.array_equal(
        mode_matrices(ok, rho), [mode_matrix(p, r) for p, r in zip(feasible, rho)]
    )
    rhos = [laplacian_eigenvalue(m, 3.0) for m in range(1, 6)]
    assert np.array_equal(
        mode_matrices(feasible[0], rhos), [mode_matrix(feasible[0], r) for r in rhos]
    )


def test_param_batch_feasible_where_model_params_accepts_nan_k1():
    # C1*k1*k7 and k3*k5*E both overflow to inf, so K1 is NaN, which
    # ModelParams does not reject; the sweep relies on the two agreeing
    big = dict(k1=1e200, k3=1e200, k5=1e200, k7=1e200, C1=1.0, E=1.0,
               d1=1.0, d2=1.0, d3=1.0, ell=3.0)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(validate_params(big).K1)
    assert ParamBatch.from_record(big).feasible().tolist() == [True]


def test_check_conditions_canonical(canonical_threshold):
    report = check_conditions(canonical_threshold.lambda0)
    assert report.cond0_ok and report.cond1_ok and report.cond2_ok
    assert report.K1 == pytest.approx(1.0, abs=1e-15)
    assert report.k5K2_minus_C1 == pytest.approx(1.0, abs=1e-15)
