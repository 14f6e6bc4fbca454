"""Reaction-term algebra: steady state, Jacobian, exact quadratic remainder."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtphase import (
    K1NotPositive,
    ModelParams,
    MTPhaseError,
    NonPositiveParameter,
    ParamBatch,
    ParameterRay,
    ValidationError,
    cond1_ok,
    laplacian_eigenvalue,
    linearization_matrix,
    mode_matrices,
    mode_matrix,
    quadratic_nonlinearity,
    reaction_rhs,
    steady_state,
    validate_params,
)
from mtphase.model import POSITIVE_FIELDS


def test_canonical_steady_state_is_all_ones(canonical_params):
    ss = steady_state(canonical_params)
    assert ss.Mg == pytest.approx(1.0, abs=1e-15)
    assert ss.Ms == pytest.approx(1.0, abs=1e-15)
    assert ss.Df == pytest.approx(1.0, abs=1e-15)
    assert canonical_params.K1 == pytest.approx(1.0, abs=1e-15)
    assert canonical_params.K2 == pytest.approx(2.0, abs=1e-15)


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


@pytest.mark.parametrize("shape", [(3,), (3, 17), (3, 5, 4)], ids=["3", "3x17", "3x5x4"])
def test_quadratic_remainder_first_two_components_cancel(shape):
    # F keeps the shape of w, the first two components are opposite bit for
    # bit, and each column is rounded as the column alone is
    p = validate_params(
        dict(k1=1.2, k3=0.8, k5=1.5, k7=2.5, C1=1.1, E=0.9,
             d1=0.3, d2=0.4, d3=0.2, ell=3.5)
    )
    rng = np.random.default_rng(3)
    w = rng.normal(size=shape)
    F = quadratic_nonlinearity(p, w)
    assert F.shape == shape
    assert np.array_equal(F[0], -F[1])
    columns = w.reshape(3, -1).T
    alone = np.array([quadratic_nonlinearity(p, column) for column in columns])
    assert np.array_equal(F.reshape(3, -1).T, alone)


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


def test_model_params_keeps_float_objects_shared_by_ray_points():
    k1, k7 = np.float64(1.0), np.float64(2.0)
    p = ModelParams(k1=k1, k3=np.float32(0.5), k5=1, k7=k7,
                    C1=1.0, E=1.0, d1=0.3, d2=0.3, d3=0.3, ell=3.0)
    # floats (numpy.float64 is one) are kept, other numbers converted
    assert p.k1 is k1 and p.k7 is k7
    assert type(p.k3) is float and p.k3 == float(np.float32(0.5))
    assert type(p.k5) is float
    # slotted, and vars() still gives the fields
    assert not hasattr(p, "__weakref__")
    assert vars(p) == p.to_record() and list(vars(p)) == [*POSITIVE_FIELDS, "bc"]
    # a point on a ray holds the base's float objects in the fields it
    # does not move
    q = ParameterRay(base=p, direction={"d1": np.float64(2.0)}, bracket=(1.0, 3.0)).at(1.5)
    assert all(getattr(q, name) is getattr(p, name) for name in POSITIVE_FIELDS if name != "d1")
    assert type(q.d1) is float and q.d1 == 3.0
    # messages show a numpy.float64 value as a float
    with pytest.raises(NonPositiveParameter, match=r"d2 must be > 0, got -0\.5$"):
        p.replace(d2=np.float64(-0.5))
    with pytest.raises(K1NotPositive, match=r"K1 = -0\.25 <= 0$"):
        p.replace(k7=np.float64(0.25))


def test_cond1_ok_canonical(canonical_threshold):
    assert cond1_ok(canonical_threshold.lambda0) is True


# ell = pi makes rho1 = 1.0 exactly; with k1 = k3 = E = 1 each point makes
# one equality of cond1 hold exactly and leaves the other far from holding
@pytest.mark.parametrize(
    "fields",
    [
        # K1 = 2, K2 = 2: k5*K2 == C1, and d2*d3*rho1**2 + d2*K2*rho1 = 3
        dict(k5=1.0, k7=1.5, C1=2.0, d2=1.0, d3=1.0),
        # K1 = 1, K2 = 2: C1 == d2*d3*rho1**2 + d2*K2*rho1 = 0.5 + 0.5, k5*K2 = 2
        dict(k5=1.0, k7=2.0, C1=1.0, d2=0.25, d3=2.0),
    ],
    ids=["k5K2-equals-C1", "C1-equals-q2"],
)
def test_cond1_ok_is_false_where_an_equality_holds(fields):
    p = ModelParams(k1=1.0, k3=1.0, E=1.0, d1=1.0, ell=float(np.pi), **fields)
    assert laplacian_eigenvalue(1, p.ell) == 1.0
    assert cond1_ok(p) is False
