"""Coefficient family oracles and model construction rules."""

import math

import numpy as np
import pytest

from mvsde.ensemble import ParticleEnsemble
from mvsde.model import (FAMILIES, CoefficientModel, eval_drift_b,
                         eval_kernel_f, eval_kernel_g, eval_pair_drift,
                         eval_pair_sigma, eval_sigma, make_model)
from mvsde.scheme import step
from mvsde.taming import TamedModel


def test_family_list_complete():
    assert set(FAMILIES) == {"cubic-mean-field", "ergodic-dissipative",
                             "pairwise-vlasov", "lipschitz-baseline",
                             "anti-dissipative"}


def test_cubic_drift_value():
    # b(x) = -x^3 + lam * mean; lam = 0, x = 1 -> -1
    m = make_model("cubic-mean-field", d=1, params={"lam": 0.0})
    assert eval_drift_b(m, 0.0, np.array([1.0]), None) == np.array([-1.0])


def test_cubic_drift_mean_coupling():
    m = make_model("cubic-mean-field", d=1, params={"lam": 0.5})
    mu = np.array([[2.0], [4.0]])  # mean 3
    out = eval_drift_b(m, 0.0, np.array([1.0]), mu)
    assert out[0] == -1.0 + 0.5 * 3.0


def test_ergodic_drift_value():
    # b(x) = -x - x|x|^2, x = 2 -> -2 - 8 = -10
    m = make_model("ergodic-dissipative", d=1)
    assert eval_drift_b(m, 0.0, np.array([2.0]), None)[0] == -10.0


def test_anti_dissipative_drift_sign():
    m = make_model("anti-dissipative", d=1)
    assert eval_drift_b(m, 0.0, np.array([2.0]), None)[0] == 8.0


def test_cubic_kernel_values():
    # f(x, y) = -c_f (x - y)|x - y|^2 with c_f = 1
    m = make_model("cubic-mean-field", d=1, params={"c_f": 1.0})
    assert eval_kernel_f(m, np.array([1.0]), np.array([0.0]))[0] == -1.0
    assert eval_kernel_f(m, np.array([0.0]), np.array([2.0]))[0] == 8.0


def test_g_kernel_diagonal():
    m = make_model("cubic-mean-field", d=2, params={"c_g": 0.2})
    g = eval_kernel_g(m, np.array([1.0, 3.0]), np.array([0.0, 1.0]))
    assert g.shape == (2, 2)
    assert g[0, 0] == 0.2 and g[1, 1] == pytest.approx(0.4)
    assert g[0, 1] == 0.0 and g[1, 0] == 0.0


def test_pairwise_drift_value():
    # btilde(x, y) = -a1 x - a3 x|x|^2 + kappa (y - x)
    m = make_model("pairwise-vlasov", d=1)
    out = eval_pair_drift(m, 0.0, np.array([1.0]), np.array([0.0]))
    assert out[0] == -0.5 - 1.0 - 0.5


def test_pairwise_eval_is_the_step_self_terms():
    """eval_drift_b and eval_sigma of a pairwise model are, bit for bit,
    the self terms an untamed step applies: one step with no pair kernel
    is x + h b(x, mu) + diag sigma(x, mu) dW, mu the old ensemble."""
    m = make_model("pairwise-vlasov", d=2, params={"c_f": 0.0, "c_g": 0.0})
    rng = np.random.default_rng(3)
    x = rng.normal(size=(7, 2))
    dW = rng.normal(size=(7, 2))
    b = eval_drift_b(m, 0.0, x, x)
    s = np.diagonal(eval_sigma(m, 0.0, x, x), axis1=-2, axis2=-1)
    ens = ParticleEnsemble(x)
    assert step(ens, TamedModel(m, 16, "off"), dW)
    assert np.array_equal(ens.states, x + b * (1.0 / 16) + s * dW)


def test_pairwise_mean_field_matches_atom_average():
    """The measure evaluation of a pairwise model, kap_pair (mean - x) and
    c_s (mean - x), agrees with the atom average of the two-argument maps
    to within M * eps of the largest averaged term, M atoms: the rounding
    of a mean of M terms."""
    m = make_model("pairwise-vlasov", d=2)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 2))
    atoms = rng.normal(size=(7, 2))
    tol = len(atoms) * np.finfo(float).eps
    terms = eval_pair_drift(m, 0.0, x[:, None, :], atoms)
    got = eval_drift_b(m, 0.0, x, atoms)
    assert (np.abs(got - terms.mean(axis=-2))
            <= tol * np.abs(terms).max(axis=-2)).all()
    terms = eval_pair_sigma(m, 0.0, x[:, None, :], atoms)
    got = eval_sigma(m, 0.0, x, atoms)
    assert (np.abs(got - terms.mean(axis=-3))
            <= tol * np.abs(terms).max(axis=-3)).all()


def test_lipschitz_baseline_is_linear():
    m = make_model("lipschitz-baseline", d=1, params={"lam": 0.3})
    mu = np.array([[1.0]])
    assert eval_drift_b(m, 0.0, np.array([2.0]), mu)[0] == -2.0 + 0.3
    # q = 0: doubling the input doubles self-drift exactly
    a = eval_drift_b(m, 0.0, np.array([1.5]), np.array([[0.0]]))
    b = eval_drift_b(m, 0.0, np.array([3.0]), np.array([[0.0]]))
    assert b[0] == 2.0 * a[0]


def test_kernel_antisymmetry_random():
    rng = np.random.default_rng(11)
    for fam in ("cubic-mean-field", "ergodic-dissipative",
                "pairwise-vlasov", "lipschitz-baseline"):
        m = make_model(fam, d=3)
        x = rng.normal(size=(40, 3))
        y = rng.normal(size=(40, 3))
        s = eval_kernel_f(m, x, y) + eval_kernel_f(m, y, x)
        assert (s == 0.0).all(), fam


def test_measure_required():
    m = make_model("cubic-mean-field", d=1)  # lam = 0.5 by default
    with pytest.raises(ValueError, match="requires a measure"):
        eval_drift_b(m, 0.0, np.array([1.0]), None)


def test_unknown_family_and_params():
    with pytest.raises(ValueError, match="unknown family"):
        make_model("no-such-family")
    with pytest.raises(ValueError, match="has no parameter"):
        make_model("cubic-mean-field", params={"zap": 1.0})


@pytest.mark.parametrize("dims, name", [
    (dict(d=2.7), "d"), (dict(d=True), "d"), (dict(d="2"), "d"),
    (dict(d=2, l=1.5), "l"), (dict(d=2, l=False), "l")])
def test_dimensions_must_be_whole_numbers(dims, name):
    """config's rule for an int field: a fractional dimension, which would
    build the model at int(d), and a bool are refused."""
    with pytest.raises(ValueError, match="dimension %s must be a whole "
                       "number" % name):
        make_model("cubic-mean-field", params={"c_g": 0.0}, **dims)


def test_integral_float_dimensions_are_taken():
    m = make_model("cubic-mean-field", d=2.0, l=np.float64(2.0))
    assert (type(m.d), type(m.l), m.d, m.l) == (int, int, 2, 2)


@pytest.mark.parametrize("q", (-1.0, -0.5, float("nan")))
def test_negative_growth_order_refused(q):
    # 0 ** q at a coincident pair would be infinite
    with pytest.raises(ValueError, match="q must be >= 0.*set q to 0"):
        make_model("cubic-mean-field", params={"q": q})


@pytest.mark.parametrize("q", (1.5, 3.0))
def test_coefficients_take_libm_pow(q):
    """Outside the exponents 0, 1 and 2, |x|^q_b and |x - y|^q_f are
    scalar libm pow, the pow of the compiled kernels."""
    m = make_model("ergodic-dissipative", d=3, params={"q": q})
    rng = np.random.default_rng(5)
    x = rng.normal(scale=2.0, size=(2000, 3))
    y = rng.normal(scale=2.0, size=(2000, 3))

    def pw(v):
        norms = np.sqrt(np.sum(v * v, axis=-1))
        return np.array([math.pow(r, q) for r in norms.tolist()])

    want_b = m.beta1 * x + m.betaq * x * pw(x)[:, None]
    want_f = (m.kf1 + m.kfq * pw(x - y))[:, None] * (x - y)
    assert np.array_equal(eval_drift_b(m, 0.0, x), want_b)
    assert np.array_equal(eval_kernel_f(m, x, y), want_f)


def test_rectangular_noise_needs_zero_diagonals():
    with pytest.raises(ValueError, match="l == d"):
        make_model("cubic-mean-field", d=2, l=3)
    m = make_model("cubic-mean-field", d=2, l=3,
                   params={"c_g": 0.0})
    s = eval_sigma(m, 0.0, np.zeros(2), np.zeros((1, 2)))
    assert s.shape == (2, 3)


def test_sigma_shape_and_constant_part():
    m = make_model("cubic-mean-field", d=2, params={"sigma0": 0.3,
                                                    "c_g": 0.0})
    s = eval_sigma(m, 0.0, np.array([1.0, 2.0]), np.zeros((1, 2)))
    assert s.shape == (2, 2)
    assert s[0, 0] == 0.3 and s[1, 1] == 0.3
    assert s[0, 1] == 0.0 and s[1, 0] == 0.0


def test_model_is_frozen():
    m = make_model("cubic-mean-field", d=1)
    with pytest.raises(AttributeError):
        m.q = 3.0


def test_defaults_documented():
    m = make_model("cubic-mean-field")
    assert m.q == 2.0 and m.params["lam"] == 0.5
    assert m.params["sigma0"] == 0.3 and m.params["c_g"] == 1.0
    assert m.measure_mode == "functional"
    p = make_model("pairwise-vlasov")
    assert p.measure_mode == "pairwise"


@pytest.mark.parametrize("mode,other", [("functional", "kap_pair"),
                                         ("pairwise", "lam")])
def test_coupling_of_the_other_measure_mode_refused(mode, other):
    """scheme.step and the fused kernel add kap_pair (mean - x) and
    lam * mean as they are, so a model carries only its own mode's
    coupling: the other one, nonzero, is refused."""
    with pytest.raises(ValueError, match="%s must be 0 in the %s measure "
                                         "mode" % (other, mode)):
        CoefficientModel("custom", 1, 1, 2.0, {}, mode, {other: 0.5})
    ok = CoefficientModel("custom", 1, 1, 2.0, {}, mode, {other: 0.0})
    assert getattr(ok, other) == 0.0


def test_batch_broadcasting():
    m = make_model("cubic-mean-field", d=2, params={"lam": 0.5})
    rng = np.random.default_rng(5)
    x = rng.normal(size=(10, 2))
    atoms = rng.normal(size=(6, 2))
    out = eval_drift_b(m, 0.0, x, atoms)
    assert out.shape == (10, 2)
    one = eval_drift_b(m, 0.0, x[3], atoms)
    assert np.array_equal(out[3], one)
