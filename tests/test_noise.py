import numpy as np
import pytest

from conftest import smooth_field, transport_system
from stochns.fields import GevreyWeight, sobolev_norm
from stochns.lattice import build_lattice
from stochns.noise import (MultiplicativeNoise, NoiseSystem, TransportNoise,
                           eval_g, solenoidal_mode_field,
                           validate_commutativity, validate_growth_lipschitz,
                           validate_orthogonality, validate_system)

W1 = GevreyWeight(s=1.0, phi=0.0)


def test_eval_g_zero_variant(lat16):
    system = NoiseSystem(g=MultiplicativeNoise.zero(), xi=TransportNoise.empty(), n_wiener=0)
    u = smooth_field(lat16)
    out = eval_g(system, 0, u)
    assert np.abs(out.coeffs).max() == 0.0


def test_eval_g_linear_scaling(lat16):
    g = MultiplicativeNoise.linear([0.5], [0])
    system = NoiseSystem(g=g, xi=TransportNoise.empty(), n_wiener=1)
    u = smooth_field(lat16)
    out = eval_g(system, 0, u)
    np.testing.assert_allclose(out.coeffs, 0.5 * u.coeffs)
    # off the index set: zero field
    assert np.abs(eval_g(system, 3, u).coeffs).max() == 0.0


def test_eval_g_additive_is_u_independent(lat16):
    sigma = solenoidal_mode_field(lat16, (1, 0), 0.4)
    system = NoiseSystem(g=MultiplicativeNoise.additive([sigma], [0]),
                         xi=TransportNoise.empty(), n_wiener=1)
    a = eval_g(system, 0, smooth_field(lat16, seed=1))
    b = eval_g(system, 0, smooth_field(lat16, seed=2))
    assert np.array_equal(a.coeffs, b.coeffs)
    assert abs(sobolev_norm(sigma, 0.0) - 0.4) <= 1e-12


@pytest.mark.parametrize("build,msg", [
    (lambda lat: MultiplicativeNoise(variant="cubic"), "unknown multiplicative variant"),
    (lambda lat: MultiplicativeNoise(variant="additive", index_set=(0,)),
     "one sigma field per Wiener index"),
    (lambda lat: MultiplicativeNoise.linear([0.1, 0.2], [0]), "one coefficient per Wiener index"),
    (lambda lat: MultiplicativeNoise(variant="zero", index_set=(0,)), "owns no Wiener indices"),
    (lambda lat: MultiplicativeNoise.linear([0.1, 0.2], [0, 0]), "duplicate Wiener indices in g"),
    (lambda lat: TransportNoise.constant([[1.0, 0.0]], [0, 1]), "one vector per Wiener index"),
    (lambda lat: TransportNoise.constant([[1.0, 0.0], [0.0, 1.0]], [2, 2]),
     "duplicate Wiener indices in xi"),
    (lambda lat: solenoidal_mode_field(lat, (0, 0), 0.1), "nonzero wavevector"),
    (lambda lat: solenoidal_mode_field(lat, (1, 0, 0), 0.1), "nonzero wavevector"),
], ids=["variant", "additive-count", "linear-count", "zero-indices", "g-duplicates",
        "xi-count", "xi-duplicates", "zero-mode", "mode-dim"])
def test_noise_families_refuse_invalid_input(lat16, build, msg):
    with pytest.raises(ValueError, match=msg):
        build(lat16)


def test_growth_lipschitz_zero_variant(lat16):
    system = NoiseSystem(g=MultiplicativeNoise.zero(), xi=TransportNoise.empty(), n_wiener=0)
    rep = validate_growth_lipschitz(system, lat16, W1, 1.0, n_samples=3)
    assert rep.c_growth == 0.0 and rep.c_lipschitz == 0.0


def test_growth_lipschitz_linear_unit_sum(lat16):
    g = MultiplicativeNoise.linear([0.5, 0.3, 0.2], [0, 1, 2])
    system = NoiseSystem(g=g, xi=TransportNoise.empty(), n_wiener=3)
    rep = validate_growth_lipschitz(system, lat16, W1, 1.0, n_samples=4)
    assert rep.c_lipschitz <= 1.0 + 1e-12
    assert abs(rep.c_lipschitz - 1.0) <= 1e-12  # scalar multiples make it exact


def test_growth_lipschitz_additive(lat16):
    sigma = solenoidal_mode_field(lat16, (1, 0), 0.7)
    system = NoiseSystem(g=MultiplicativeNoise.additive([sigma], [0]),
                         xi=TransportNoise.empty(), n_wiener=1)
    rep = validate_growth_lipschitz(system, lat16, W1, 1.0, n_samples=4)
    assert rep.c_lipschitz == 0.0
    assert rep.c_growth > 0.0


def test_xi_bound_conventions():
    single = TransportNoise.constant([np.array([1.0, 0.0])], [0])
    assert abs(single.bound_k() - 1.0) <= 1e-14

    fam = TransportNoise.default_family(2, amplitude=3.0, count=4, index_set=[0, 1, 2, 3])
    assert abs(fam.bound_k() - 3.0 * 15 / 16) <= 1e-12

    assert TransportNoise.empty().bound_k() == 0.0


def test_default_family_alternates_axes():
    fam = TransportNoise.default_family(2, amplitude=1.0, count=4, index_set=[0, 1, 2, 3])
    dirs = [int(np.argmax(np.abs(v))) for v in fam.vectors]
    assert dirs == [0, 1, 0, 1]
    mags = [np.linalg.norm(v) for v in fam.vectors]
    np.testing.assert_allclose(mags, [0.5, 0.25, 0.125, 0.0625])


@pytest.mark.parametrize("grid", [16, 32, 64])
def test_commutativity_constant_xi_grid_independent(grid):
    lat = build_lattice(2, grid)
    u = smooth_field(lat, seed=3)
    res = validate_commutativity(np.array([0.7, -0.2]), u, W1, r=1.0)
    assert res <= 1e-12 * max(sobolev_norm(u, 1.0), 1.0)


def test_commutativity_zero_xi(lat16):
    u = smooth_field(lat16, seed=4)
    assert validate_commutativity(np.zeros(2), u, W1, r=1.0) == 0.0


def test_orthogonality_disjoint_structural(lat16):
    system = NoiseSystem(g=MultiplicativeNoise.linear([0.2], [0]),
                         xi=TransportNoise.constant([np.array([1.0, 0.0])], [1]),
                         n_wiener=2)
    rep = validate_orthogonality(system, lat16, W1, 1.0)
    assert rep.structural and rep.ok


def test_orthogonality_overlap_with_zero_g_passes(lat16):
    # overlapping index sets but g identically zero: inner products vanish
    g = MultiplicativeNoise.linear([0.0], [0])
    system = NoiseSystem(g=g, xi=TransportNoise.constant([np.array([1.0, 0.0])], [0]),
                         n_wiener=1)
    rep = validate_orthogonality(system, lat16, W1, 1.0)
    assert not rep.structural
    assert rep.worst_inner == 0.0 and rep.ok


def test_orthogonality_overlap_violation_detected(lat16):
    sigma = solenoidal_mode_field(lat16, (1, 0), 1.0)
    system = NoiseSystem(g=MultiplicativeNoise.additive([sigma], [0]),
                         xi=TransportNoise.constant([np.array([1.0, 0.0])], [0]),
                         n_wiener=1)
    rep = validate_orthogonality(system, lat16, W1, 1.0)
    assert not rep.ok and rep.worst_inner > 0.0


def _gate_input(kind, lat):
    sigma = solenoidal_mode_field(lat, (1, 0), np.inf if kind == "infinite-sigma" else 1.0)
    xi = TransportNoise.constant([np.array([np.inf if kind == "infinite-xi" else 1.0, 0.0])], [1])
    g = {"disjoint-linear": MultiplicativeNoise.linear([0.1], [0]),
         "disjoint-additive": MultiplicativeNoise.additive([sigma], [0]),
         "overlap-additive": MultiplicativeNoise.additive([sigma], [1]),
         "overlap-zero-coefficient": MultiplicativeNoise.linear([0.0], [1]),
         "nan-coefficient": MultiplicativeNoise.linear([float("nan")], [0]),
         "infinite-xi": MultiplicativeNoise.zero(),
         "infinite-sigma": MultiplicativeNoise.additive([sigma], [0]),
         "sigma-with-mean": MultiplicativeNoise.additive(
             [sigma.with_coeffs(sigma.coeffs + (lat.abs_k == 0))], [0])}[kind]
    return NoiseSystem(g=g, xi=xi, n_wiener=2)


# the refused inputs and what their ValueError must name
GATE_REFUSALS = {"overlap-additive": "disjoint", "overlap-zero-coefficient": "disjoint",
                 "nan-coefficient": r"sum \|c_k\|", "infinite-xi": r"sum \|xi_k\|",
                 "infinite-sigma": "not finite", "sigma-with-mean": "mean-free"}


@pytest.mark.parametrize("kind", [
    "disjoint-linear", "disjoint-additive", "overlap-additive", "overlap-zero-coefficient",
    "nan-coefficient", "infinite-xi",
    # an infinite amplitude times the field's zero coefficients warns (inf * 0)
    pytest.param("infinite-sigma", marks=pytest.mark.filterwarnings("ignore::RuntimeWarning")),
    "sigma-with-mean"])
def test_validate_system_gates_and_marks(lat16, kind):
    system = _gate_input(kind, lat16)
    if kind not in GATE_REFUSALS:
        assert validate_system(system).validated
    else:
        with pytest.raises(ValueError, match=GATE_REFUSALS[kind]):
            validate_system(system)


def test_index_set_bounds_checked():
    with pytest.raises(ValueError):
        NoiseSystem(g=MultiplicativeNoise.linear([0.1], [5]),
                    xi=TransportNoise.empty(), n_wiener=2)
