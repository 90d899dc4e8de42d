import numpy as np
import pytest
from scipy import special

from tiltrec.basis import (_ROOT_CELL, FBCoeffs, _radial_matrix, bessel_j,
                           bessel_roots, build_basis_spec, build_quadrature,
                           eval_basis_matrix, eval_tilt_matrix,
                           synthesize_image)
from tiltrec.errors import ConfigError
from tiltrec.sim import random_phantom

from oracles import (column_index, default_n_xi, quadrature_image,
                     raw_phantom, symmetrized_reference, symmetry_residual)

# first positive roots of J_0 and J_1, standard reference constants
J0_ROOT_1 = 2.404825557695773
J1_ROOT_1 = 3.831705970207512


def test_first_roots_match_reference():
    assert abs(bessel_roots(0, 1)[0] - J0_ROOT_1) < 1e-12
    assert abs(bessel_roots(1, 1)[0] - J1_ROOT_1) < 1e-12


def test_roots_interlace_and_annihilate():
    for k in (0, 1, 5, 12):
        roots = bessel_roots(k, 6)
        assert np.all(np.diff(roots) > 0)
        assert np.max(np.abs(special.jv(k, roots))) <= 1e-10


BESSEL_X = np.concatenate([[0.0, 1e-300, 1e-8], np.linspace(0.0, 150.0, 1501)[1:]])


def test_bessel_j_matches_scipy():
    """Orders 0..80 from tiny arguments to 150: within 1e-14 absolute of
    scipy's jv, one order per element and all orders in one pass."""
    n, x = np.meshgrid(np.arange(81), BESSEL_X, indexing="ij")
    want = special.jv(n, x)
    assert np.max(np.abs(bessel_j(n, x)[0] - want)) <= 1e-14
    assert np.max(np.abs(bessel_j(0, BESSEL_X, 81) - want)) <= 1e-14


def test_bessel_j_at_zero_is_exact():
    orders = np.arange(81)
    unit = (orders == 0).astype(float)
    assert np.array_equal(bessel_j(orders, 0.0)[0], unit)
    assert np.array_equal(bessel_j(0, np.zeros(3), 81), np.tile(unit[:, None], 3))


def test_bessel_j_element_depends_only_on_its_own_arguments():
    """A value's bits do not depend on the other elements of the call."""
    rng = np.random.default_rng(5)
    n = rng.integers(0, 40, 60)
    x = np.concatenate([[0.0, 1e-8], rng.uniform(0.0, 120.0, 58)])
    together = bessel_j(n, x, 2)
    alone = np.stack([bessel_j(m, v, 2) for m, v in zip(n, x)], axis=1)
    assert together.tobytes() == alone.tobytes()
    together = bessel_j(0, x, 30)
    alone = np.stack([bessel_j(0, v, 30) for v in x], axis=1)
    assert together.tobytes() == alone.tobytes()


def test_bessel_j_rejects_its_domain_edges():
    for n, x in ((-1, 1.0), (0, -1.0), (1.5, 1.0), (0, np.nan), (2, np.inf)):
        with pytest.raises(ValueError):
            bessel_j(n, x)


def test_roots_match_scipy():
    """Orders 0..80, first 50 roots each: within 1e-14 relative of
    scipy's jn_zeros."""
    orders = np.arange(81)
    got = bessel_roots(orders, 50).reshape(81, 50)
    want = np.stack([special.jn_zeros(k, 50) for k in orders])
    assert np.max(np.abs(got - want) / want) <= 1e-14


def test_root_grid_cells_hold_one_root():
    """No cell of the bracketing grid holds two roots of one order."""
    for k in range(81):
        cells = np.floor((special.jn_zeros(k, 50) - k) / _ROOT_CELL)
        assert np.all(np.diff(cells) >= 1), k


def test_roots_are_prefixes_and_independent_of_other_orders():
    orders = np.array([0, 3, 9, 20])
    many = [bessel_roots(k, 30) for k in orders]
    for k, roots in zip(orders, many):
        for m in (1, 7, 29):
            assert bessel_roots(k, m).tobytes() == roots[:m].tobytes()
    counts = np.array([2, 5, 1, 30])
    joint = bessel_roots(orders, counts)
    alone = np.concatenate([r[:m] for r, m in zip(many, counts)])
    assert joint.tobytes() == alone.tobytes()


def test_roots_reject_bad_counts():
    for count in (0, -2, 2.5, 3.0):
        with pytest.raises(ValueError):
            bessel_roots(1, count)


@pytest.mark.parametrize("c, R", [(float("nan"), 8.0), (0.3, float("nan")),
                                  (float("inf"), 8.0), (0.3, float("inf")),
                                  (0.3, -float("inf"))])
def test_spec_rejects_non_finite_sizes(c, R):
    bad = c if not np.isfinite(c) else R
    with pytest.raises(ConfigError, match=f"={bad}"):
        build_basis_spec(c, R)


def test_spec_sizes_frozen():
    # counts pinned by the truncation rule at c = 0.3
    assert build_basis_spec(0.3, 16.0).n_a == 162
    assert build_basis_spec(0.3, 16.0).k_max == 20
    assert build_basis_spec(0.3, 8.0).n_a == 30
    assert build_basis_spec(0.3, 4.0).n_a == 3


def test_truncation_rule(med_spec):
    # retain (k, q) while the NEXT root still fits the sampling bound:
    # R_{k, q_k+1} <= 2*pi*c*R < R_{k, q_k+2}
    bound = 2.0 * np.pi * med_spec.c * med_spec.R
    for k in range(med_spec.k_max + 1):
        q_k = np.count_nonzero(med_spec.k_arr == k)
        roots = bessel_roots(k, q_k + 2)
        assert roots[q_k] <= bound
        assert roots[q_k + 1] > bound
    assert bessel_roots(med_spec.k_max + 1, 2)[1] > bound


def test_negative_orders_mirror(med_spec):
    # (-k, q) is retained exactly when (k, q) is
    index = column_index(med_spec)
    for k in range(1, med_spec.k_max + 1):
        for q in range(1, np.count_nonzero(med_spec.k_arr == k) + 1):
            assert (-k, q) in index
    count_neg = sum(1 for (k, _) in index if k < 0)
    count_pos = sum(1 for (k, _) in index if k > 0)
    assert count_neg == count_pos
    # index map is a bijection onto 0..n_a-1
    idx = sorted(index.values())
    assert idx == list(range(med_spec.n_a))


def test_normalization_even_in_k(med_spec, quad32):
    psi = eval_basis_matrix(med_spec, quad32, 0.0)
    index = column_index(med_spec)
    for (k, q), i in index.items():
        j = index[(-k, q)]
        assert np.allclose(np.abs(psi[:, i]), np.abs(psi[:, j]), atol=1e-14)


@pytest.mark.parametrize("K, alpha", [(0, 0.1), (2, 3.8 * np.pi / 180),
                                      (3, -0.05)])
def test_tilt_matrix_blocks_are_basis_matrices(small_spec, quad32, K, alpha):
    """Row block kappa + K of the tilt matrix is eval_basis_matrix at
    kappa * alpha, bitwise, for kappa = -K..K."""
    psi = eval_tilt_matrix(small_spec, quad32, K, alpha)
    n = quad32.n_xi
    assert psi.shape == ((2 * K + 1) * n, small_spec.n_a)
    for kappa in range(-K, K + 1):
        block = psi[(kappa + K) * n:(kappa + K + 1) * n]
        want = eval_basis_matrix(small_spec, quad32, kappa * alpha)
        assert block.tobytes() == want.tobytes()


@pytest.mark.parametrize("c, R", [(0.3, 4.0), (0.3, 8.0), (0.3, 16.0),
                                  (0.25, 11.3), (0.5, 20.0)])
def test_layout_matches_per_order_reference(c, R):
    """The index arrays lay out every order's roots from bessel_roots, and
    symmetrizing through the mirror permutation equals the per-pair dict
    walk, both bitwise."""
    spec = build_basis_spec(c, R)
    index = column_index(spec)
    assert len(index) == spec.n_a
    for k in range(-spec.k_max, spec.k_max + 1):
        q_k = np.count_nonzero(spec.k_arr == abs(k))
        cols = [index[(k, q)] for q in range(1, q_k + 1)]
        assert cols == list(range(cols[0], cols[0] + q_k))
        np.testing.assert_array_equal(spec.roots[cols], bessel_roots(k, q_k))
    for seed in range(3):
        for a in (random_phantom(spec, 1.0, seed=seed),
                  raw_phantom(spec, 1.0, seed)):
            if not a.real_symmetric:   # exact zeros exercise signs of zero
                a.values[::5] = 0.0
            got, want = a.symmetrized(), symmetrized_reference(a)
            assert got.real_symmetric and want.real_symmetric
            assert got.values.tobytes() == want.values.tobytes()


def test_quadrature_basics():
    quad = build_quadrature(0.3, 50)
    assert np.all(quad.nodes > 0) and np.all(quad.nodes < 0.3)
    assert np.all(np.diff(quad.nodes) > 0)
    assert np.all(quad.weights > 0)
    assert abs(quad.weights.sum() - 0.3) < 1e-12 * 0.3


def test_quadrature_orthonormality(med_spec):
    """Weighted Gram (radial weights xi*w, angular part analytic 2*pi
    delta_{kk'}) should be the identity to 1e-6 at 50 nodes."""
    quad = build_quadrature(0.3, 50)
    psi = eval_basis_matrix(med_spec, quad, 0.0)
    wxi = quad.weights * quad.nodes
    gram = 2.0 * np.pi * (psi.conj().T * wxi) @ psi
    k_arr = med_spec.k_arr
    same_k = k_arr[:, None] == k_arr[None, :]
    # different k: orthogonal by the angular integral, nothing to check here
    err = np.abs(gram - np.eye(med_spec.n_a))[same_k]
    assert err.max() < 1e-6


def test_steerability_is_exact(small_spec, quad32):
    base = eval_basis_matrix(small_spec, quad32, 0.0)
    for theta in (0.37, 2.0, -1.2):
        steered = base * np.exp(1j * small_spec.k_arr * theta)[None, :]
        direct = eval_basis_matrix(small_spec, quad32, theta)
        assert np.max(np.abs(steered - direct)) < 1e-14


def test_radial_matrix_memoized(small_spec, quad32):
    """One read-only table per (spec, quadrature); inputs rebuilt from the
    same (c, R, n_xi) give the same bits."""
    radial = _radial_matrix(small_spec, quad32)
    assert _radial_matrix(small_spec, quad32) is radial
    assert not radial.flags.writeable
    with pytest.raises(ValueError):
        radial[0, 0] = 0.0
    rebuilt = _radial_matrix(build_basis_spec(0.3, 8.0), build_quadrature(0.3, 32))
    assert rebuilt is not radial
    assert np.array_equal(rebuilt, radial)


def test_basis_matrix_matches_direct_bessel(small_spec, quad32):
    """The shared radial factor times the steering phase is the direct
    formula, bit for bit, with the package's own J (its agreement with
    scipy is test_bessel_j_matches_scipy's)."""
    theta = 0.37
    direct = (bessel_j(np.abs(small_spec.k_arr),
                       np.outer(quad32.nodes / 0.3, small_spec.roots))[0]
              * small_spec.norms * np.exp(1j * small_spec.k_arr * theta))
    assert np.array_equal(eval_basis_matrix(small_spec, quad32, theta), direct)


def test_synthesis_linearity(small_spec):
    rng = np.random.default_rng(0)
    a1 = FBCoeffs(rng.standard_normal(small_spec.n_a)
                  + 1j * rng.standard_normal(small_spec.n_a), small_spec)
    a2 = FBCoeffs(rng.standard_normal(small_spec.n_a)
                  + 1j * rng.standard_normal(small_spec.n_a), small_spec)
    both = FBCoeffs(a1.values + a2.values, small_spec)
    img = synthesize_image(both.symmetrized(), 16)
    sep = (synthesize_image(a1.symmetrized(), 16)
           + synthesize_image(a2.symmetrized(), 16))
    # symmetrization is linear too, so the images must agree
    assert np.max(np.abs(img - sep)) < 1e-12 * max(1.0, np.abs(img).max())


def test_symmetrized_gives_real_image(med_phantom):
    img = synthesize_image(med_phantom, 32)
    assert np.isrealobj(img)
    resid = symmetry_residual(med_phantom)
    assert resid < 1e-14


def test_rotation_convention_quarter_turn(med_phantom):
    """Rotating coefficients by 90 degrees must rotate the image grid
    exactly (no interpolation at quarter turns)."""
    img = synthesize_image(med_phantom, 64)
    rot = synthesize_image(med_phantom.rotated(np.pi / 2.0), 64)
    # rows run top-down (row index = -y), so a CCW plane rotation is
    # rot90(..., -1) in array orientation
    err = np.linalg.norm(rot - np.rot90(img, -1)) / np.linalg.norm(img)
    assert err < 1e-3


def test_coeff_validation(small_spec):
    with pytest.raises(ValueError):
        FBCoeffs(np.zeros(small_spec.n_a + 1, dtype=complex), small_spec)


def test_rotated_roundtrip(small_phantom):
    back = small_phantom.rotated(0.7).rotated(-0.7)
    assert np.allclose(back.values, small_phantom.values, atol=1e-15)


def test_default_n_xi():
    assert default_n_xi(32) == 64
    assert default_n_xi(8) == 40  # floor kicks in


def test_synthesize_rejects_tiny_grid(small_phantom):
    with pytest.raises(ValueError):
        synthesize_image(small_phantom, 1)


def _relative(image, reference):
    return np.linalg.norm(image - reference) / np.linalg.norm(reference)


@pytest.mark.parametrize("R,grid_size", [(8.0, 16), (16.0, 32)])
@pytest.mark.parametrize("draw", [random_phantom, raw_phantom],
                         ids=["symmetric", "nonsymmetric"])
def test_closed_form_matches_quadrature(R, grid_size, draw):
    """Lommel's closed form and the polar quadrature it replaced agree to
    the quadrature's own rounding."""
    coeffs = draw(build_basis_spec(0.3, R), 1.0, seed=11)
    image = synthesize_image(coeffs, grid_size)
    assert _relative(image, quadrature_image(coeffs, grid_size)) <= 1e-12


def test_closed_form_at_a_bessel_root():
    """With c = j_{0,1} / (2*pi*sqrt(0.5)) the pixels at (+-0.5, +-0.5) sit
    on the first root of J_0 (|alpha^2 - beta^2| ~ 1e-15), where only the
    near-root limit gives a finite, accurate value."""
    spec = build_basis_spec(J0_ROOT_1 / (2.0 * np.pi * np.sqrt(0.5)), 4.0)
    coeffs = random_phantom(spec, 1.0, seed=0)
    image = synthesize_image(coeffs, 16)
    assert np.all(np.isfinite(image))
    assert _relative(image, quadrature_image(coeffs, 16)) <= 1e-10


def test_closed_form_wide_band_stays_real():
    """At c = 0.5 the old quadrature was under-resolved and left an
    imaginary residue that tripped the real-symmetry check."""
    coeffs = random_phantom(build_basis_spec(0.5, 4.0), 1.0, seed=3)
    image = synthesize_image(coeffs, 16)
    assert image.shape == (16, 16) and np.all(np.isfinite(image))
