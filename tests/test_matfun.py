import math

import numpy as np
import pytest

from trigcolloc import matfun as mf
from trigcolloc.errors import (
    AsymmetricMatrixError,
    IndefiniteMatrixError,
    SeriesConvergenceError,
)

AGREE_TOL = 1e-12
RNG_SEED = 8675309


def random_spd(rng, d, scale=1.0):
    A = rng.standard_normal((d, d))
    return scale * (A @ A.T) / d + 1e-3 * np.eye(d)


def test_sinc_basic_values():
    assert mf.sinc(0.0) == 1.0
    assert abs(mf.sinc(math.pi)) < 1e-15
    assert abs(mf.sinc(2.0) - math.sin(2.0) / 2.0) < 1e-15


def test_sinc_taylor_switch_is_seamless():
    for x in (9.9e-5, 1.01e-4, -9.9e-5):
        direct = math.sin(x) / x
        assert abs(mf.sinc(x) - direct) < 1e-15


def test_sinc_accepts_arrays():
    x = np.array([0.0, 1e-6, 0.5, 3.0])
    out = mf.sinc(x)
    assert out.shape == x.shape
    assert abs(out[0] - 1.0) < 1e-15
    assert abs(out[3] - math.sin(3.0) / 3.0) < 1e-15


def test_series_matches_cosine_on_scalar():
    for v in (0.0, 1e-8, 0.3, 4.0, 25.0):
        phi0, phi1 = mf.phi_pair_series(np.array([[v]]))
        lam = math.sqrt(v)
        assert abs(phi0[0, 0] - math.cos(lam)) < AGREE_TOL
        assert abs(phi1[0, 0] - mf.sinc(lam)) < AGREE_TOL


def test_series_vs_spectral_on_random_spd():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(6):
        d = int(rng.integers(2, 6))
        M = random_spd(rng, d, scale=float(rng.uniform(0.5, 8.0)))
        sd = mf.decompose_symmetric(M)
        for scale in (1.0, 0.5):
            a = mf.phi_pair_series(scale * scale * M)
            b = mf.phi_pair_spectral(sd, scale)
            assert np.abs(a[0] - b[0]).max() < AGREE_TOL
            assert np.abs(a[1] - b[1]).max() < AGREE_TOL


def test_series_norm_guard():
    with pytest.raises(SeriesConvergenceError):
        mf.phi_pair_series(40.0 * np.eye(2))


def test_decompose_rejects_asymmetric():
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(AsymmetricMatrixError):
        mf.decompose_symmetric(M)


def test_decompose_rejects_indefinite():
    M = np.diag([4.0, -1.0])
    with pytest.raises(IndefiniteMatrixError):
        mf.decompose_symmetric(M)


def test_decompose_clamps_tiny_negative_eigenvalue():
    # build a matrix whose smallest eigenvalue is a round-off-scale
    # negative number relative to its norm
    theta = 0.3
    R = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    M = R @ np.diag([-1e-13, 4.0]) @ R.T
    M = 0.5 * (M + M.T)
    sd = mf.decompose_symmetric(M)
    assert np.all(sd.freqs >= 0.0)
    assert sd.freqs.min() ** 2 <= 1e-12


def test_decomposition_reconstructs_matrix():
    rng = np.random.default_rng(RNG_SEED + 2)
    M = random_spd(rng, 5, scale=3.0)
    sd = mf.decompose_symmetric(M)
    back = sd.transform.T @ np.diag(sd.freqs**2) @ sd.transform
    assert np.abs(back - M).max() < 1e-10


def test_phi_identity_trig_pythags():
    # cos^2 + (x sinc x)^2 = 1 elementwise in the eigenbasis
    rng = np.random.default_rng(RNG_SEED + 3)
    M = random_spd(rng, 4, scale=5.0)
    sd = mf.decompose_symmetric(M)
    phi0, phi1 = mf.phi_pair_spectral(sd, 1.0)
    c = sd.transform @ phi0 @ sd.transform.T
    s = sd.transform @ phi1 @ sd.transform.T
    lam = sd.freqs
    diag_c = np.diag(c)
    diag_s = np.diag(s) * lam
    assert np.abs(diag_c**2 + diag_s**2 - 1.0).max() < 1e-12
