"""Matrix decompositions, circle quadrature nodes, invariant sampling."""

import numpy as np
import pytest

from sphreg import liegroup as lg
from sphreg.liegroup import SpecialLinearElement


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])


def random_element(rng, n):
    while True:
        a = rng.standard_normal((n, n))
        if np.linalg.det(a) < 0:
            a[:, 0] *= -1.0
        if np.linalg.det(a) > 1e-6 and np.linalg.cond(a) < 1e6:
            return SpecialLinearElement.from_array(a)


def test_construction_normalizes_determinant():
    g = SpecialLinearElement.from_array(3.7 * np.eye(3))
    assert abs(np.linalg.det(g.entries) - 1.0) <= 1e-9


def test_construction_rejects_nonpositive_determinant():
    with pytest.raises(ValueError):
        SpecialLinearElement.from_array(np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        SpecialLinearElement.from_array(np.ones((2, 3)))


def test_construction_is_scale_free():
    for scale in (1e-310, 1e-200, 1e200, 1e300):
        g = SpecialLinearElement.from_array(scale * np.eye(2))
        assert np.allclose(g.entries, np.eye(2), rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="numerically singular"):
        SpecialLinearElement.from_array(np.diag([1.0] + [1e-320] * 29))


def test_iwasawa_of_rotation_is_trivial():
    g = SpecialLinearElement.from_array(rotation(0.7))
    fac = lg.iwasawa(g)
    assert np.allclose(fac.h, 0.0, atol=1e-12)
    assert np.allclose(fac.nu, np.eye(2), atol=1e-12)


def test_iwasawa_of_diagonal():
    h = np.array([0.4, -0.1, -0.3])
    g = SpecialLinearElement.diagonal(h)
    fac = lg.iwasawa(g)
    assert np.allclose(fac.h, h, atol=1e-12)
    assert np.allclose(fac.k, np.eye(3), atol=1e-12)
    assert np.allclose(fac.nu, np.eye(3), atol=1e-12)


@pytest.mark.parametrize("x", [0.3, -1.7, 4.0])
def test_iwasawa_lower_shear(x):
    g = SpecialLinearElement.from_array(np.array([[1.0, 0.0], [x, 1.0]]))
    fac = lg.iwasawa(g)
    expected = 0.5 * np.log(1.0 + x * x)
    assert np.allclose(fac.h, [expected, -expected], atol=1e-12)


def test_iwasawa_invariants_random():
    rng = np.random.default_rng(7)
    for i in range(100):
        n = 2 if i % 2 == 0 else 3
        g = random_element(rng, n)
        fac = lg.iwasawa(g)
        assert np.linalg.norm(fac.reconstruct() - g.entries) <= 1e-10
        assert np.linalg.norm(fac.k.T @ fac.k - np.eye(n)) <= 1e-12
        assert abs(fac.h.sum()) <= 1e-9
        assert np.allclose(np.diag(fac.nu), 1.0)
        assert np.allclose(np.tril(fac.nu, -1), 0.0)


def test_projection_left_invariance():
    rng = np.random.default_rng(8)
    for i in range(100):
        n = 2 if i % 2 == 0 else 3
        g = random_element(rng, n)
        k = lg.haar_so_n_sample(n, 100 + i, 1)[0]
        kg = SpecialLinearElement(n, k @ g.entries)
        assert np.max(np.abs(lg.iwasawa_projection(kg) - lg.iwasawa_projection(g))) <= 1e-9


def test_exp_log_consistency():
    h = np.array([1.2, -0.2, -1.0])
    fac = lg.iwasawa(SpecialLinearElement.diagonal(h))
    assert np.allclose(fac.h, h, atol=1e-12)


def test_kak_examples():
    g = SpecialLinearElement.from_array(rotation(1.1))
    assert np.allclose(lg.kak(g).a_log, 0.0, atol=1e-12)

    g = SpecialLinearElement.diagonal([1.0, 0.0, -1.0])
    fac = lg.kak(g)
    assert np.allclose(fac.a_log, [1.0, 0.0, -1.0], atol=1e-12)
    assert np.allclose(np.abs(fac.k1), np.eye(3), atol=1e-12)


def test_kak_round_trip_and_conventions():
    rng = np.random.default_rng(9)
    for i in range(200):
        n = 2 if i % 2 == 0 else 3
        g = random_element(rng, n)
        fac = lg.kak(g)
        assert np.linalg.norm(fac.reconstruct() - g.entries) <= 1e-10
        assert np.all(np.diff(fac.a_log) <= 1e-12)
        assert abs(fac.a_log.sum()) <= 1e-9
        assert np.linalg.det(fac.k1) > 0
        assert np.linalg.det(fac.k2) > 0


def test_kak_bi_invariance_of_chamber_part():
    rng = np.random.default_rng(10)
    for i in range(50):
        g = random_element(rng, 3)
        k1 = lg.haar_so_n_sample(3, 500 + i, 1)[0]
        k2 = lg.haar_so_n_sample(3, 900 + i, 1)[0]
        moved = SpecialLinearElement(3, k1 @ g.entries @ k2)
        assert np.allclose(lg.kak(moved).a_log, lg.kak(g).a_log, atol=1e-10)


def test_is_regular():
    assert not lg.is_regular(SpecialLinearElement.from_array(np.eye(3)))
    assert lg.is_regular(SpecialLinearElement.diagonal([1.0, 0.0, -1.0]))
    assert not lg.is_regular(SpecialLinearElement.diagonal([1.0, 1.0, -2.0]))


def test_chamber_projection_smoothness_proxy():
    # difference quotients of the chamber part stay O(eps) at a regular point
    k1 = lg.haar_so_n_sample(3, 41, 1)[0]
    k2 = lg.haar_so_n_sample(3, 42, 1)[0]
    g = SpecialLinearElement.from_array(k1 @ np.diag(np.exp([1.0, 0.2, -1.2])) @ k2)
    assert lg.is_regular(g)
    direction = np.zeros((3, 3))
    direction[0, 1] = 1.0
    base = lg.kak(g).a_log
    ratios = []
    for eps in (1e-4, 1e-5, 1e-6):
        moved = SpecialLinearElement.from_array(g.entries + eps * direction)
        ratios.append(np.linalg.norm(lg.kak(moved).a_log - base) / eps)
    assert max(ratios) / min(ratios) < 1.05


def test_singular_input_raises():
    bad = np.eye(3)
    bad[2, 2] = 1e-300
    with pytest.raises(Exception):
        lg.iwasawa(SpecialLinearElement(3, bad))


def test_haar_samples_orthogonal_and_deterministic():
    qs = lg.haar_so_n_sample(3, 123, 64)
    for q in qs:
        assert np.linalg.norm(q.T @ q - np.eye(3)) <= 1e-12
        assert abs(np.linalg.det(q) - 1.0) <= 1e-12
    again = lg.haar_so_n_sample(3, 123, 64)
    assert np.array_equal(qs, again)
    other = lg.haar_so_n_sample(3, 124, 64)
    assert not np.array_equal(qs, other)


def test_haar_mean_entry_vanishes():
    qs = lg.haar_so_n_sample(3, 2024, 100_000)
    mean = qs[:, 0, 0].mean()
    assert abs(mean) <= 0.02


def test_matrix_io_round_trip():
    rng = np.random.default_rng(5)
    g = random_element(rng, 3)
    text = lg.write_matrix(g)
    back = lg.read_matrix(text)
    assert np.allclose(back.entries, g.entries, atol=1e-15)
    with pytest.raises(ValueError):
        lg.read_matrix("2\n1 0 0 1 5")
    with pytest.raises(ValueError):
        lg.read_matrix("")
