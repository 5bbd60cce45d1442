import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference import DegenerateQuaternionError, EulerAngles, Quaternion, hamilton, wrap_pi

from navfuse.quat import from_euler, rotate, rotate_inverse


def random_unit_quats(rng, n):
    v = rng.normal(size=(n, 4))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return [Quaternion(*row) for row in v]


def rodrigues_matrix(axis, angle):
    """Independent axis-angle rotation matrix (Rodrigues formula)."""
    k = np.asarray(axis, dtype=float)
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + math.sin(angle) * kx + (1 - math.cos(angle)) * (kx @ kx)


class TestFromAxisAngle:
    def test_zero_rotation_is_identity(self):
        q = Quaternion.from_axis_angle((0, 0, 1), 0.0)
        assert (q.w, q.x, q.y, q.z) == (1.0, 0.0, 0.0, 0.0)

    def test_half_turn_about_z(self):
        q = Quaternion.from_axis_angle((0, 0, 1), math.pi)
        assert q.w == pytest.approx(0.0, abs=1e-15)
        assert (q.x, q.y) == (0.0, 0.0)
        assert q.z == pytest.approx(1.0, abs=1e-15)

    def test_matches_rodrigues_oracle(self):
        axis = (1 / math.sqrt(3),) * 3
        q = Quaternion.from_axis_angle(axis, 0.7)
        np.testing.assert_allclose(q.to_rotation_matrix(), rodrigues_matrix(axis, 0.7), atol=1e-12)

    def test_non_unit_axis_rejected(self):
        with pytest.raises(ValueError):
            Quaternion.from_axis_angle((0, 0, 2), 0.5)


class TestHamilton:
    def test_identity_element(self):
        q = Quaternion(0.5, 0.5, 0.5, 0.5)
        assert hamilton(Quaternion.identity(), q) == q
        assert hamilton(q, Quaternion.identity()) == q

    def test_ij_equals_k(self):
        i = Quaternion(0, 1, 0, 0)
        j = Quaternion(0, 0, 1, 0)
        assert hamilton(i, j) == Quaternion(0, 0, 0, 1)

    def test_norm_multiplicative(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = Quaternion(*rng.normal(size=4))
            q = Quaternion(*rng.normal(size=4))
            assert hamilton(p, q).norm() == pytest.approx(p.norm() * q.norm(), rel=1e-12)

    def test_rotation_homomorphism(self):
        rng = np.random.default_rng(4)
        for p, q in zip(random_unit_quats(rng, 200), random_unit_quats(rng, 200)):
            lhs = hamilton(p, q).to_rotation_matrix()
            rhs = p.to_rotation_matrix() @ q.to_rotation_matrix()
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_associativity(self):
        rng = np.random.default_rng(5)
        qs = random_unit_quats(rng, 300)
        for p, q, r in zip(qs[::3], qs[1::3], qs[2::3]):
            a = hamilton(hamilton(p, q), r)
            b = hamilton(p, hamilton(q, r))
            np.testing.assert_allclose([a.w, a.x, a.y, a.z], [b.w, b.x, b.y, b.z], atol=1e-9)


class TestRotateVector:
    def test_identity_passthrough(self):
        assert Quaternion.identity().rotate_vector((3, 4, 5)) == (3.0, 4.0, 5.0)

    def test_quarter_turn(self):
        q = Quaternion.from_axis_angle((0, 0, 1), math.pi / 2)
        v = q.rotate_vector((1, 0, 0))
        np.testing.assert_allclose(v, (0, 1, 0), atol=1e-15)

    def test_matches_matrix_apply(self):
        rng = np.random.default_rng(6)
        for q in random_unit_quats(rng, 100):
            v = rng.normal(size=3)
            np.testing.assert_allclose(q.rotate_vector(v), q.to_rotation_matrix() @ v, atol=1e-12)

    def test_norm_preserved(self):
        rng = np.random.default_rng(7)
        for q in random_unit_quats(rng, 100):
            v = rng.normal(size=3)
            rotated = q.rotate_vector(v)
            assert np.linalg.norm(rotated) == pytest.approx(np.linalg.norm(v), abs=1e-9)

    def test_non_unit_rejected(self):
        with pytest.raises(ValueError):
            Quaternion(2, 0, 0, 0).rotate_vector((1, 0, 0))


class TestRotationMatrix:
    def test_identity(self):
        np.testing.assert_array_equal(Quaternion.identity().to_rotation_matrix(), np.eye(3))

    def test_half_turn_about_x(self):
        q = Quaternion.from_axis_angle((1, 0, 0), math.pi)
        np.testing.assert_allclose(q.to_rotation_matrix(), np.diag([1.0, -1.0, -1.0]), atol=1e-15)

    def test_orthogonal_det_plus_one(self):
        rng = np.random.default_rng(8)
        for q in random_unit_quats(rng, 100):
            m = q.to_rotation_matrix()
            np.testing.assert_allclose(m.T @ m, np.eye(3), atol=1e-9)
            assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-9)

    def test_double_cover(self):
        rng = np.random.default_rng(9)
        for q in random_unit_quats(rng, 50):
            neg = Quaternion(-q.w, -q.x, -q.y, -q.z)
            np.testing.assert_allclose(q.to_rotation_matrix(), neg.to_rotation_matrix(), atol=1e-12)


class TestEuler:
    def test_identity_gives_zero_angles(self):
        assert Quaternion.identity().to_euler() == (0.0, 0.0, 0.0)

    def test_pure_yaw(self):
        e = Quaternion.from_axis_angle((0, 0, 1), math.pi / 2).to_euler()
        assert e.roll == pytest.approx(0.0, abs=1e-15)
        assert e.pitch == pytest.approx(0.0, abs=1e-15)
        assert e.yaw == pytest.approx(math.pi / 2, abs=1e-15)

    def test_from_euler_identity(self):
        q = Quaternion.from_euler(EulerAngles(0, 0, 0))
        assert (q.w, q.x, q.y, q.z) == (1.0, 0.0, 0.0, 0.0)

    def test_roll_pi(self):
        q = Quaternion.from_euler(EulerAngles(math.pi, 0, 0)).normalize()
        assert q.x == pytest.approx(1.0, abs=1e-15)
        assert abs(q.w) == pytest.approx(0.0, abs=1e-15)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            e = EulerAngles(
                rng.uniform(-math.pi + 1e-6, math.pi),
                rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01),
                rng.uniform(-math.pi + 1e-6, math.pi),
            )
            back = Quaternion.from_euler(e).to_euler()
            np.testing.assert_allclose(back, e, atol=1e-9)

    def test_from_euler_matches_axis_angle_composition(self):
        e = EulerAngles(0.3, -0.4, 1.2)
        qz = Quaternion.from_axis_angle((0, 0, 1), e.yaw)
        qy = Quaternion.from_axis_angle((0, 1, 0), e.pitch)
        qx = Quaternion.from_axis_angle((1, 0, 0), e.roll)
        expected = hamilton(hamilton(qz, qy), qx)
        got = Quaternion.from_euler(e)
        np.testing.assert_allclose(
            [got.w, got.x, got.y, got.z], [expected.w, expected.x, expected.y, expected.z], atol=1e-15
        )

    def test_near_gimbal_pole_stays_orthogonal(self):
        q = Quaternion.from_euler(EulerAngles(0.2, math.pi / 2 - 1e-4, -0.7)).normalize()
        m = q.to_rotation_matrix()
        np.testing.assert_allclose(m.T @ m, np.eye(3), atol=1e-9)

    def test_asin_clamped_at_pole(self):
        # round-off can push |2(wy - xz)| just past 1; must not raise
        q = Quaternion.from_euler(EulerAngles(0.0, math.pi / 2, 0.0)).normalize()
        assert q.to_euler().pitch == pytest.approx(math.pi / 2, abs=1e-9)


class TestNormalize:
    def test_scales_to_unit(self):
        assert Quaternion(2, 0, 0, 0).normalize() == Quaternion(1, 0, 0, 0)

    def test_sign_canonicalized(self):
        assert Quaternion(-1, 0, 0, 0).normalize() == Quaternion(1, 0, 0, 0)

    def test_uniform_components(self):
        q = Quaternion(1, 1, 1, 1).normalize()
        assert (q.w, q.x, q.y, q.z) == (0.5, 0.5, 0.5, 0.5)

    def test_near_zero_rejected(self):
        with pytest.raises(DegenerateQuaternionError):
            Quaternion(1e-13, 0, 0, 0).normalize()


def test_wrap_pi_range():
    for x in np.linspace(-20, 20, 2001):
        w = wrap_pi(float(x))
        assert -math.pi < w <= math.pi
        assert math.isclose(math.sin(w), math.sin(x), abs_tol=1e-12)
        assert math.isclose(math.cos(w), math.cos(x), abs_tol=1e-12)
    assert wrap_pi(math.pi) == math.pi
    assert wrap_pi(-math.pi) == math.pi


unit_quats = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda c: sum(x * x for x in c) > 0.01)


@given(st.lists(st.tuples(unit_quats, st.tuples(*[st.floats(-100.0, 100.0)] * 3)), min_size=1, max_size=20))
def test_rotate_is_the_reference_matrix(rows):
    """``rotate`` is R(q) v and ``rotate_inverse`` R(q)^T v, and each undoes the other."""
    q = np.array([c for c, _ in rows])
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    v = np.array([v for _, v in rows])
    m = [Quaternion(*row).to_rotation_matrix() for row in q]
    np.testing.assert_allclose(rotate(q, *v.T), [r @ x for r, x in zip(m, v)], rtol=0, atol=1e-12)
    np.testing.assert_allclose(rotate_inverse(q, *v.T), [r.T @ x for r, x in zip(m, v)], rtol=0, atol=1e-12)
    np.testing.assert_allclose(rotate_inverse(q, *rotate(q, *v.T).T), v, rtol=0, atol=1e-12)
    np.testing.assert_allclose(rotate(q, *rotate_inverse(q, *v.T).T), v, rtol=0, atol=1e-12)
    assert rotate(q, *v.T, rows=2).tobytes() == rotate(q, *v.T)[:, :2].tobytes()  # bit for bit


def test_truth_quaternions_are_from_euler_but_not_its_bits(std_clean_flight):
    """The simulator assembles the truth's quaternions itself, because
    ``from_euler`` of its angles differs in the bits of every row (its 0.0 - a
    is +0.0 where the truth's -a is -0.0, and its normalization moves some
    rows by an ulp), which ``TRUTH_ARRAY_BITS`` would see."""
    q = from_euler(std_clean_flight[1].euler)
    np.testing.assert_array_max_ulp(q, std_clean_flight[1].q, maxulp=1)
    assert (q.view(np.int64) != std_clean_flight[1].q.view(np.int64)).any(axis=1).all()
