"""Acceptance gate: every criterion at its stated tolerance, with runtime budget.

Each test prints one ``ACCEPTANCE n: ...: PASS/FAIL`` line (visible under
``pytest -s``).  Random data is generated from a fixed seed, so the whole
module is deterministic.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from gq3 import (
    DegenerateAxis,
    GQuat,
    NonElliptic,
    ParamTriple,
    ZeroNorm,
    adjoint_closed_form,
    adjoint_group,
    adjoint_rodrigues,
    bilinear_f,
    bracket,
    char_poly,
    demoivre_pow,
    det4,
    eigenvalues,
    eigenvectors,
    family,
    killing_form,
    killing_matrix,
    left_matrix,
    matrix_pow,
    matrix_roots,
    metric_eps,
    polar_matrix,
    power_period,
    right_matrix,
    to_polar,
)
from gq3.oracle import conjugation_columns, pow_by_repetition
from helpers import (
    as_array,
    quat_close,
    random_quat,
    random_unit_elliptic,
    random_unit_norm,
    random_vec,
    rel_close,
)

from _hamilton import HQuat
from test_cli import ERROR_CASES, run as run_cli

H = family("hamilton")

ACCEPTANCE_FAMILIES = [
    ParamTriple(1.0, 1.0, 1.0),
    ParamTriple(1.0, 1.0, -1.0),
    ParamTriple(1.0, 1.0, 0.0),
    ParamTriple(1.0, -1.0, 0.0),
    ParamTriple(1.0, 0.0, 0.0),
    ParamTriple(2.0, 3.0, 5.0),
]

POSITIVE = [ParamTriple(1.0, 1.0, 1.0), ParamTriple(2.0, 3.0, 5.0),
            ParamTriple(1.0, 0.8, 2.2)]


@contextlib.contextmanager
def criterion(num: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if elapsed >= budget_s:
            raise AssertionError(f"runtime {elapsed:.2f}s exceeds the {budget_s:.0f}s budget")
    except BaseException:
        print(f"ACCEPTANCE {num}: {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num}: {name}: PASS ({elapsed:.3f}s < {budget_s:.0f}s)")


def _families_with_random(rng):
    lam, mu = rng.uniform(0.2, 2.0, size=2)
    return ACCEPTANCE_FAMILIES + [ParamTriple(1.0, lam, mu)]


def test_criterion_1_worked_power_example():
    with criterion(1, "worked third-turn example", 1.0):
        p = GQuat(-0.5, 0.5, 0.5, 0.5, H)
        form = to_polar(p)
        assert abs(form.theta - 2 * math.pi / 3) <= 1e-10
        assert abs(form.modulus - 1.0) <= 1e-10

        # Fifth power: 5*theta lands at 4*pi/3, so every component is -1/2.
        # The sign is confirmed by the independent repetition oracle.
        p5 = demoivre_pow(p, 5)
        expected5 = (-0.5, -0.5, -0.5, -0.5)
        assert all(abs(a - b) <= 1e-10 for a, b in zip(p5.components, expected5))
        assert quat_close(p5, pow_by_repetition(p, 5), 1e-10)

        p21 = demoivre_pow(p, 21)
        assert all(abs(a - b) <= 1e-10
                   for a, b in zip(p21.components, (1.0, 0.0, 0.0, 0.0)))

        a21 = as_array(matrix_pow(p, 21))
        assert np.abs(a21 - np.eye(4)).max() <= 1e-8


def test_criterion_2_periodicity_example():
    with criterion(2, "eighth-turn periodicity example", 1.0):
        s2 = math.sqrt(2)
        p = GQuat(1 / s2, 0.5, -1 / (2 * s2), 1 / (2 * s2), H)
        assert abs(p.norm() - 1.0) <= 1e-12
        assert power_period(p) == 8

        a8 = as_array(matrix_pow(p, 8))
        assert np.abs(a8 - np.eye(4)).max() <= 1e-8

        axis = to_polar(p).axis
        r0, r1 = (as_array(r) for r in matrix_roots(p, 2))
        assert np.abs(r0 - as_array(polar_matrix(axis, math.pi / 8))).max() <= 1e-12
        assert np.abs(r1 - as_array(polar_matrix(axis, 9 * math.pi / 8))).max() <= 1e-12
        assert np.abs(r0 + r1).max() <= 1e-8


def test_criterion_3_representation_homomorphism(rng):
    with criterion(3, "representation homomorphism, 1000 pairs", 5.0):
        families = _families_with_random(rng)
        count = 0
        while count < 1000:
            params = families[count % len(families)]
            p, q = random_quat(rng, params), random_quat(rng, params)
            mp, mq = as_array(left_matrix(p)), as_array(left_matrix(q))
            mpq = as_array(left_matrix(p * q))
            scale = max(1.0, np.abs(mpq).max())
            assert np.abs(mpq - mp @ mq).max() <= 1e-9 * scale

            np_, nq = as_array(right_matrix(p)), as_array(right_matrix(q))
            npq = as_array(right_matrix(p * q))
            assert np.abs(npq - nq @ np_).max() <= 1e-9 * max(1.0, np.abs(npq).max())

            prod = np.array((p * q).components)
            assert np.abs(mp @ np.array(q.components) - prod).max() <= \
                1e-9 * max(1.0, np.abs(prod).max())
            count += 1


def test_criterion_4_determinant_and_spectrum(rng):
    with criterion(4, "determinant and spectrum, 1000 samples", 5.0):
        families = _families_with_random(rng)
        count = 0
        while count < 1000:
            params = families[count % len(families)]
            p = random_quat(rng, params)
            count += 1

            assert rel_close(det4(left_matrix(p)), p.norm() ** 2, 1e-9)

            cp = char_poly(p)
            for value in eigenvalues(p):
                assert abs(cp(value)) <= 1e-8

            try:
                pairs = eigenvectors(p)
            except DegenerateAxis:
                continue  # closed forms are undefined on the degenerate set
            m = as_array(left_matrix(p)).astype(complex)
            for value, vector in pairs:
                v = np.array(vector)
                assert np.linalg.norm(m @ v - value * v) <= 1e-8 * np.linalg.norm(v)


def test_criterion_5_demoivre_vs_repetition(rng):
    with criterion(5, "angle-map powers vs repeated multiplication", 5.0):
        for params in POSITIVE:
            for _ in range(200):
                p = random_unit_elliptic(rng, params)
                for n in range(-16, 17):
                    assert quat_close(demoivre_pow(p, n), pow_by_repetition(p, n), 1e-8)


def test_criterion_6_lie_suite(rng):
    with criterion(6, "Lie structure suite", 10.0):
        families = _families_with_random(rng)
        for params in families:
            eps = as_array(metric_eps(params))
            eps_scale = max(1.0, np.abs(eps).max())
            assert np.array_equal(as_array(killing_matrix(params)), -8.0 * eps)

            for _ in range(1000):
                x, y, z = (random_vec(rng, params) for _ in range(3))
                total = (bracket(x, bracket(y, z)) + bracket(y, bracket(z, x))
                         + bracket(z, bracket(x, y)))
                assert max(abs(c) for c in total.components) <= 1e-9

                assert rel_close(killing_form(x, y), -8.0 * bilinear_f(x, y), 1e-9)

                u = random_unit_norm(rng, params)
                a = as_array(adjoint_group(u))
                assert np.abs(a.T @ eps @ a - eps).max() <= 1e-9 * eps_scale

                g = random_quat(rng, params)
                n = g.norm()
                c = as_array(adjoint_closed_form(g))
                assert np.abs(c.T @ eps @ c - n * n * eps).max() <= \
                    1e-9 * max(1.0, n * n * eps_scale)
                assert rel_close(float(np.linalg.det(c)), n ** 3, 1e-9)

        for params in POSITIVE:
            for _ in range(200):
                theta = rng.uniform(-math.pi, math.pi)
                v = random_vec(rng, params)
                ff = bilinear_f(v, v)
                axis = v.scale(1.0 / math.sqrt(ff))
                half = GQuat(math.cos(theta / 2),
                             *(math.sin(theta / 2) * c for c in axis.components), params)
                lhs = as_array(adjoint_rodrigues(axis, theta))
                rhs = as_array(conjugation_columns(half))
                assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())


def test_criterion_7_hamilton_degeneration(rng):
    with criterion(7, "degeneration to classical quaternions", 2.0):
        count = 0
        while count < 1000:
            kind = count % 6
            comps = rng.standard_normal(4)
            p = GQuat.from_components(comps, H)
            hp = HQuat(*comps)
            count += 1

            if kind == 0:
                comps_q = rng.standard_normal(4)
                q = GQuat.from_components(comps_q, H)
                hq = HQuat(*comps_q)
                got, expect = (p * q).components, (hp * hq).components
            elif kind == 1:
                got, expect = p.conj().components, hp.conj().components
            elif kind == 2:
                got, expect = (p.norm(),), (hp.norm(),)
            elif kind == 3:
                if abs(hp.norm()) < 1e-3:
                    continue
                got, expect = p.inverse().components, hp.inverse().components
            elif kind == 4:
                if math.sqrt(comps[1] ** 2 + comps[2] ** 2 + comps[3] ** 2) < 1e-3:
                    continue
                form = to_polar(p)
                mag, theta, axis = hp.polar()
                got = (form.modulus, form.theta, *form.axis.components)
                expect = (mag, theta, *axis)
            else:
                if math.sqrt(comps[1] ** 2 + comps[2] ** 2 + comps[3] ** 2) < 1e-3:
                    continue
                n = int(rng.integers(-6, 7))
                got = demoivre_pow(p, n).components
                expect = hp.pow(n).components

            for a, b in zip(got, expect):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def test_criterion_8_error_paths():
    with criterion(8, "error-path coverage", 5.0):
        split = ParamTriple(1.0, 1.0, -1.0)

        # A null split quaternion: 1 + e2 has norm 1 + l13 = 1 - 1 = 0 by the formula.
        null = GQuat(1.0, 0.0, 1.0, 0.0, split)
        assert null.norm() == 1.0 + split.l13 == 0.0
        with pytest.raises(ZeroNorm):
            null.inverse()
        with pytest.raises(ZeroNorm):
            to_polar(null)

        # Non-elliptic: positive norm but non-positive discriminant.
        skew_elem = GQuat(2.0, 0.0, 0.0, 1.0, split)
        assert skew_elem.norm() > 0
        with pytest.raises(NonElliptic):
            to_polar(skew_elem)

        # Degenerate eigenvector denominator at a2 = a3 = 0.
        with pytest.raises(DegenerateAxis):
            eigenvectors(GQuat(1.0, 2.0, 0.0, 0.0, H))

        # Every library error code is reachable through the CLI with exit 1.
        from gq3 import errors
        reachable = set()
        for argv, expected_code in ERROR_CASES:
            code, out, err = run_cli(argv)
            assert code == 1
            reachable.add(expected_code)
        all_codes = {
            cls.code
            for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, errors.AlgebraError)
            and cls is not errors.AlgebraError
        }
        assert reachable == all_codes
