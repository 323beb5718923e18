import numpy as np

import qritz.builtin
from qritz.builtin import (
    example31_basis,
    example31_eigenvector,
    example31_pencil,
    golden_checks,
)
from qritz.pencil import QuadraticPencil, qep_residual


def test_embedded_problem_is_consistent():
    p = example31_pencil()
    assert p.hermitian_pd
    # Stiffness is symmetric positive definite too.
    assert np.all(np.linalg.eigvalsh(p.K) > 0)
    _, rn = qep_residual(p, 1.0, example31_eigenvector())
    assert rn <= 1e-14
    Q = example31_basis()
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(2)) <= 1e-15


def test_all_golden_checks_pass():
    checks = golden_checks()
    assert len(checks) == 5
    assert all(ck.passed for ck in checks)


def test_negative_control_broken_damping_fails(monkeypatch):
    p = example31_pencil()
    D_bad = p.D.copy()
    D_bad[0, 0] += 1e-3
    broken = QuadraticPencil(p.M, D_bad, p.K)
    monkeypatch.setattr(qritz.builtin, "example31_pencil", lambda: broken)
    checks = {ck.name: ck for ck in golden_checks()}
    assert not checks["projected-sum-zero"].passed


def test_repeat_runs_identical():
    a = golden_checks()
    b = golden_checks()
    assert [(x.name, x.passed, x.measured) for x in a] == [
        (x.name, x.passed, x.measured) for x in b
    ]
