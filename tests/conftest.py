import numpy as np
import pytest

import conetip as ct


@pytest.fixture(scope="session")
def quarter_tip():
    return ct.CapGeometry("internal", np.pi / 4)


@pytest.fixture(scope="session")
def critical_material():
    return ct.MaterialSpec.from_contrast(-0.5)


@pytest.fixture(scope="session")
def positive_material():
    return ct.MaterialSpec.from_contrast(1.0)


@pytest.fixture(scope="session")
def critical_pencil(quarter_tip, critical_material):
    return ct.assemble_pencil(ct.build_cap(quarter_tip, critical_material, 0, 64, 2))


@pytest.fixture(scope="session")
def critical_spectrum(critical_pencil):
    return ct.solve_pencil(critical_pencil)


@pytest.fixture(scope="session")
def line_evs(quarter_tip, critical_material):
    evs = []
    for mode in range(5):
        spec = ct.solve_pencil(ct.pencil_for(quarter_tip, critical_material, mode, 64, 2))
        evs.extend(ct.line_eigenvalues(spec))
    return evs


@pytest.fixture(scope="session")
def multi_eta_evs(quarter_tip):
    """kappa = -0.85 carries two line eigenvalues in mode 1 and one in mode 0."""
    mat = ct.MaterialSpec.from_contrast(-0.85)
    evs = []
    for mode in range(3):
        spec = ct.solve_pencil(ct.pencil_for(quarter_tip, mat, mode, 96, 2))
        evs.extend(ct.line_eigenvalues(spec))
    return evs


@pytest.fixture(scope="session")
def singular_space_small(line_evs):
    return ct.singular_space(line_evs, rho=1.0)


@pytest.fixture(scope="session")
def flux_small(singular_space_small):
    return ct.flux_matrix(singular_space_small)


@pytest.fixture(scope="session")
def basis_small(flux_small):
    return ct.mandelstam_basis(flux_small)


@pytest.fixture(scope="session")
def space_multi(multi_eta_evs):
    return ct.singular_space(multi_eta_evs, rho=1.0)


@pytest.fixture(scope="session")
def flux_multi(space_multi):
    return ct.flux_matrix(space_multi)


@pytest.fixture(scope="session")
def basis_multi(flux_multi):
    return ct.mandelstam_basis(flux_multi)


def defective_pencil(eta=1.0):
    """Exactly defective 2x2 symbol pencil: eigenvalue on the line with a
    sigma-self-orthogonal eigenvector and a Jordan chain of length 2."""
    Lam = -0.25 - eta * eta
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    A = Lam * B + np.array([[0.0, 0.0], [0.0, 1.0]])
    one = np.eye(2)
    return ct.PencilMatrices(A=A, B=B, stiffness_one=one.copy(),
                             mass_one=one.copy(), cap=None, delta=0.0)


def defective_line_eigenvalue(eta=1.0):
    """The defective pencil with its exact eigenvector, built by hand so the
    chain and flux tests do not rest on the eigensolver (``line_eigenvalues``
    finds the same line eigenvalue from ``solve_pencil``)."""
    P = defective_pencil(eta)
    phi = np.array([1.0 + 0j, 0.0])
    le = ct.LineEigenvalue(eta=eta, Lambda=-0.25 - eta * eta, mode=0,
                           vector=phi, gram=complex(phi @ (P.B @ phi)),
                           pencil=P)
    return P, le
