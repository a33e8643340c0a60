import dataclasses

import pytest

from hkforge import solver
from hkforge.lattice import Lattice, Spectrum
from hkforge.models import ov_model, pentagon_model
from hkforge.semiflat import ModelPoint
from hkforge.solver import solve


@pytest.fixture(autouse=True)
def empty_solve_memo():
    """Each test starts with no stored solve, so none reads another's."""
    solver._SOLVED.clear()


@pytest.fixture(scope="session")
def ov():
    return ov_model()


@pytest.fixture(scope="session")
def pentagon():
    return pentagon_model()


@pytest.fixture(scope="session")
def ov_point():
    return ModelPoint(0.5, 1.0, (0.3, 1.1))


@pytest.fixture(scope="session")
def ov_solution(ov, ov_point):
    return solve(ov, ov_point)


@pytest.fixture(scope="session")
def pentagon_point():
    # strong-coupling point with asymmetric |Z| so corrections are visible
    return ModelPoint(1.5 + 0.2j, 2.0, (0.37, 1.29))


@pytest.fixture(scope="session")
def pentagon_solution(pentagon, pentagon_point):
    return solve(pentagon, pentagon_point, tol_iter=1e-12)


@pytest.fixture(scope="session")
def pairing_two(pentagon):
    """Stub models by Omega: the pentagon's rays on a lattice where its
    charges pair to 2, with Omega 1 and with Omega -2.  Every bundled model
    has |<gamma, gamma'>| = Omega = 1 between active charges, where p and
    p^3, or Omega and Omega^2, agree."""
    model = dataclasses.replace(pentagon, lattice=Lattice(((0, 2), (-2, 0))))
    spectrum = model.spectrum
    return {1: model, -2: model.with_spectrum(Spectrum(
        lambda g, u: -2 * spectrum.omega(g, u), spectrum.support))}
