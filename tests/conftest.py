import sys

import numpy as np
import pytest

import densctl as dc
from densctl import linalg
from densctl.fem import AdvectionTensor
from densctl.ocp_static import OcpConfig


@pytest.fixture(scope="session")
def unit_square_mesh(tmp_path_factory):
    """4-vertex, 2-triangle unit square loaded from the ASCII format."""
    path = tmp_path_factory.mktemp("mesh") / "square.txt"
    path.write_text(
        "# unit square\n"
        "4 2 4\n"
        "0.0 0.0\n"
        "1.0 0.0\n"
        "1.0 1.0\n"
        "0.0 1.0\n"
        "0 1 2\n"
        "0 2 3\n"
        "0 1 1\n"
        "1 2 1\n"
        "2 3 1\n"
        "3 0 1\n"
    )
    return dc.load_mesh(path)


@pytest.fixture(scope="session")
def small_mesh():
    """~50-node square mesh without holes."""
    return dc.generate_rect_mesh((0.0, 0.0, 1.0, 1.0), 0.18)


@pytest.fixture(scope="session")
def small_ops(small_mesh):
    return dc.assemble_operators(small_mesh, mu=1.0)


@pytest.fixture(scope="session")
def tiny_mesh():
    """<=12-node mesh for dense oracles."""
    return dc.generate_rect_mesh((0.0, 0.0, 1.0, 1.0), 0.45)


@pytest.fixture(scope="session")
def tiny_ops(tiny_mesh):
    return dc.assemble_operators(tiny_mesh, mu=1.0)


@pytest.fixture(scope="session")
def holed_mesh():
    """Square with a circular obstacle, big-ish (domain of the main scenario)."""
    return dc.generate_rect_mesh((-1, -1, 1, 1), 0.12, holes=[dc.Circle(0, 0, 0.2)])


@pytest.fixture(scope="session")
def holed_ops(holed_mesh):
    return dc.assemble_operators(holed_mesh, mu=1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def base_config():
    return OcpConfig(alpha=1.0, beta=1e-3, beta_g=1e-5, tol=1e-8, max_iter=50)


def random_control(ops, rng, scale=1.0):
    return dc.ControlField(
        scale * rng.standard_normal(ops.n), scale * rng.standard_normal(ops.n)
    )


@pytest.fixture()
def counts(monkeypatch):
    """Calls of lu_factor, through every binding, and of the tensor contraction."""
    calls = {"lu_factor": 0, "contract": 0}
    lu_factor = linalg.lu_factor
    contract_data = AdvectionTensor.contract_data

    def counted_lu(matrix):
        calls["lu_factor"] += 1
        return lu_factor(matrix)

    def counted_contract(self, u):
        calls["contract"] += 1
        return contract_data(self, u)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "densctl" and getattr(mod, "lu_factor", None) is lu_factor:
            monkeypatch.setattr(mod, "lu_factor", counted_lu)
    monkeypatch.setattr(AdvectionTensor, "contract_data", counted_contract)
    return calls
