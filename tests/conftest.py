import sys

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.spatial import Delaunay

import densctl as dc
from densctl import linalg
from densctl.fem import AdvectionTensor
from densctl.mesh import Mesh, validate_mesh
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
    """Calls of lu_factor and bordered_solve, through every binding, and of
    the tensor contraction."""
    calls = {"lu_factor": 0, "bordered_solve": 0, "contract": 0}
    contract_data = AdvectionTensor.contract_data

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for fn in (linalg.lu_factor, linalg.bordered_solve):
        wrapper = counted(fn.__name__, fn)
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "densctl" and getattr(mod, fn.__name__, None) is fn:
                monkeypatch.setattr(mod, fn.__name__, wrapper)
    monkeypatch.setattr(AdvectionTensor, "contract_data", counted("contract", contract_data))
    return calls


@st.composite
def _delaunay_meshes(draw):
    """Delaunay triangulation of a jittered ring of boundary points around a
    disc of uniform interior points: unstructured throughout, unlike
    ``generate_rect_mesh``, whose meshes are an aligned lattice away from
    their holes.  Triangles are counterclockwise and the ring is one boundary
    loop with marker 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_ring, n_in = draw(st.integers(8, 40)), draw(st.integers(0, 150))
    phi = 2.0 * np.pi * (np.arange(n_ring) + rng.uniform(-0.3, 0.3, n_ring)) / n_ring
    # interior points stay inside the ring polygon, whose widest gap sets its inradius
    inner = 0.95 * np.cos(0.5 * np.diff(phi, append=phi[0] + 2.0 * np.pi).max())
    r = inner * np.sqrt(rng.uniform(size=n_in))
    psi = rng.uniform(0.0, 2.0 * np.pi, n_in)
    verts = np.vstack([
        np.stack([np.cos(phi), np.sin(phi)], axis=1),
        np.stack([r * np.cos(psi), r * np.sin(psi)], axis=1),
    ])
    tris = Delaunay(verts).simplices.astype(np.int64)
    p1, p2, p3 = (verts[tris[:, k]] for k in range(3))
    area = 0.5 * ((p2 - p1)[:, 0] * (p3 - p1)[:, 1] - (p2 - p1)[:, 1] * (p3 - p1)[:, 0])
    tris[area < 0] = tris[area < 0][:, [0, 2, 1]]
    ring = np.arange(n_ring)
    mesh = Mesh(
        vertices=verts,
        triangles=tris,
        boundary_edges=np.stack([ring, (ring + 1) % n_ring], axis=1),
        boundary_markers=np.ones(n_ring, dtype=np.int64),
        domain_area=float(np.abs(area).sum()),
    )
    validate_mesh(mesh)
    return mesh
