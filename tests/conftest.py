import pytest

from linkspace import export
from linkspace.export import REPRESENTATIVES
from linkspace.geometry import perform_surgery, permutohedron
from linkspace.linkage import make_linkage, parse_lengths


@pytest.fixture(scope="session")
def representatives():
    """The six standard pentagons, eps = 1/100."""
    return [(rep, make_linkage(parse_lengths(rep.spec))) for rep in REPRESENTATIVES]


@pytest.fixture(scope="session")
def meshes(representatives):
    return [(rep, linkage, perform_surgery(linkage)) for rep, linkage in representatives]


@pytest.fixture
def projected(monkeypatch):
    """The 24 float points of R^3 that the mesh writer formats for
    `permutohedron()`'s points, in their order: the floats
    `export._vertex_lines` hands `_fmt_coord`, caught by running it afresh."""
    coords, fmt = [], export._fmt_coord
    monkeypatch.setattr(export, "_fmt_coord", lambda x: coords.append(x) or fmt(x))
    export._vertex_lines.cache_clear()
    export._vertex_lines(permutohedron())
    return list(zip(*[iter(coords)] * 3))
