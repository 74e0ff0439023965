import functools

import pytest

from linkspace import cli, export
from linkspace.cwcomplex import build_complex
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


@pytest.fixture(scope="session")
def complex_of():
    """The complex of a length spec, built once per spec and session: an
    n=8 build takes about half a second, and more than one test reads it."""
    return functools.cache(lambda spec: build_complex(make_linkage(parse_lengths(spec))))


@pytest.fixture(autouse=True)
def no_memo():
    """Empty linkctl's pentagon memo (`cli._memo`) before every test, so that
    the test's first `mesh` or `classify` of each chamber renders through
    the library, whatever chambers earlier tests met."""
    cli._memo.clear()


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
