import pytest

from linkspace.export import REPRESENTATIVES
from linkspace.geometry import perform_surgery
from linkspace.linkage import make_linkage, parse_lengths


@pytest.fixture(scope="session")
def representatives():
    """The six standard pentagons, eps = 1/100."""
    return [(rep, make_linkage(parse_lengths(rep.spec))) for rep in REPRESENTATIVES]


@pytest.fixture(scope="session")
def meshes(representatives):
    return [(rep, linkage, perform_surgery(linkage)) for rep, linkage in representatives]
