"""Byte-identity of the CLI's outputs, pinned by sha256.

The pentagon, `tables` and `verify` digests were taken from the outputs of
an earlier, label-based surgery (each face's arcs re-derived from
refinements of its label).  The `classify` and `complex` digests for n = 4,
6 and 7 were taken at commit a4e3730, the last builder that wired every
grade of the complex on every build, before `classify` at n != 5 came to
wire only the 1-skeleton, and later at n >= 6 to build no complex.  Any
change to the surgery, the complex or the writers that moves a byte fails
here.
"""

import contextlib
import hashlib
import io
from itertools import product

import pytest

from linkspace.cli import main
from linkspace.export import export_mesh
from linkspace.geometry import perform_surgery
from linkspace.linkage import LinkageError, make_linkage

GOLDEN = [
    (['mesh', '1,1,1,1,3'], '98341a13644f671c36dbb5dfde1ccb62e6229a46f62305ac0df24a1a04fd823b'),
    (['mesh', '1,1,1,1,3', '--format', 'ply'], 'bf6d3712084b7dfd84dcded39d5e32cf869f84b4e2cc5a247c7b7c1b15d4e0d9'),
    (['mesh', '1,1,1,1,3', '--triangulate'], 'b418820ce89ca5f42a6de3426d7e49dd9c2648442cd27270a1c8e6ce07a8689c'),
    (['classify', '1,1,1,1,3', '--format', 'json'], '15da826dccd4bd615e974de25f25da4dd5be24481173374f2eed59a3d1013d3e'),
    (['mesh', '1,1,1,eps,2'], '35ac77e4d5edd88b89bd4298732f719db0d3079808f4838340ec9366bea17b01'),
    (['mesh', '1,1,1,eps,2', '--format', 'ply'], '30e0bc72021d9983b8d0a299b34f7c998c7121ce9e6c23badbf62e521abff529'),
    (['mesh', '1,1,1,eps,2', '--triangulate'], 'c4c2ea00c06bf235ef6ab18dffe5b98d50d297cab1cdb53d048297d0b7ec3eea'),
    (['classify', '1,1,1,eps,2', '--format', 'json'], 'fb0d0744cba4aa94cda82e3acc807c4d3d29e6cbe1312a104602c7823001bab5'),
    (['mesh', '2,2,1,1,3'], 'd4f90cbc083025f721d9041a975281e732def607d3154eef73d8c93b621497fe'),
    (['mesh', '2,2,1,1,3', '--format', 'ply'], 'd994fc9bd974ccc1b68c6b269659837ff4ab17660c9c696f3e696cf70cbe9842'),
    (['mesh', '2,2,1,1,3', '--triangulate'], 'c8657e805f93bfa6a44dc3fe7a582350c3907105969393cb83d089772138bf58'),
    (['classify', '2,2,1,1,3', '--format', 'json'], '04ee0cca184ea60a4213259262ba8d19f8c376b167ea0e458d526b4bd4424f97'),
    (['mesh', '1,1,eps,eps,1'], 'b5e5d22c2d6753a1556c6465eb58c37883a7f21e39a10537e938f02edd102145'),
    (['mesh', '1,1,eps,eps,1', '--format', 'ply'], 'fa55c284a28c0eef2c75bc34b08a2a30f1844ec01f02ae6a37618881d5c076f0'),
    (['mesh', '1,1,eps,eps,1', '--triangulate'], '98bc6f0d5d76cce8e63584d9cc479cd39017c218094523f445a4f7528cde5551'),
    (['classify', '1,1,eps,eps,1', '--format', 'json'], 'f0a033e8a77edbcfc9539f68ade492b1a83e69f1d07607864780afac6947a4b7'),
    (['mesh', '2,1,1,1,2'], '2a1ade1200d81bf97c87e7fa9c55861d22604dfdb71c278330f2cd4bcc3f0b35'),
    (['mesh', '2,1,1,1,2', '--format', 'ply'], '5fc641723107c9769f54e626bf0c4492c7a87413cff9518bc33e3fdbfc5df0e9'),
    (['mesh', '2,1,1,1,2', '--triangulate'], '23dd72f6e45aa34f83e9e898f418f0b73b56c52ae1678b0484616589f91739b2'),
    (['classify', '2,1,1,1,2', '--format', 'json'], '76bffa28e9557da20e904f84f500e12db020d91d26f6726a44bf33c40e0f66e1'),
    (['mesh', '1,1,1,1,1'], 'fd8475c0bad87a105a9c93e9cc709173030a4fafeabd49dec645fa11e9e28b8c'),
    (['mesh', '1,1,1,1,1', '--format', 'ply'], '148b06e5d727deaac20779162fa2bbee7181dcc131bcc579610dbac8ee74edb9'),
    (['mesh', '1,1,1,1,1', '--triangulate'], '338de7fa14d95e5babaa07b7f26ad7ee9ce74308b4aca8541a9cceb6d042c25e'),
    (['classify', '1,1,1,1,1', '--format', 'json'], '982e0654292489db4190b72dc1b0d1439e2275331f394369c34b06fb95f537d3'),
    (['classify', '3,5,7,2,9,4,1', '--format', 'json'], '9e0a34c8cd9422cfdee92d0c28313bc95b44694e3235cea0bcc29e7118fcf68b'),
    (['classify', '3,5,7,2,9,4,1'], '6217b5702eb4ef84fc3e067db178c3b6be36a98f2e777cf13f6ff2407d17b8ce'),
    (['complex', '3,5,7,2,9,4,1'], 'b27845e892daa019b674d950e22b089254d40e86b5ce4a9caaf3a04f27b796ba'),
    (['classify', '1,1,1,1,1,2', '--format', 'json'], '19dea2fa592e08859eed6852930aabdb267e62fb26b0cc19f09d8ba0388dc4b4'),
    (['complex', '1,1,1,1,1,2'], '6dff08353f35193b30a3a4d8dfc0db78779debd5f0e37ae4bc7f39748b6083a1'),
    (['classify', '2,1,1,1', '--format', 'json'], '70abf9c332cce9d4e3ad54b8e3977e6ed203b95ae4ce8b6ce5e736aab9eb3eeb'),
    (['complex', '2,1,1,1'], '110d596b32a3fe2dc5cca4a54512e869206957c0e732b794d724e8892a79e621'),
    (['tables'], 'aad9702851bbe58b4de1f5ec02c535bfb699e93df470ea6d739e4261e62fad66'),
    (['verify'], 'cb4fabf93c5ffc28eeb69dacb33d2b4e07bb5ee237e0a64f921298e1fbd765be'),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_cli_output_is_byte_identical(argv, digest):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


#: One sha256 over the OBJ, PLY and triangulated OBJ of one pentagon per
#: labelled chamber, taken at commit 1e32aea, before the face-cycle walk
#: dropped its generators and the vertex lines were cached.
CHAMBERS_DIGEST = "742ea244672164e0c359555da6460a09c496a82d8cba943f38e6223c8dfbf003"


def test_mesh_output_of_every_pentagon_chamber_is_byte_identical():
    # a chamber is fixed by which subsets are short; integer lengths 1-5
    # meet all 76 labelled chambers of generic pentagons (1-9 add none), and
    # the first met stands for its chamber
    chambers = {}
    for lengths in product(range(1, 6), repeat=5):
        try:
            linkage = make_linkage(lengths)
        except LinkageError:
            continue
        chambers.setdefault(linkage.short, linkage)
    assert len(chambers) == 76
    digest = hashlib.sha256()
    for linkage in chambers.values():
        mesh = perform_surgery(linkage)
        for fmt, triangulate in (("obj", False), ("ply", False), ("obj", True)):
            digest.update(export_mesh(mesh, fmt, triangulate).encode())
    assert digest.hexdigest() == CHAMBERS_DIGEST
