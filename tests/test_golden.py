"""Byte-identity of the CLI's outputs, pinned by sha256.

The pentagon, `tables` and `verify` digests were taken from the outputs of
an earlier, label-based surgery (each face's arcs re-derived from
refinements of its label).  The `classify` and `complex` digests for n = 4,
6 and 7 were taken at commit a4e3730, the last builder that wired every
grade of the complex on every build, before `classify` at n != 5 came to
wire only the 1-skeleton, and later at n >= 6 to build no complex.  The
pentagon `complex` digests were taken at commit aa1c9f1, while a pentagon's
complex was still walked and wired on its own, before it was cut from one
table.  The `classify --format json` digests were taken again when the
report gained `component_count`, the one line by which each document
changed.  The n=8 `complex` digests, `OCTAGON_DIGESTS`, were taken at
commit 77c9f5c for `1,1,1,1,1,1,1,2` and at a4e3730 for `5,9,3,12,7,1,4,2`;
each n=8 case is a slow input, run by `python -m pytest -m slow`, as is
the sweep of every integer pentagon with lengths 1-5 and other spellings,
`SWEEP_DIGEST`, taken at commit a423fad.  Any change to the surgery, the
complex, the writers or the length grammar that moves a byte fails here.
"""

import contextlib
import functools
import hashlib
import io
from itertools import combinations, product

import pytest

from linkspace.cli import main
from linkspace.export import complex_from_json, complex_to_json, export_mesh
from linkspace.geometry import perform_surgery
from linkspace.linkage import LinkageError, make_linkage

GOLDEN = [
    (['mesh', '1,1,1,1,3'], '98341a13644f671c36dbb5dfde1ccb62e6229a46f62305ac0df24a1a04fd823b'),
    (['mesh', '1,1,1,1,3', '--format', 'ply'], 'bf6d3712084b7dfd84dcded39d5e32cf869f84b4e2cc5a247c7b7c1b15d4e0d9'),
    (['mesh', '1,1,1,1,3', '--triangulate'], 'b418820ce89ca5f42a6de3426d7e49dd9c2648442cd27270a1c8e6ce07a8689c'),
    (['classify', '1,1,1,1,3', '--format', 'json'], '6fa7eee2101590bb21d7a54d55e6e579d59405d73a4c3cf2b270984930408529'),
    (['mesh', '1,1,1,eps,2'], '35ac77e4d5edd88b89bd4298732f719db0d3079808f4838340ec9366bea17b01'),
    (['mesh', '1,1,1,eps,2', '--format', 'ply'], '30e0bc72021d9983b8d0a299b34f7c998c7121ce9e6c23badbf62e521abff529'),
    (['mesh', '1,1,1,eps,2', '--triangulate'], 'c4c2ea00c06bf235ef6ab18dffe5b98d50d297cab1cdb53d048297d0b7ec3eea'),
    (['classify', '1,1,1,eps,2', '--format', 'json'], 'eb7b0aff972cbc954937bbedb85264e29cbb22a157478d0710821ab458141af9'),
    (['mesh', '2,2,1,1,3'], 'd4f90cbc083025f721d9041a975281e732def607d3154eef73d8c93b621497fe'),
    (['mesh', '2,2,1,1,3', '--format', 'ply'], 'd994fc9bd974ccc1b68c6b269659837ff4ab17660c9c696f3e696cf70cbe9842'),
    (['mesh', '2,2,1,1,3', '--triangulate'], 'c8657e805f93bfa6a44dc3fe7a582350c3907105969393cb83d089772138bf58'),
    (['classify', '2,2,1,1,3', '--format', 'json'], '65de52a93ad595b404536398cada5ce870ff67fe6ea6a74b5140fc61831fdaf7'),
    (['mesh', '1,1,eps,eps,1'], 'b5e5d22c2d6753a1556c6465eb58c37883a7f21e39a10537e938f02edd102145'),
    (['mesh', '1,1,eps,eps,1', '--format', 'ply'], 'fa55c284a28c0eef2c75bc34b08a2a30f1844ec01f02ae6a37618881d5c076f0'),
    (['mesh', '1,1,eps,eps,1', '--triangulate'], '98bc6f0d5d76cce8e63584d9cc479cd39017c218094523f445a4f7528cde5551'),
    (['classify', '1,1,eps,eps,1', '--format', 'json'], '6cad76c6c082e61b639ef5513d0a56eebc2e7b9493754b2512d3127f2c5b1e1c'),
    (['mesh', '2,1,1,1,2'], '2a1ade1200d81bf97c87e7fa9c55861d22604dfdb71c278330f2cd4bcc3f0b35'),
    (['mesh', '2,1,1,1,2', '--format', 'ply'], '5fc641723107c9769f54e626bf0c4492c7a87413cff9518bc33e3fdbfc5df0e9'),
    (['mesh', '2,1,1,1,2', '--triangulate'], '23dd72f6e45aa34f83e9e898f418f0b73b56c52ae1678b0484616589f91739b2'),
    (['classify', '2,1,1,1,2', '--format', 'json'], 'c64b62c778330311598bec9940e0c485c6c76354ad7c98916d084aa2ae34cca2'),
    (['mesh', '1,1,1,1,1'], 'fd8475c0bad87a105a9c93e9cc709173030a4fafeabd49dec645fa11e9e28b8c'),
    (['mesh', '1,1,1,1,1', '--format', 'ply'], '148b06e5d727deaac20779162fa2bbee7181dcc131bcc579610dbac8ee74edb9'),
    (['mesh', '1,1,1,1,1', '--triangulate'], '338de7fa14d95e5babaa07b7f26ad7ee9ce74308b4aca8541a9cceb6d042c25e'),
    (['classify', '1,1,1,1,1', '--format', 'json'], '905553683a70ec91ffd1dece2e2b007245691f569cd53271286affb478a8af5c'),
    (['complex', '1,1,1,1,1'], 'f0d04cc8085432ccf6e6963c6b16bb4c1bc42b0075a0ad83923941206dbbe8c2'),
    (['classify', '3,5,7,2,9,4,1', '--format', 'json'], '69a2deed29acb7148731a39e8d7d4a292a9ae94eb38965feadd82011a2c53149'),
    (['classify', '3,5,7,2,9,4,1'], '6217b5702eb4ef84fc3e067db178c3b6be36a98f2e777cf13f6ff2407d17b8ce'),
    (['complex', '3,5,7,2,9,4,1'], 'b27845e892daa019b674d950e22b089254d40e86b5ce4a9caaf3a04f27b796ba'),
    (['classify', '1,1,1,1,1,2', '--format', 'json'], '8e42ea0df39329acd0a5632601627a1bff56ef1522c216708a193bddeb33e6b5'),
    (['complex', '1,1,1,1,1,2'], '6dff08353f35193b30a3a4d8dfc0db78779debd5f0e37ae4bc7f39748b6083a1'),
    (['classify', '2,1,1,1', '--format', 'json'], 'c7bdf7301a7dc805a95b8d1b4d968ecdb5e3fc1f2bdaf554cf0477c88d652e2f'),
    (['complex', '2,1,1,1'], '110d596b32a3fe2dc5cca4a54512e869206957c0e732b794d724e8892a79e621'),
    (['tables'], 'aad9702851bbe58b4de1f5ec02c535bfb699e93df470ea6d739e4261e62fad66'),
    (['verify'], 'cb4fabf93c5ffc28eeb69dacb33d2b4e07bb5ee237e0a64f921298e1fbd765be'),
]

#: `linkctl complex` of the two n=8 vectors, 15,824,766 and 14,781,343
#: bytes; the second has no two bars of equal length, so a wiring fault
#: symmetric in bars 1-7 that the first passes fails it
OCTAGON_DIGESTS = {
    "1,1,1,1,1,1,1,2": "05a1199fc12b36ae659bad055cd48c6ce4b31be10ad7c586a15aeb4905e14ea3",
    "5,9,3,12,7,1,4,2": "d6ed4cae5e92dd81453eea74c54b0c004b2a080a9f1a39af265c97203e06bbc7",
}


def _stdout(argv):
    """What `linkctl argv` writes, checking that it exits 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


#: linkctl's pentagon requests in the six forms its memo keeps: `mesh` as
#: OBJ and PLY, each with and without `--triangulate`, and `classify` as
#: JSON and text
PENTAGON_REQUESTS = (
    ["mesh", "--format", "obj"],
    ["mesh", "--format", "ply"],
    ["mesh", "--triangulate"],
    ["mesh", "--format", "ply", "--triangulate"],
    ["classify", "--format", "json"],
    ["classify"],
)


def printed(spec):
    """What linkctl prints for each of `PENTAGON_REQUESTS` of the spec."""
    return [_stdout([command, spec, *options]) for command, *options in PENTAGON_REQUESTS]


@pytest.mark.parametrize(
    "argv, digest",
    GOLDEN
    + [pytest.param(["complex", s], d, marks=pytest.mark.slow) for s, d in OCTAGON_DIGESTS.items()],
    ids=[" ".join(a) for a, _ in GOLDEN] + [f"complex {s}" for s in OCTAGON_DIGESTS],
)
def test_cli_output_is_byte_identical(argv, digest):
    assert hashlib.sha256(_stdout(argv).encode()).hexdigest() == digest


def generic_integer_pentagons(top):
    """Every generic pentagon with integer lengths 1 to `top`."""
    for lengths in product(range(1, top + 1), repeat=5):
        with contextlib.suppress(LinkageError):
            yield make_linkage(lengths)


@functools.cache
def pentagon_chambers():
    """One pentagon per labelled chamber, all 76 of them.

    A chamber is fixed by which subsets are short; integer lengths 1-5 meet
    all 76 labelled chambers of generic pentagons (1-9 add none), and the
    first met stands for its chamber."""
    chambers = {}
    for linkage in generic_integer_pentagons(5):
        chambers.setdefault(linkage.short, linkage)
    assert len(chambers) == 76
    return tuple(chambers.values())


#: One sha256 over the OBJ, PLY and triangulated OBJ of one pentagon per
#: labelled chamber, taken at commit 1e32aea, before the face-cycle walk
#: dropped its generators and the vertex lines were cached.
CHAMBERS_DIGEST = "742ea244672164e0c359555da6460a09c496a82d8cba943f38e6223c8dfbf003"


def test_mesh_output_of_every_pentagon_chamber_is_byte_identical():
    digest = hashlib.sha256()
    for linkage in pentagon_chambers():
        mesh = perform_surgery(linkage)
        for fmt, triangulate in (("obj", False), ("ply", False), ("obj", True)):
            digest.update(export_mesh(mesh, fmt, triangulate).encode())
    assert digest.hexdigest() == CHAMBERS_DIGEST


#: One sha256 over `linkctl classify --format json`, then the text report,
#: of one pentagon per labelled chamber, taken at commit 7e78d97, before the
#: report writer came to write its scalars itself.  It holds every component
#: shape the report writes, the 2 tori included.
CHAMBERS_CLASSIFY_DIGEST = "d8531f73edc8f328cd5dc87795d75b800197e1414ae060e3fc55a175da5bc12e"


def test_classify_output_of_every_pentagon_chamber_is_byte_identical():
    digest = hashlib.sha256()
    for linkage in pentagon_chambers():
        for fmt in ("json", "text"):
            digest.update(_stdout(["classify", linkage.spec(), "--format", fmt]).encode())
    assert digest.hexdigest() == CHAMBERS_CLASSIFY_DIGEST


#: One sha256 over `linkctl complex` of one pentagon per labelled chamber,
#: taken at commit aa1c9f1, like the pentagon `complex` digest in GOLDEN.
CHAMBERS_COMPLEX_DIGEST = "0da0fcf14244aac02af40128ed189f8b3977fdd4cd151b3d4da4f0185bceb048"


def test_complex_output_of_every_pentagon_chamber_is_byte_identical():
    digest = hashlib.sha256()
    for linkage in pentagon_chambers():
        text = _stdout(["complex", linkage.spec()])
        assert complex_to_json(complex_from_json(text)) == text, linkage.spec()
        digest.update(text.encode())
    assert digest.hexdigest() == CHAMBERS_COMPLEX_DIGEST


def _sweep_requests():
    """The argv of every request `test_cli_bytes_of_the_pentagon_sweep` hashes:
    each spec below in the six `PENTAGON_REQUESTS` forms.  The specs are every
    integer pentagon with lengths 1-5, generic or not; those with lengths 1-3
    spelt with leading zeros, as spaced '+x.0' decimals and over 3; every
    pentagon with one or two `eps` lengths and the rest 1 or 2, at two
    `--epsilon` values; and a few refused specs and epsilons."""
    specs = [[",".join(map(str, l))] for l in product(range(1, 6), repeat=5)]
    for lengths in product(range(1, 4), repeat=5):
        specs += [
            [",".join(f"0{l}" for l in lengths)],
            [",".join(f" +{l}.0 " for l in lengths)],
            [",".join(f"{l}/3" for l in lengths)],
        ]
    for count in (1, 2):
        for where in combinations(range(5), count):
            for rest in product(("1", "2"), repeat=5 - count):
                it = iter(rest)
                spec = ",".join("eps" if k in where else next(it) for k in range(5))
                specs += [[spec, "--epsilon", e] for e in ("1/3", "0.01")]
    specs += [
        [s]
        for s in (
            "x,,1,1,1", "1,,1,1,1", "1,1,1,1,", "1,x,1,1,1", "1,1,1,1", "1,1,1,1,1,1",
            "-1,1,1,1,1", "1,1,1,1,0", "1/0,1,1,1,1", "1,1,1,1,4", "1,1,1,1,2", "1,1,1,1,1e3",
            "1,1,1,1,１", "1,1,1,1," + "9" * 501, "1,1,1,eps,eps,eps",
        )
    ]
    specs += [["1,1,1,eps,2", "--epsilon", e] for e in ("0", "-1", "1/2", "x", "1/0")]
    return [[command, *spec, *options] for spec in specs for command, *options in PENTAGON_REQUESTS]


#: One sha256 over the exit code, stdout and stderr of each request of
#: `_sweep_requests`, in one process, so that most of them are memo hits,
#: taken at commit a423fad.
SWEEP_DIGEST = "35a2ea94b0cc1c1a9e8548affde6cc0df8446300c344e75dc6e5ba772033eed1"


@pytest.mark.slow
def test_cli_bytes_of_the_pentagon_sweep():
    # 25,164 requests in about 2 s
    digest = hashlib.sha256()
    for argv in _sweep_requests():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        digest.update(f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode())
    assert digest.hexdigest() == SWEEP_DIGEST
