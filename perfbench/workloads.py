"""The three workloads: seeded inputs, the requests sent for each input, and
the check applied to every reply.  Nothing here imports linkspace; replies
are judged against `oracle` alone.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

import oracle

#: Value of the `eps` token, the CLI's default epsilon.
EPSILON = Fraction(1, 100)

#: The six pentagons of the paper's table, one per surface type.
PAPER_PENTAGONS = (
    "1,1,1,1,3",
    "1,1,1,eps,2",
    "2,2,1,1,3",
    "1,1,eps,eps,1",
    "2,1,1,1,2",
    "1,1,1,1,1",
)

#: Status of an op that failed only through the documented seed defect:
#: `classify --format json` for n >= 6 raises IndexError in
#: export.report_to_json whenever the space is connected.
KNOWN_DEFECT = "known defect: report_to_json IndexError"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n: int
    random_inputs: int
    paper_inputs: tuple[str, ...]
    requests: tuple[str, ...]
    #: Seconds one pass over the inputs takes at the reference speed of
    #: `calibrate`; runs are sized in whole passes from it.
    pass_s: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pentagon-cli",
            "the paper's headline path: surgery and boundary cycles (geometry) plus "
            "two complex builds per pentagon, over all six surface types",
            5,
            58,
            PAPER_PENTAGONS,
            ("classify", "mesh"),
            3.3,
        ),
        Workload(
            "complex-n7",
            "admissibility filter and refinement wiring at n=7; geometry is bypassed, "
            "so a surgery change should not move it",
            7,
            10,
            (),
            ("classify", "complex"),
            27.0,
        ),
        Workload(
            "complex-roundtrip",
            "the read path of partitions and export: parse_partition, canonicalize "
            "and re-rendering of hexagon complexes, with no build",
            6,
            12,
            (),
            ("roundtrip",),
            0.55,
        ),
    )
}


@dataclass(frozen=True)
class Case:
    """One input vector with its independent expectations."""

    spec: str
    lengths: tuple[Fraction, ...]
    betti: tuple[int, ...]
    f_vector: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.lengths)

    @property
    def chi(self) -> int:
        return oracle.euler(self.betti)

    @property
    def cells(self) -> int:
        return sum(self.f_vector)


def parse_spec(spec: str) -> tuple[Fraction, ...]:
    return tuple(EPSILON if t == "eps" else Fraction(t) for t in spec.split(","))


def random_specs(rng: random.Random, n: int, count: int, exclude=()) -> list[str]:
    """Distinct integer vectors with lengths 1-12.  The total is kept odd, so
    no subset sums to half of it; the polygon inequality is checked here."""
    seen, out = set(exclude), []
    while len(out) < count:
        lengths = [rng.randint(1, 12) for _ in range(n)]
        total = sum(lengths)
        spec = ",".join(map(str, lengths))
        if total % 2 and 2 * max(lengths) < total and spec not in seen:
            seen.add(spec)
            out.append(spec)
    return out


def make_specs(workload: Workload, seed: int) -> list[str]:
    rng = random.Random(f"{workload.name}/{seed}")
    specs = list(workload.paper_inputs) + random_specs(
        rng, workload.n, workload.random_inputs, workload.paper_inputs
    )
    rng.shuffle(specs)
    return specs


def make_case(spec: str) -> Case:
    lengths = parse_spec(spec)
    return Case(spec, lengths, tuple(oracle.betti(lengths)), tuple(oracle.f_vector(lengths)))


def argv(request: str, spec: str) -> list[str]:
    """The linkctl arguments of a request; `roundtrip` has no CLI form."""
    return {
        "classify": ["classify", spec, "--format", "json"],
        "mesh": ["mesh", spec],
        "complex": ["complex", spec],
    }[request]


@dataclass
class Reply:
    """What one op produced: an exit code and stdout, or the exception that
    escaped.  `loaded` is the CWComplex a roundtrip op read back."""

    code: int | None
    out: str
    error: BaseException | None = None
    loaded: object = None


def check(request: str, case: Case, reply: Reply, original=None, document=None) -> str | None:
    """None when the reply is right; otherwise why not.  `original` and
    `document` are the complex and its JSON text for a roundtrip op."""
    if reply.error is not None:
        if (
            request == "classify"
            and case.n >= 6
            and case.betti[0] == 1
            and isinstance(reply.error, IndexError)
        ):
            return KNOWN_DEFECT
        return f"{type(reply.error).__name__} escaped: {reply.error}"
    if reply.code != 0:
        return f"exit code {reply.code}"
    if request == "classify":
        return _check_report(case, json.loads(reply.out))
    if request == "mesh":
        return _check_obj(case, reply.out)
    if request == "complex":
        return _check_complex(case, json.loads(reply.out))
    if reply.out != document:
        return "re-rendered complex differs from the loaded document"
    if reply.loaded != original:
        return "reloaded complex differs from the original"
    return None


def _mismatch(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {got!r}, expected {want!r}"


def _check_report(case: Case, doc: dict) -> str | None:
    if case.n != 5:
        return _mismatch("f-vector", doc["f_vector"], list(case.f_vector)) or _mismatch(
            "chi", doc["chi"], case.chi
        )
    v, e, f = doc["f_vector"]
    return (
        _mismatch("classification", doc["classification"], oracle.surface_name(case.betti))
        or _mismatch("components", len(doc["components"]), case.betti[0])
        or _mismatch("chi", doc["chi"], case.chi)
        or _mismatch("V, F", (v, f), (24, case.f_vector[2]))
        or _mismatch("V-E+F", v - e + f, case.chi)
    )


def _check_obj(case: Case, text: str) -> str | None:
    lines = text.splitlines()
    head = dict(l[2:].split(": ", 1) for l in lines[:2])
    edges = int(lines[2].split("edges: ")[1].split()[0])
    v = sum(l.startswith("v ") for l in lines)
    f = sum(l.startswith("f ") for l in lines)
    return (
        _mismatch("classification", head["classification"], oracle.surface_name(case.betti))
        or _mismatch("V, F", (v, f), (24, case.f_vector[2]))
        or _mismatch("V-E+F", v - edges + f, case.chi)
    )


def _check_complex(case: Case, doc: dict) -> str | None:
    counts = [0] * (case.n - 2)
    for cell in doc["cells"]:
        counts[cell["dim"]] += 1
    return _mismatch("cells per dimension", counts, list(case.f_vector)) or _mismatch(
        "alternating sum", oracle.euler(counts), case.chi
    )
