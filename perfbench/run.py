"""linkspace benchmark: one in-process client, closed loop.

Run from the root of a linkspace checkout:

    python3 perfbench/run.py --workload pentagon-cli --seed 1 --seconds 20 --trace 0

Each op is one request, sent and finished before the next: `linkspace.cli.main`
with stdout captured in memory, or, in complex-roundtrip, one
`export.complex_from_json` followed by `export.complex_to_json`.  Ops run in
whole passes over the seeded input pool; the number of passes follows from
--seconds and the workload's reference cost of a pass, never from a clock, so
for a given seed the ops, and with them the failure count, are the same on
every machine.  Every reply is checked against the independent oracle in
`oracle.py`.  Op, import and set-up times are CPU times rescaled to one
reference speed by `calibrate.Stopwatch`, which samples a fixed kernel before,
during and after each; wall-clock figures are reported too.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each op twice,
untraced and then traced, and reports the per-layer metrics of `tracing.py`
together with the tracing overhead.  The last line of stdout is the result
as one JSON object; the full record, spans included, goes to
.perfbench_out/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
from workloads import KNOWN_DEFECT, WORKLOADS, Reply, argv, check, make_case, make_specs

IMPORT_REPEATS = 9
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
MIN_TAIL_PERCENTILE = 90.0

IMPORT_PROBE = (
    "import sys; sys.path[:0] = ['src', 'perfbench']; import calibrate; "
    "print(calibrate.Stopwatch().time(__import__, 'linkspace')[2])"
)


class Client:
    """Sends one request to linkspace and returns what it produced."""

    def __init__(self, cli, export):
        self.cli, self.export = cli, export

    def send(self, request: str, spec: str, document: str | None = None) -> Reply:
        if request == "roundtrip":
            try:
                loaded = self.export.complex_from_json(document)
                return Reply(0, self.export.complex_to_json(loaded), loaded=loaded)
            except Exception as exc:  # counted as a failed op; the run goes on
                return Reply(None, "", exc)
        out = io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = self.cli.main(argv(request, spec))
        except SystemExit as exc:  # argparse rejects arguments this way
            code = exc.code
        except Exception as exc:  # counted as a failed op; the run goes on
            return Reply(None, out.getvalue(), exc)
        return Reply(code, out.getvalue())


@dataclass
class Tally:
    """Latency (wall clock and at the reference speed), size and outcome of
    every op of one kind (untraced or traced)."""

    latencies_ns: list[int] = field(default_factory=list)
    reference_ns: list[float] = field(default_factory=list)
    cells: list[int] = field(default_factory=list)
    failed: int = 0
    known_defect: int = 0
    wrong: list[str] = field(default_factory=list)

    def add(self, ns: int, ref_ns: float, cells: int, status: str | None, what: str) -> None:
        self.latencies_ns.append(ns)
        self.reference_ns.append(ref_ns)
        self.cells.append(cells)
        if status is None:
            return
        self.failed += 1
        if status == KNOWN_DEFECT:
            self.known_defect += 1
        else:
            self.wrong.append(f"{what}: {status}")

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    def p50_ms(self) -> float:
        return statistics.median(self.reference_ns) / 1e6

    def wall_p50_ms(self) -> float:
        return statistics.median(self.latencies_ns) / 1e6

    def rate(self, amounts: list[int], per_pass: int) -> float:
        """Median over passes of sum(amounts) per second of op time at the
        reference speed."""
        return statistics.median(
            sum(amounts[i : i + per_pass]) * 1e9 / sum(self.reference_ns[i : i + per_pass])
            for i in range(0, self.attempted, per_pass)
        )

    def tail(self) -> tuple[float, float] | None:
        """(percentile, ms) of the highest percentile with TAIL_BEYOND samples
        beyond it, or None when that percentile would be below p90."""
        n = len(self.reference_ns)
        percentile = 100.0 * (n - TAIL_BEYOND) / n if n else 0.0
        if percentile < MIN_TAIL_PERCENTILE:
            return None
        return percentile, sorted(self.reference_ns)[n - TAIL_BEYOND - 1] / 1e6


def judge(request, case, reply, original=None, document=None) -> str | None:
    try:
        return check(request, case, reply, original, document)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable reply ({type(exc).__name__}: {exc})"


def import_seconds() -> list[float]:
    """Import times of linkspace in fresh interpreters, at the reference
    speed; the first, which may compile bytecode, is dropped."""
    samples = []
    for _ in range(IMPORT_REPEATS + 1):
        done = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        samples.append(float(done.stdout) / 1e9)
    return samples[1:]


def set_up(workload, seed: int, client: Client) -> tuple[list[str], list[str] | None]:
    """The workload's inputs: specs, plus complex documents for roundtrip."""
    specs = make_specs(workload, seed)
    if "roundtrip" not in workload.requests:
        return specs, None
    return specs, [client.send("complex", spec).out for spec in specs]


@dataclass
class Inputs:
    cases: list
    documents: list  # complex JSON per case (roundtrip), else None
    originals: list  # CWComplex per case (roundtrip), else None
    setup_s: list[float]  # time of each set-up, at the reference speed
    problems: list[str]


def prepare(workload, seed: int, client: Client, stopwatch, linkspace) -> Inputs:
    """Set up SETUP_REPEATS times, timing each, then derive the expected
    answers outside the timing."""
    setups, times = [], []
    for _ in range(SETUP_REPEATS):
        setup, _, ref_ns = stopwatch.time(set_up, workload, seed, client)
        setups.append(setup)
        times.append(ref_ns / 1e9)
    specs, documents = setups[0]
    cases = [make_case(spec) for spec in specs]
    problems = [] if all(s == setups[0] for s in setups) else ["set-up is not deterministic"]
    if documents is None:
        return Inputs(cases, [None] * len(cases), [None] * len(cases), times, problems)
    originals = []
    for case, doc in zip(cases, documents):
        status = judge("complex", case, Reply(0, doc))
        try:
            originals.append(linkspace.build_complex(linkspace.make_linkage(case.lengths)))
        except Exception as exc:  # reported as a wrong result, not raised
            originals.append(None)
            status = status or f"{type(exc).__name__} building the original: {exc}"
        if status:
            problems.append(f"set-up document {case.spec}: {status}")
    return Inputs(cases, documents, originals, times, problems)


def passes_for(workload, seconds: float) -> int:
    """Whole passes that take about `seconds` at the reference speed."""
    return max(1, round(seconds / workload.pass_s))


def measure(
    workload, inputs: Inputs, client: Client, stopwatch, passes: int, tracer
) -> tuple[Tally, Tally]:
    """Send every request for every input, in `passes` whole passes, after
    one untimed warm-up op per request.  With a tracer, each op runs
    untraced and then traced."""
    plain, traced = Tally(), Tally()
    first = inputs.cases[0].spec, inputs.documents[0]
    for request in workload.requests:
        client.send(request, *first)

    def timed(request, case, doc, original, tally, trace_op=None) -> None:
        with nullcontext() if trace_op is None else tracer.active(trace_op):
            reply, ns, ref_ns = stopwatch.time(client.send, request, case.spec, doc)
        status = judge(request, case, reply, original, doc)
        tally.add(ns, ref_ns, case.cells, status, f"{request} {case.spec}")

    for _ in range(passes):
        for case, doc, original in zip(inputs.cases, inputs.documents, inputs.originals):
            for request in workload.requests:
                timed(request, case, doc, original, plain)
                if tracer is not None:
                    timed(request, case, doc, original, traced, traced.attempted)
    return plain, traced


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (root / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def parse_args(args):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(args)


def main(args=None) -> int:
    opts = parse_args(args)
    root = Path.cwd()
    if not (root / "src" / "linkspace" / "__init__.py").is_file():
        print("perfbench: no src/linkspace here; run from a linkspace checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[opts.workload]

    imports = import_seconds()
    sys.path.insert(0, str(root / "src"))
    import linkspace
    from linkspace import cli, export

    client = Client(cli, export)
    stopwatch = calibrate.Stopwatch()
    inputs = prepare(workload, opts.seed, client, stopwatch, linkspace)
    tracer = None
    if opts.trace:
        from tracing import Tracer

        tracer = Tracer()
    passes = passes_for(workload, opts.seconds)
    plain, traced = measure(workload, inputs, client, stopwatch, passes, tracer)

    header = {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(root),
        "seed": opts.seed,
        "workload": workload.name,
        "why": workload.why,
        "requests": list(workload.requests),
        "ops": plain.attempted + traced.attempted,
        "distinct_inputs": len(inputs.cases),
        "passes": passes,
        "reference_kernel_ms": calibrate.REFERENCE_MS,
        "trace": opts.trace,
    }
    tallies = (plain, traced) if tracer else (plain,)
    wrong = inputs.problems + [w for t in tallies for w in t.wrong]
    tail = plain.tail()
    report = {
        "op_p50_samples": plain.attempted,
        "wall_op_p50_ms": plain.wall_p50_ms(),
        "wall_ops_per_s": plain.attempted * 1e9 / sum(plain.latencies_ns),
        "op_tail_ms": tail and tail[1],
        "op_tail_percentile": tail and tail[0],
        "op_tail_samples": plain.attempted if tail else None,
        "failed_frac": plain.failed / plain.attempted,
        "known_defect_failures": plain.known_defect,
        "import_s_samples": imports,
        "setup_input_s_samples": inputs.setup_s,
    }
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(imports) + statistics.median(inputs.setup_s), "s"),
            "op_p50_ms": (plain.p50_ms(), "ms"),
            "ops_per_s": (plain.rate([1] * plain.attempted, plain.attempted // passes), "1/s"),
            "cells_per_s": (plain.rate(plain.cells, plain.attempted // passes), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        linkages = traced.attempted // len(workload.requests)
        metrics = tracer.summary(traced.attempted, linkages, sum(traced.latencies_ns))
        metrics["import_s"] = (statistics.median(imports), "s")
        metrics["trace.untraced_op_p50_ms"] = (plain.p50_ms(), "ms")
        metrics["trace.op_p50_ms"] = (traced.p50_ms(), "ms")
        metrics["trace.overhead_ms"] = (traced.p50_ms() - plain.p50_ms(), "ms")
    result = {
        "correct": not wrong,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "header": header,
        "report": report,
        "wrong": wrong[:20],
        "result": result,
        "latencies_ms": [ns / 1e6 for ns in plain.latencies_ns],
        "reference_latencies_ms": [ns / 1e6 for ns in plain.reference_ns],
    }
    if tracer:
        record["trace"] = tracer.dump()
    path = out_dir / f"{workload.name}-seed{opts.seed}-trace{opts.trace}.json"
    path.write_text(json.dumps(record, separators=(",", ":")) + "\n")

    print("header " + json.dumps(header))
    print("report " + json.dumps(report))
    if plain.known_defect:
        print(
            f"note: {plain.known_defect} op(s) hit the known seed defect "
            "(classify --format json on a connected n>=6 space raises IndexError "
            "in export.report_to_json); they count as failed"
        )
    for line in wrong[:5]:
        print(f"WRONG {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
