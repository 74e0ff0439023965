"""Self-tests of the benchmark: inputs, oracle, reply checks and tracer.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import pytest

import calibrate
import oracle
from workloads import (
    KNOWN_DEFECT,
    PAPER_PENTAGONS,
    WORKLOADS,
    Reply,
    check,
    make_case,
    make_specs,
    parse_spec,
)

DEFAULT_SEED = 1


def generic_and_closed(lengths) -> bool:
    n, total = len(lengths), sum(lengths)
    return 2 * max(lengths) < total and all(
        2 * sum(l for i, l in enumerate(lengths) if mask >> i & 1) != total
        for mask in range(1, 1 << n)
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_distinct_generic_and_closed(name):
    workload = WORKLOADS[name]
    specs = make_specs(workload, DEFAULT_SEED)
    assert specs == make_specs(workload, DEFAULT_SEED)
    assert specs != make_specs(workload, DEFAULT_SEED + 1)
    assert len(set(specs)) == len(specs) == workload.random_inputs + len(workload.paper_inputs)
    for spec in specs:
        lengths = parse_spec(spec)
        assert len(lengths) == workload.n
        assert generic_and_closed(lengths), spec


def test_random_pentagons_cover_all_six_surface_types():
    specs = make_specs(WORKLOADS["pentagon-cli"], DEFAULT_SEED)
    random_only = [s for s in specs if s not in PAPER_PENTAGONS]
    names = {oracle.surface_name(oracle.betti(parse_spec(s))) for s in random_only}
    assert names == {oracle.surface_name(oracle.betti(parse_spec(s))) for s in PAPER_PENTAGONS}
    assert len(names) == 6


@pytest.mark.parametrize(
    "spec, betti",
    [("1,1,1,1,1", [1, 8, 1]), ("1,1,eps,eps,1", [2, 4, 2]), ("1,1,1,1,1,1,1", [1, 6, 30, 6, 1])],
)
def test_oracle_reproduces_paper_betti_numbers(spec, betti):
    assert oracle.betti(parse_spec(spec)) == betti


def test_oracle_reproduces_paper_pentagon_table():
    table = [
        ("1,1,1,1,3", "sphere", [24, 36, 14]),
        ("1,1,1,eps,2", "torus", [24, 42, 18]),
        ("2,2,1,1,3", "genus-2 surface", [24, 48, 22]),
        ("1,1,eps,eps,1", "2 tori", [24, 42, 18]),
        ("2,1,1,1,2", "genus-3 surface", [24, 54, 26]),
        ("1,1,1,1,1", "genus-4 surface", [24, 60, 30]),
    ]
    assert [s for s, _, _ in table] == list(PAPER_PENTAGONS)
    for spec, name, f in table:
        lengths = parse_spec(spec)
        assert oracle.surface_name(oracle.betti(lengths)) == name
        assert oracle.f_vector(lengths) == f


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_betti_and_f_vector_give_the_same_euler_characteristic(name):
    for spec in make_specs(WORKLOADS[name], DEFAULT_SEED):
        case = make_case(spec)
        assert oracle.euler(case.f_vector) == case.chi, spec
        assert case.f_vector[0] == {5: 24, 6: 120, 7: 720}[case.n]


def test_check_accepts_the_known_defect_only_where_it_applies():
    connected_n7 = make_case("1,1,1,1,1,1,1")
    crash = Reply(None, "", IndexError("tuple index out of range"))
    assert check("classify", connected_n7, crash) == KNOWN_DEFECT
    assert check("complex", connected_n7, crash) != KNOWN_DEFECT
    assert check("classify", make_case("1,1,1,1,1"), crash) != KNOWN_DEFECT
    assert check("classify", connected_n7, Reply(None, "", KeyError("x"))) != KNOWN_DEFECT


def test_check_rejects_wrong_replies():
    case = make_case("1,1,1,1,3")
    report = (
        '{"f_vector": [24, 36, 14], "components": [{}], "chi": 2, '
        '"classification": "sphere"}'
    )
    assert check("classify", case, Reply(0, report)) is None
    assert check("classify", case, Reply(0, report.replace('"chi": 2', '"chi": 0')))
    assert check("classify", case, Reply(2, report)) == "exit code 2"
    assert check("roundtrip", case, Reply(0, "a", loaded=1), original=1, document="b")


def test_reference_time_weights_each_kernel_sample_alike():
    at_reference = calibrate.REFERENCE_MS * 1e6
    assert calibrate.to_reference(10e6, [at_reference] * 3) == pytest.approx(10e6)
    assert calibrate.to_reference(10e6, [2 * at_reference]) == pytest.approx(5e6)
    # half the CPU time at reference speed, half at a third of it
    assert calibrate.to_reference(12e6, [at_reference, 3 * at_reference]) == pytest.approx(8e6)
    assert calibrate.kernel() == calibrate.kernel() > 0


def test_stopwatch_samples_inside_the_call_and_leaves_the_samples_out():
    def spin(ms):
        began = calibrate.thread_time_ns()
        while calibrate.thread_time_ns() - began < ms * 1e6:
            pass
        return ms

    stopwatch = calibrate.Stopwatch()
    result, wall_ns, ref_ns = stopwatch.time(spin, 50)
    assert result == 50
    assert len(stopwatch._inside) >= 5
    # the spin counts the handler's CPU time; the stopwatch leaves it out
    assert 0 < wall_ns - (50e6 - stopwatch._handler_ns) < 200e6
    assert ref_ns > 0


def test_run_size_depends_on_seconds_only():
    from run import passes_for

    for workload in WORKLOADS.values():
        assert passes_for(workload, 1e-3) == 1
        assert passes_for(workload, 20) == passes_for(workload, 20) >= 1
        assert passes_for(workload, 100 * workload.pass_s) == 100


def test_tracer_nests_spans_and_restores_the_program():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from linkspace import cli, cwcomplex, topology

    from run import Client
    from tracing import Tracer

    originals = (cli.main, cwcomplex.build_complex, topology.build_complex)
    tracer = Tracer()
    client = Client(cli, sys.modules["linkspace.export"])
    with tracer.active(0):
        reply = client.send("classify", "1,1,1,1,3")
    assert (cli.main, cwcomplex.build_complex, topology.build_complex) == originals
    assert check("classify", make_case("1,1,1,1,3"), reply) is None
    name = {span[0]: tracer.names[span[3]] for span in tracer.spans}
    parent = {tracer.names[s[3]]: name.get(s[1]) for s in tracer.spans}
    assert parent["cli.main"] is None
    assert parent["topology.classify_linkage"] == "cli.main"
    assert parent["geometry.perform_surgery"] == "topology.classify_linkage"
    assert parent["cwcomplex.build_complex"] == "geometry.perform_surgery"
    metrics = tracer.summary(ops=1, linkages=1, op_ns=1)
    assert metrics["cwcomplex.build_complex.calls"][0] == 1
    assert metrics["linkage.is_admissible_partition.calls"][0] == metrics["partitions.candidates"][0]
    assert metrics["geometry.permutohedron.calls"][0] == 1
    assert all(metrics[f"{layer}.errors"][0] == 0 for layer in ("cli", "export", "linkage"))
