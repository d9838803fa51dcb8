"""The linear ds passes and the tables one compile of a series shares.

Each linked-list pass must return exactly the list its quadratic oracle in
``helpers`` returns.  The segments of one ``compile_segments`` call share its
memo tables, which must do each distinct lowering and synthesis once per run
and keep no work from one run to the next.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spinchain import (
    CircuitSeries,
    GateKind,
    NativeTarget,
    Program,
    compiler,
    lower_generic,
    make_gate,
    workflow,
)
from spinchain.config import parse_input_file
from spinchain.workflow import prepare_circuits

from helpers import (
    ALL_KINDS,
    COMPILED_SAMPLED,
    DENSE_KINDS,
    cancel_inverse_pairs_oracle,
    commute_through_entanglers_oracle,
    fuse_single_qubit_runs_oracle,
    merge_rotations_oracle,
    on_list,
    random_program,
)

TARGETS = (NativeTarget.IBM, NativeTarget.RIGETTI)
DRIVEN = Path(__file__).resolve().parents[1] / "sample_inputs" / "driven_sampled_ibm.txt"

PASS_ORACLES = (
    (on_list(compiler._pass_merge_rotations), merge_rotations_oracle),
    (on_list(compiler._pass_cancel_inverse_pairs), cancel_inverse_pairs_oracle),
    (on_list(compiler._pass_commute_through_entanglers), commute_through_entanglers_oracle),
    (on_list(compiler._pass_fuse_single_qubit_runs), fuse_single_qubit_runs_oracle),
)


def _assert_passes_match_oracles(gates, target):
    fired = 0
    for linked, oracle in PASS_ORACLES:
        out = linked(list(gates), target)
        assert out == oracle(list(gates), target), linked.__name__
        fired += out != list(gates)
    return fired


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5])
def test_linked_passes_equal_oracles_on_random_programs(target, num_qubits):
    rng = np.random.default_rng(1000 + num_qubits)
    fired = 0
    for trial in range(60):
        kinds = DENSE_KINDS if trial % 2 else ALL_KINDS
        source = random_program(rng, num_qubits, int(rng.integers(0, 40)), kinds)
        fired += _assert_passes_match_oracles(source.gates, target)
        fired += _assert_passes_match_oracles(lower_generic(source, target).gates, target)
    assert fired > 0  # the comparison saw rewrites, not only unchanged lists


def test_linked_passes_equal_oracles_on_sample_segments():
    config = parse_input_file(str(DRIVEN))
    circuits, _ = prepare_circuits(replace(config, compile_mode="none"))
    fired = 0
    for index in range(len(circuits)):
        segment = circuits.segments[circuits.order[index]]
        for target in TARGETS:
            fired += _assert_passes_match_oracles(segment.gates, target)
            gates = list(lower_generic(segment, target).gates)
            fired += _assert_passes_match_oracles(gates, target)
            # and every state the pipeline passes through on its way
            for _, pass_fn in compiler._PASSES:
                gates = on_list(pass_fn)(gates, target)
                fired += _assert_passes_match_oracles(gates, target)
    assert fired > 0


def test_links_next_touching_needs_one_node_on_every_wire():
    gates = [
        make_gate("cz", [0, 1]),
        make_gate("rz", [1], [0.1]),
        make_gate("cz", [0, 1]),
        make_gate("cz", [1, 0]),
    ]
    links = compiler._Links(gates)
    assert links.next_touching(0) == links.end  # wire 1 reaches the rz first
    assert links.next_touching(1) == 2
    assert links.next_touching(2) == 3
    assert links.next_touching(3) == links.end
    links.delete(1)
    assert links.next_touching(0) == 2
    links.insert_after(1, 3)
    assert links.in_order() == [gates[0], gates[2], gates[3], gates[1]]
    assert links.wire_after[1][3] == 1 and links.wire_before[1][1] == 3


@pytest.mark.parametrize("target", TARGETS)
def test_shared_memo_gives_the_output_of_separate_compiles(target, monkeypatch):
    # the segments of one series share the call's tables; each segment must
    # compile as it does alone
    rng = np.random.default_rng(77)
    programs = [random_program(rng, 3, int(rng.integers(1, 25)), DENSE_KINDS) for _ in range(20)]
    series = CircuitSeries(tuple(programs * 2), tuple(range(40)))
    tables = []
    compile_one = compiler._compile_one

    def recording(program, target, mode, shared):
        tables.append(shared)
        return compile_one(program, target, mode, shared)

    monkeypatch.setattr(compiler, "_compile_one", recording)
    compiled, reports = compiler.compile_segments(series, target, "domain_specific")
    monkeypatch.undo()
    assert len(tables) == 40 and all(t is tables[0] for t in tables)
    lowered, synthesized, matrices = tables[0]
    assert lowered and synthesized and matrices
    for program, shared, shared_report in zip(series.segments, compiled.segments, reports):
        alone, alone_report = compiler.compile_program(program, target, "domain_specific")
        assert shared.gates == alone.gates
        # every segment is checked from the same states, so its overlap is a
        # lone compile's to the last bit
        assert shared_report == alone_report


def test_memo_keeps_signed_zero_angles_apart():
    # -0.0 == 0.0, but the two print differently; the compile tables must not merge them
    program = Program(
        2,
        (
            make_gate("rx", [0], [0.0]),
            make_gate("cnot", [0, 1]),
            make_gate("rx", [0], [-0.0]),
        ),
    )
    out, _ = compiler.compile_program(program, NativeTarget.IBM, "domain_specific")
    thetas = [g.angles[0] for g in out.gates if g.kind is GateKind.U3]
    assert [str(t) for t in thetas] == ["0.0", "-0.0"]


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_memo_does_each_lowering_and_synthesis_once_per_run(monkeypatch):
    lowerings = _count_calls(monkeypatch, compiler, "_lower_gate_rigetti")
    syntheses = _count_calls(monkeypatch, compiler, "_resynthesize")
    memo_keys = _count_calls(monkeypatch, compiler, "_memo_key")
    source = workflow.generate_circuits(
        workflow.build_model(COMPILED_SAMPLED), workflow.build_plan(COMPILED_SAMPLED)
    )

    prepare_circuits(COMPILED_SAMPLED)
    # one lowering per distinct source gate
    assert len(lowerings) == len(set(source[-1].gates))
    assert {g for (g,) in lowerings} == set(source[-1].gates)
    # one synthesis per distinct run of two or more single-qubit gates
    runs = {gates for (gates,) in memo_keys if len(gates) > 1}
    assert len(syntheses) == len(runs) > 0

    first = (len(lowerings), len(syntheses))
    lowerings.clear()
    syntheses.clear()
    prepare_circuits(COMPILED_SAMPLED)
    # nothing outlives a run: the second run does all the work again
    assert (len(lowerings), len(syntheses)) == first
