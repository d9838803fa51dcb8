"""The dirty-node worklist of the ds compile and the gates it builds unchecked.

Each compile must equal the full-sweep round-robin loop kept in ``helpers``
as the reference: the same gates, angles compared by their text so that
signed zeros count, and the same ``passes_applied`` ledger, entry for entry.
Every gate the compiler emits must be the gate ``make_gate`` would build.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spinchain import GateError, GateKind, NativeTarget, Program, compiler, make_gate, workflow
from spinchain.config import parse_input_file

from helpers import ALL_KINDS, COMPILED_SAMPLED, DENSE_KINDS, full_sweep_ds_compile, random_program

TARGETS = (NativeTarget.IBM, NativeTarget.RIGETTI)
SAMPLES = sorted((Path(__file__).resolve().parents[1] / "sample_inputs").glob("*.txt"))


def _text(gates):
    return [(g.kind, g.qubits, repr(g.angles)) for g in gates]


def _assert_matches_full_sweep(program, target, compiled=None, report=None):
    """The compile of program (by default, alone) against the full sweep."""
    if compiled is None:
        compiled, report = compiler.compile_program(program, target, "domain_specific")
    gates, applied = full_sweep_ds_compile(program, target)
    assert _text(compiled.gates) == _text(gates)
    assert report.passes_applied == applied
    return compiled, report


def _compile_together(series, target):
    """Each segment of the series, compiled in one call, against the full sweep."""
    compiled, reports = compiler.compile_segments(series, target, "domain_specific")
    for segment, out, report in zip(series.segments, compiled.segments, reports):
        _assert_matches_full_sweep(segment, target, out, report)
    return compiled.segments


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("num_qubits", [2, 3, 4, 5, 6])
def test_worklist_equals_full_sweep_on_random_programs(target, num_qubits):
    rng = np.random.default_rng(7000 + num_qubits)
    order = [name for name, _ in compiler._PASSES]
    later_rounds = 0
    for trial in range(200):
        kinds = DENSE_KINDS if trial % 2 else ALL_KINDS
        program = random_program(rng, num_qubits, int(rng.integers(0, 40)), kinds)
        _, report = _assert_matches_full_sweep(program, target)
        fired = [order.index(name) for name, _ in report.passes_applied[1:]]
        # a pass at or before the one that fired last starts a new round
        later_rounds += any(b <= a for a, b in zip(fired, fired[1:]))
    assert later_rounds >= 10  # the comparison reached the worklist's later rounds


def _source(config):
    circuits, _ = workflow.prepare_circuits(replace(config, compile_mode="none"))
    return circuits


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("sample", SAMPLES, ids=lambda path: path.stem)
def test_worklist_equals_full_sweep_on_sample_segments(target, sample):
    _compile_together(_source(parse_input_file(str(sample))), target)  # as in a run


@pytest.mark.parametrize("target", TARGETS)
def test_worklist_equals_full_sweep_on_compiled_sampled_segments(target):
    source = _source(COMPILED_SAMPLED)
    assert len(source.segments) == 13
    _compile_together(source, target)


def test_later_rounds_visit_only_dirty_nodes(monkeypatch):
    visits = []  # per pass call: (pass index, dirty nodes, linked nodes)

    def watched(k, pass_fn):
        def run(links, target, since, *extra):
            i, dirty = links.after[links.end], 0
            while i != links.end:
                dirty += links.stamp[i] >= since
                i = links.after[i]
            visits.append((k, dirty, links.size))
            return pass_fn(links, target, since, *extra)

        return run

    passes = [(name, watched(k, fn)) for k, (name, fn) in enumerate(compiler._PASSES)]
    monkeypatch.setattr(compiler, "_PASSES", tuple(passes))
    compiler.compile_program(_source(COMPILED_SAMPLED).segments[1], NativeTarget.RIGETTI, "domain_specific")
    assert all(dirty == size > 100 for _, dirty, size in visits[: len(passes)])
    # after the first round no pass sees the whole list, and the round that
    # finds the fixpoint sees only a few nodes
    assert all(dirty < size for _, dirty, size in visits[len(passes) :])
    _, dirty, size = visits[-1]
    assert dirty * 5 < size
    rounds = 1 + sum(b <= a for (a, *_), (b, *_) in zip(visits, visits[1:]))
    assert len(visits) < rounds * len(passes)  # a pass with no dirty node is skipped


def test_pipeline_that_never_settles_raises(monkeypatch):
    def restless(links, target, since):
        first = links.after[links.end]
        links.substitute(first, links.gates[first])  # marks the node again
        return True

    monkeypatch.setattr(compiler, "_PASSES", (("restless", restless),))
    program = Program(1, (make_gate("rz", [0], [0.3]),))
    with pytest.raises(compiler.CompileError, match="fixpoint"):
        compiler.compile_program(program, NativeTarget.RIGETTI, "domain_specific")


def _compiled_outputs():
    rng = np.random.default_rng(8100)
    for target in TARGETS:
        for trial in range(40):
            program = random_program(rng, 1 + trial % 4, int(rng.integers(1, 30)), ALL_KINDS)
            yield compiler.compile_program(program, target, "domain_specific")[0]
        yield from _compile_together(_source(COMPILED_SAMPLED), target)


def test_compiled_gates_are_the_gates_make_gate_builds():
    seen = 0
    for compiled in _compiled_outputs():
        for g in compiled.gates:
            checked = make_gate(g.kind, g.qubits, g.angles)
            assert g == checked and hash(g) == hash(checked)
            assert repr(g) == repr(checked)
            assert all(type(a) is float for a in g.angles)
            assert all(type(q) is int for q in g.qubits)
            seen += 1
    assert seen > 1000


def test_make_gate_still_rejects_malformed_gates():
    with pytest.raises(GateError):
        make_gate(GateKind.RX, [0], [])  # an angle short
    with pytest.raises(GateError):
        make_gate(GateKind.U2, [0], [0.1, 0.2, 0.3])  # an angle over
    with pytest.raises(GateError):
        make_gate(GateKind.CZ, [0])  # a qubit short
    with pytest.raises(GateError):
        make_gate(GateKind.CNOT, [1, 1])  # the same qubit twice
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(GateError):
            make_gate(GateKind.RZ, [0], [bad])
