"""Renderer totality: every fixture and constructed machine has text, JSON,
and DOT renderings, and the JSON is serializable with the documented keys."""

import json

from ttc import build_m, check_functional_bounded, decompose_la, p_construction, parse_workspace, trace_derivation
from ttc.render import (
    machine_dot,
    machine_json,
    report_json,
    serialize_machine,
    to_json,
    trace_dot,
    trace_json,
    verdict_dot,
    verdict_json,
)
from ttc.trees import parse_tree


def all_machines(workspace, worked_pair, del_pair, copy_pair):
    out = list(workspace.machines.values())
    for pair in (worked_pair, del_pair, copy_pair):
        m, _ = build_m(*pair)
        out.append(m)
        out.extend(decompose_la(m))
        out.append(p_construction(*pair)[0])
    return out


def test_machine_renderers_total(workspace, worked_pair, del_pair, copy_pair):
    for machine in all_machines(workspace, worked_pair, del_pair, copy_pair):
        text = serialize_machine(machine, name="m")
        assert text.strip()
        doc = machine_json(machine)
        encoded = json.loads(to_json(doc))
        assert encoded["kind"] in ("transducer", "lookahead-transducer")
        assert {"name", "input", "output", "initial", "states", "rules"} <= set(encoded)
        dot = machine_dot(machine)
        assert dot.startswith("digraph")


def test_verdict_json_shape(copy_pair, copy_chain):
    naive, _ = p_construction(*copy_pair)
    for target, status in ((naive, "not-functional"), (copy_chain, "functional-up-to-bound")):
        verdict = check_functional_bounded(target, 3)
        doc = json.loads(to_json(verdict_json(verdict)))
        assert set(doc) == {"status", "bound", "counterexample", "stats"}
        assert doc["status"] == status
        # in the order the check writes them; the JSON itself sorts its keys
        assert set(doc["stats"]) == set(verdict.stats)
        assert list(verdict.stats) == [
            "inputs_checked",
            "outputs_computed",
            "memo_entries",
            "inputs_enumerated",
            "max_size_reached",
            "single_output_inputs",
            "label_classes",
            "label_transitions",
        ]
        if doc["counterexample"] is not None:
            assert set(doc["counterexample"]) == {"input", "outputs"}
            assert len(doc["counterexample"]["outputs"]) == 2
        verdict_dot(verdict)


def test_report_json_shape(worked_pair):
    _, reports = build_m(*worked_pair)
    for report in reports:
        doc = json.loads(to_json(report_json(report)))
        assert set(doc) == {"label", "machine", "states_before", "states_after", "provenance", "stats"}


def test_trace_renderers(quadratic):
    trace = trace_derivation(quadratic, parse_tree("a(a(e))"))
    doc = json.loads(to_json(trace_json(trace)))
    assert doc["complete"] is True
    assert [s["rule"] for s in doc["steps"]] == [1, 3, 4, 1, 4, 2]
    dot = trace_dot(trace)
    assert dot.count("->") == len(trace.steps)
    # sentential forms show the input subtrees under markers
    assert "q0(a(a(e)))" in dot


def test_a_deep_right_hand_side_round_trips():
    """A right-hand side nested 1,000 deep, deeper than Python's default
    recursion limit, is written and read back as it was."""
    rhs = "a(" * 1000 + "g(q(x1), h(e, q(x1)))" + ")" * 1000
    text = "transducer deep { input { b:1, e:0 } output { a:1, g:2, h:2, e:0 } initial q rules { q(b(x1)) -> %s | e; q(e) -> e; } }" % rhs
    machine = parse_workspace(text).machines["deep"]
    listing = serialize_machine(machine)
    again = parse_workspace(listing).machines["deep"]
    assert [r.rhs.text for r in again.rules] == [r.rhs.text for r in machine.rules]
    assert max(r.rhs.size for r in machine.rules) == 1005
    assert serialize_machine(again) == listing
