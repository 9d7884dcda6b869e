"""The benchmark's operations and their output checks.

One operation does what one ``ttc check`` or ``ttc run`` invocation does: it
parses the workload's workspace text, then calls ``decide_functionality`` or
``chain_outputs``. Machines are parsed afresh on every operation, so memos
that live on a machine cannot turn repeated operations into free hits.

``validate`` runs before any timing. It runs an operation and checks what the
library computed against the benchmark's own reference semantics
(``oracle.py``): the closed forms of the worked pair and of the quadratic
chain, and brute-force rewriting of the rotation chains. It returns the
expected result of an operation, which every timed operation's result is
compared with.
"""

from __future__ import annotations

from dataclasses import dataclass

from ttc import (
    chain_outputs,
    check_functional_bounded,
    decide_functionality,
    parse_tree,
    parse_workspace,
)

import oracle
import workspaces
from workspaces import Workspace

CHECK_WORKLOADS = ("worked-check", "rotation-check")


@dataclass(frozen=True)
class CheckResult:
    status: str
    inputs_checked: int
    counterexample: str | None  # input text
    outputs: frozenset  # texts of the counterexample's two outputs


def check_one(ws: Workspace):
    """What ``ttc check --chain bench --max-size <bound>`` does."""
    parsed = parse_workspace(ws.text)
    verdict, reports = decide_functionality(parsed.chains[ws.chain], ws.bound)
    cex = verdict.counterexample
    return CheckResult(
        verdict.status,
        verdict.stats["inputs_checked"],
        cex.input.text if cex else None,
        frozenset(t.text for t in cex.outputs) if cex else frozenset(),
    ), reports


def run_one(ws: Workspace) -> frozenset:
    """What ``ttc run --chain bench --input a(...a(e)...)`` does."""
    parsed = parse_workspace(ws.text)
    chain = parsed.chains[ws.chain]
    tree = parse_tree(workspaces.spine(ws.bound), chain.stages[0].input_alphabet)
    return chain_outputs(chain, tree)


def operation(workload: str, spaces: list[Workspace]):
    """One timed operation; returns what is compared with ``validate``'s expectation."""
    if workload in CHECK_WORKLOADS:
        return tuple(check_one(ws)[0] for ws in spaces)
    return tuple(frozenset(t.text for t in run_one(ws)) for ws in spaces)


# -- checks against the reference semantics -------------------------------


def validate(workload: str, spaces: list[Workspace]):
    """Run one operation, check it in depth; returns (expected, errors)."""
    check = {
        "worked-check": _validate_worked,
        "rotation-check": _validate_rotation,
        "quadratic-chain": _validate_quadratic,
    }[workload]
    expected, errors = [], []
    for ws in spaces:
        exp, errs = check(ws)
        expected.append(exp)
        errors.extend(errs)
    return tuple(expected), errors


def _final_m(reports):
    return reports[-1].machine


def _validate_worked(ws: Workspace):
    errors = []
    result, reports = check_one(ws)
    m = _final_m(reports)
    alphabet = oracle.parse_alphabet(ws.specs[ws.stages[0]]["input"])
    trees = oracle.all_trees(alphabet, ws.bound)
    closed = {oracle.text(t): oracle.worked_closed_form(t) for t in trees}
    domain = [s for s, out in closed.items() if out is not None]
    got_domain = [t.text for t in m.enumerate_domain(ws.bound)]
    if got_domain != domain:
        errors.append("worked: M's domain has %d inputs, the closed form %d" % (len(got_domain), len(domain)))
    for s, out in closed.items():
        got = {t.text for t in m.translate_la(parse_tree(s, m.input_alphabet))}
        if got != ({out} if out is not None else set()):
            errors.append("worked: M gives %s on %s, the closed form %s" % (sorted(got), s, out))
            break
    expected = CheckResult("functional-up-to-bound", len(domain), None, frozenset())
    if result != expected:
        errors.append("worked: verdict %r, expected %r" % (result, expected))
    return expected, errors


def _validate_rotation(ws: Workspace):
    errors = []
    label = "rotation %s" % (ws.stages,)
    result, reports = check_one(ws)
    m = _final_m(reports)
    alphabet = oracle.parse_alphabet(workspaces.ROT_ALPHABET)
    trees = oracle.all_trees(alphabet, ws.bound)
    machines = [oracle.Machine(ws.specs[name]) for name in ws.stages]
    brute = {oracle.text(t): oracle.chain_rewrite(machines, t) for t in trees}
    domain = [s for s, outs in brute.items() if outs]
    got_domain = [t.text for t in m.enumerate_domain(ws.bound)]
    if got_domain != domain:
        errors.append("%s: M's domain %s, rewriting gives %s" % (label, got_domain, domain))
    for s, outs in brute.items():
        got = {t.text for t in m.translate_la(parse_tree(s, m.input_alphabet))}
        if (len(got) > 1) != (len(outs) > 1) or (len(outs) == 1 and got != outs):
            errors.append("%s: M gives %s on %s, rewriting %s" % (label, sorted(got), s, sorted(outs)))
            break
    cex = next((s for s, outs in brute.items() if len(outs) > 1), None)
    parsed = parse_workspace(ws.text)
    direct = check_functional_bounded(parsed.chains[ws.chain], ws.bound)
    if direct.status != result.status:
        errors.append("%s: verdict via M %s, on the chain %s" % (label, result.status, direct.status))
    if cex is None:
        expected = CheckResult("functional-up-to-bound", len(domain), None, frozenset())
    else:
        # The two reported outputs are the first two of M's outputs on the
        # counterexample; rewriting must derive both.
        if len(result.outputs) != 2 or not result.outputs <= brute[cex]:
            errors.append("%s: outputs %s on %s are not two of %s" % (label, sorted(result.outputs), cex, sorted(brute[cex])))
        expected = CheckResult("not-functional", domain.index(cex) + 1, cex, result.outputs)
    if result != expected:
        errors.append("%s: verdict %r, expected %r" % (label, result, expected))
    return expected, errors


def _validate_quadratic(ws: Workspace):
    errors = []
    outs = run_one(ws)
    want = oracle.quadratic_closed_form(ws.bound)
    if {t.text for t in outs} != {want}:
        errors.append("quadratic: the chain's output differs from Q(%d)" % ws.bound)
    elif next(iter(outs)).size != oracle.quadratic_size(ws.bound):
        errors.append("quadratic: output size %d, expected %d" % (next(iter(outs)).size, oracle.quadratic_size(ws.bound)))
    return frozenset((want,)), errors

