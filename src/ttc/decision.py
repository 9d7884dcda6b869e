"""Composition-chain semantics, the bounded functionality checker, and traces.

`decide_functionality` first checks a chain of two or more stages on
itself, up to a small size (`_refute`): a counterexample there is the
verdict, and no construction runs.  Otherwise it trades the last pair of
the chain for one stage, one step at a time (`constructions._check_step`),
until one stage is left: a plain transducer, or M over hat for the final
pair.

The checker goes through the domain of its target (not all trees) up to a
size bound, counts the outputs of each input, and reports the first input
with two distinct outputs in canonical order.  It counts the trees of each
size by the bottom-up subtree class of its first stage, and builds the
inputs of a size from the same class table.  For a one-stage target, a size
whose domain classes all give one output is counted without building a
tree.  An automaton stage of a chain passes its input through, unbuilt.
Verdicts are always bound-relative: a "functional" answer means no
counterexample of size up to the bound exists.
"""

from __future__ import annotations

import time
from collections.abc import Collection
from dataclasses import dataclass, field
from itertools import islice

from .constructions import BuildReport, CompositionChain, _check_step
from .errors import ResourceLimit, ValidationError
from .machines import DEFAULT_OUTPUT_CAP, LookaheadTransducer, Rule, Transducer, _Classes, _domain_sizes, _domain_trees, _evaluate, _label, _require, check_positive
from .trees import ROOT, NodeAddress, StateOverNode, Tree, check_ground_over, replace_markers, sort_trees

FUNCTIONAL = "functional-up-to-bound"
NOT_FUNCTIONAL = "not-functional"

# `_refute` checks a chain on itself up to this size, with every output set
# bounded by this cap: 4,096 admits 2**12 outputs and gives up on 2**13
# within a fraction of a second, after which M's check runs as it would have
PROBE_SIZE = 1
PROBE_CAP = 4096

# `derivations` visits at most this many sentential forms, over all the
# branches it walks: a few tenths of a second on a spine of 10 a's under
# `quadratic`, and over four times the 1,082 forms of its one branch on 45
TRACE_BUDGET = 5000


def chain_outputs(chain: CompositionChain | Transducer, tree: Tree) -> frozenset[Tree]:
    """Left-to-right relational composition of the stage translations."""
    if not isinstance(chain, CompositionChain):
        chain = CompositionChain((chain,))
    check_ground_over(tree, chain.stages[0].input_alphabet)
    owners = [_Classes(base, None) for base in chain.stages]
    return frozenset(_outputs(owners, tree, DEFAULT_OUTPUT_CAP))


def _outputs(owners: list[_Classes], tree: Tree, cap: int) -> Collection[Tree]:
    """The outputs of the stages, one owner each, composed left to right,
    on a valid input, without repeats; a look-ahead base reads its guards
    from the input's labels in its owner (see `_evaluate`).  An automaton
    stage (`Transducer.automaton`) relabels in place, so it passes each tree
    through, unbuilt, iff the `some` of its class holds the initial state.
    A chain's alphabets match, so every intermediate tree is valid for the
    next stage.  The cap bounds each stage's whole output set."""
    outs = (tree,)
    for cl in owners:
        q = cl.base.initial
        if cl.base.automaton:
            outs = [t for t in outs if q.name in cl.classes[_label(cl, t)][2]]
            continue
        if len(outs) == 1:
            # `_evaluate` returns a tuple without repeats: no set needed
            (t,) = outs
            outs = _evaluate(cl, q, t, cap)
            continue
        step = set()
        for t in outs:
            step.update(_evaluate(cl, q, t, cap))
            if len(step) > cap:
                raise ResourceLimit("output set exceeds cap %d" % cap)
        outs = step
    return outs


@dataclass
class Counterexample:
    input: Tree
    outputs: tuple[Tree, Tree]


@dataclass
class Verdict:
    """Result of a bounded functionality check."""

    status: str
    bound: int
    counterexample: Counterexample | None = None
    stats: dict = field(default_factory=dict)

    @property
    def functional(self) -> bool:
        return self.status == FUNCTIONAL


def check_functional_bounded(target, max_size: int) -> Verdict:
    """Exhaustively check single-valuedness on all domain members up to max_size.

    The target is a composition chain (a bare transducer counts as a 1-chain)
    or a look-ahead transducer.  Inputs are visited in canonical order, so the
    reported counterexample is reproducible.  The domain is checked one size
    at a time, and the check stops at the first size that has a
    counterexample.  The number of trees of each size in each subtree class
    of the first stage comes first (`_domain_sizes`); the domain is the
    classes whose `some` holds the initial state.  For a one-stage target,
    when every class in the domain puts the initial state in `one`, each
    input of that size has one output, and the size is counted, unbuilt.
    Any other size is built from the class table, in canonical order; for a
    one-stage target an input whose class puts the initial state in `one`
    is counted, and every other input has its outputs built, its look-ahead
    guards read from the same classes.  A chain's domain is the inputs with
    an output after its last stage: only those are counted.  All inputs
    share one owner per stage (`_Classes`), whose first is the class table
    of the domain, and the owners are cleared when the check ends, so the
    check keeps no memory and no machine state.
    """
    return _check(target, max_size, DEFAULT_OUTPUT_CAP)


def _check(target, max_size: int, cap: int) -> Verdict:
    """`check_functional_bounded` with every output set bounded by cap."""
    check_positive(max_size, "max_size")
    if not isinstance(target, (CompositionChain, LookaheadTransducer)):
        target = CompositionChain((target,))
    if isinstance(target, LookaheadTransducer):
        owners = [_Classes(target.base, target.la)]
    else:
        owners = [_Classes(base, None) for base in target.stages]
    cl = owners[0]
    initial = cl.base.initial
    one_stage = len(owners) == 1
    inputs_checked = 0
    single_output_inputs = 0
    inputs_enumerated = 0
    outputs_computed = 0
    counterexample = None
    # An exception's traceback keeps this frame alive: clear the owners anyway.
    try:
        for size, domain in enumerate(_domain_sizes(cl, initial.name, max_size), start=1):
            count = sum(c for _, c in domain)
            inputs_enumerated += count
            if one_stage and all(initial.name in cl.classes[k][1] for k, _ in domain):
                # every input of this size has one output: counted, unbuilt
                inputs_checked += count
                single_output_inputs += count
                continue
            for s in _domain_trees(cl, domain):
                # labels s first: its proper subtrees' classes decide the guards
                if one_stage and initial.name in cl.classes[_label(cl, s)][1]:
                    inputs_checked += 1
                    single_output_inputs += 1
                    continue
                outs = _outputs(owners, s, cap)
                if not outs:  # a later stage drops it: not in the chain's domain
                    continue
                inputs_checked += 1
                outputs_computed += len(outs)
                if len(outs) > 1:
                    counterexample = Counterexample(s, tuple(sort_trees(outs)[:2]))
                    break
            if counterexample is not None:
                break
        stats = {
            "inputs_checked": inputs_checked,
            "outputs_computed": outputs_computed + single_output_inputs,
            "memo_entries": sum(len(o.labels if o.base.automaton else o.memo) for o in owners),
            "inputs_enumerated": inputs_enumerated,
            "max_size_reached": size,
            "single_output_inputs": single_output_inputs,
            "label_classes": len(cl.classes),
            "label_transitions": len(cl.table),
        }
    finally:
        for o in owners:
            o.clear()
    status = FUNCTIONAL if counterexample is None else NOT_FUNCTIONAL
    return Verdict(status, max_size, counterexample, stats)


def decide_functionality(chain: CompositionChain | Transducer, max_size: int) -> tuple[Verdict, list[BuildReport]]:
    """Trade the last pair of the chain for one stage until one is left,
    and check that at the bound (a one-stage chain, or a bare transducer, is
    checked as it is); returns every intermediate report.  Each step is
    `constructions._check_step`: a longer chain's last pair becomes M's base
    without its look-ahead when no guard can fail, and otherwise
    `reduce_chain`'s reader and fused relabeling; the final pair becomes M
    over hat, with no power-set look-ahead automaton and no trim, whose
    report comes last.  A longer chain is first checked on itself up to
    PROBE_SIZE (`_refute`); if that finds a counterexample, the chain's
    verdict and its one `chain-refuted` report are returned, and no step
    runs."""
    check_positive(max_size, "max_size")
    target = chain if isinstance(chain, CompositionChain) else CompositionChain((chain,))
    if len(target) > 1:
        refuted = _refute(target, max_size)
        if refuted is not None:
            return refuted
    reports: list[BuildReport] = []
    verdict = check_functional_bounded(_reduce(target, reports), max_size)
    return verdict, reports


def _reduce(target: CompositionChain, reports: list) -> CompositionChain | LookaheadTransducer:
    """The one stage `decide_functionality` checks: the chain after
    `_check_step` on its last pair until one stage is left.  A step's cap
    names the user's stages it folds, from the pair's first to the last."""
    n = len(target)
    while isinstance(target, CompositionChain) and len(target) > 1:
        try:
            target = _check_step(target, reports)
        except ResourceLimit as e:
            raise ResourceLimit("reducing stages %d-%d of %d: %s" % (len(target) - 1, n, n, e)) from e
    return target


def _refute(chain: CompositionChain, max_size: int) -> tuple[Verdict, list[BuildReport]] | None:
    """The chain's own verdict up to PROBE_SIZE (at most max_size), with
    its `chain-refuted` report, if it is not functional there; None if it
    is, or if an output set outgrows PROBE_CAP.  The bounded check is exact
    relative to its bound on the chain as on M, and visits the same domain
    in the same order, so its counterexample, outputs, size reached and
    inputs checked are the ones M's check would give."""
    t0 = time.perf_counter()
    try:
        verdict = _check(chain, min(max_size, PROBE_SIZE), PROBE_CAP)
    except ResourceLimit:
        return None
    if verdict.functional:
        return None
    verdict.bound = max_size
    stats = {key: verdict.stats[key] for key in ("max_size_reached", "inputs_checked", "outputs_computed")}
    stats["elapsed_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    return verdict, [_ChainRefuted(chain, stats)]


class _ChainRefuted(BuildReport):
    """The report of a chain that `_refute` refuted: no construction ran.
    It names the chain's stages, counts their states, and holds the
    probe's size reached, inputs checked, outputs computed and time.  Its
    machine is M, which the check would have checked: built by the check's
    own steps (`_reduce`) when it is first read, and kept."""

    def __init__(self, chain: CompositionChain, stats: dict):
        self.label = "chain-refuted"
        self.states_before = self.states_after = sum(len(t.states) for t in chain)
        self.provenance, self.stats = {}, stats
        self.chain, self._machine = chain, None

    def __repr__(self):  # the dataclass's would build M
        return "_ChainRefuted(%s)" % self.name

    @property
    def name(self) -> str:
        return ";".join(t.name for t in self.chain)

    @property
    def machine(self):
        if self._machine is None:
            self._machine = _reduce(self.chain, [])
        return self._machine


# -- derivation tracing -------------------------------------------------------


@dataclass
class TraceStep:
    node: NodeAddress
    rule_index: int
    rule: Rule
    form: Tree


@dataclass
class DerivationTrace:
    machine: Transducer
    input: Tree
    steps: tuple[TraceStep, ...]
    final: Tree
    complete: bool


def _markers(form: Tree):
    """Sentential-form markers: (output address, state, input address), in
    address order, which is the pre-order of the walk."""
    out = []
    stack = [(form, ())]
    while stack:
        node, path = stack.pop()
        if isinstance(node.label, StateOverNode):
            out.append((NodeAddress(path), node.label.state, node.label.node))
        stack.extend(reversed([(c, path + (i,)) for i, c in enumerate(node.children, start=1)]))
    return out


def _replace_at(form: Tree, addr: NodeAddress, replacement: Tree) -> Tree:
    """form with the subtree at addr replaced: the nodes above it are rebuilt."""
    above = []
    for i in addr.path:
        above.append(form)
        form = form.children[i - 1]
    for node, i in zip(reversed(above), reversed(addr.path)):
        kids = list(node.children)
        kids[i - 1] = replacement
        replacement = Tree(node.label, kids)
    return replacement


def _instantiate_rhs(rhs: Tree, input_addr: NodeAddress) -> Tree:
    """rhs with each q(xi) made q(v.i), v the input address, at any depth."""
    return replace_markers(rhs, lambda m: Tree(StateOverNode(m.label.state, input_addr.child(m.label.index))))


def derivations(t: Transducer, tree: Tree):
    """Depth-first stream of maximal rewrite sequences from q0(input).

    At every step the candidate moves are all (pending marker, applicable
    rule) pairs, markers ordered by output address and rules in definition
    order; stuck markers (no applicable rule) simply stay, so a maximal
    sequence ends ground or in a stuck sentential form.  Visiting more than
    TRACE_BUDGET forms raises ResourceLimit, naming the branch reached.
    """
    _require(Transducer, "trace", t)
    check_ground_over(tree, t.input_alphabet)
    rule_index = {id(r): i + 1 for i, r in enumerate(t.rules)}
    form = Tree(StateOverNode(t.initial, ROOT))
    # `form`'s markers, in address order, each with its input subtree
    markers = [(ROOT, t.initial, ROOT, tree)]
    # each form from the initial one down to `form` with its markers and the
    # moves it has left, and the steps that reach `form`
    path, steps = [], []
    visited = branch = 0
    while True:
        visited += 1
        if visited > TRACE_BUDGET:
            raise ResourceLimit("trace visits more than %d sentential forms, on branch %d" % (TRACE_BUDGET, branch))
        moves = [(j, rule) for j, (_, state, _, sub) in enumerate(markers) for rule in t.rules_for(state, sub.label)]
        if moves:
            path.append((form, markers, iter(moves)))
        else:
            yield tuple(steps), form
            branch += 1
        while path:
            form, markers, rest = path[-1]
            move = next(rest, None)
            if move is not None:
                break
            path.pop()
        else:
            return
        j, rule = move
        addr, _, input_addr, sub = markers[j]
        rhs = _instantiate_rhs(rule.rhs, input_addr)
        form = _replace_at(form, addr, rhs)
        # the right-hand side's markers lie below addr, so they take its place
        # in address order; each q(v.i) reads the i-th child of v's subtree
        below = [(NodeAddress(addr.path + a.path), q, v, sub.children[v.path[-1] - 1]) for a, q, v in _markers(rhs)]
        markers = markers[:j] + below + markers[j + 1 :]
        del steps[len(path) - 1 :]
        steps.append(TraceStep(addr, rule_index[id(rule)], rule, form))


def trace_derivation(t: Transducer, tree: Tree, branch: int = 0) -> DerivationTrace:
    """One maximal rewrite sequence; `branch` indexes the depth-first
    enumeration of all (node, rule) choice sequences.  It is complete iff
    its final form holds no marker, all of which are `StateOverNode`s."""
    if branch < 0:
        raise ValidationError("branch must be >= 0")
    got = list(islice(derivations(t, tree), branch, branch + 1))
    if not got:
        raise ValidationError("branch %d is out of range" % branch)
    steps, final = got[0]
    return DerivationTrace(t, tree, steps, final, not _markers(final))
