"""Composition-chain semantics, the bounded functionality checker, and traces.

The checker enumerates the domain of its target (not all trees) up to a size
bound, counts the outputs of each input, and reports the first input with two
distinct outputs in canonical order.  A one-stage target's inputs are labelled
bottom up with subtree classes, one table lookup per node, which count most
single outputs without building them.  Verdicts are always bound-relative: a
"functional" answer means no counterexample of size up to the bound exists.
"""

from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass, field
from itertools import islice

from .constructions import BuildReport, CompositionChain, build_m, reduce_chain
from .errors import ResourceLimit, ValidationError
from .machines import LookaheadTransducer, Rule, Transducer, _evaluate, _single_output, check_positive, enumerate_sizes
from .trees import ROOT, NodeAddress, StateOverNode, StateOverVariable, Tree, check_ground_over, sort_trees, subtree_at

DEFAULT_OUTPUT_CAP = 10**6

FUNCTIONAL = "functional-up-to-bound"
NOT_FUNCTIONAL = "not-functional"


def chain_outputs(chain: CompositionChain | Transducer, tree: Tree, cap: int | None = DEFAULT_OUTPUT_CAP) -> frozenset[Tree]:
    """Left-to-right relational composition of the stage translations."""
    if not isinstance(chain, CompositionChain):
        chain = CompositionChain((chain,))
    check_positive(cap, "cap", optional=True)
    check_ground_over(tree, chain.stages[0].input_alphabet)
    return frozenset(_outputs(chain.stages, tree, cap, [{} for _ in chain.stages], None, None))


def _outputs(stages, tree: Tree, cap: int | None, memos, labels: dict | None, classes: list | None) -> Collection[Tree]:
    """The outputs of the stages, composed left to right, on a valid input,
    without repeats; stage i memoises in memos[i], and a look-ahead base
    reads its guards from the input's labels (see `_evaluate`).  A chain's
    alphabets match, so every intermediate tree is valid for the next
    stage.  The cap bounds each stage's whole output set."""
    outs = (tree,)
    for base, memo in zip(stages, memos):
        if len(outs) == 1:
            # `_evaluate` returns a tuple without repeats: no set needed
            (t,) = outs
            outs = _evaluate(base, base.initial, t, cap, memo, labels, classes)
            continue
        step = set()
        for t in outs:
            step.update(_evaluate(base, base.initial, t, cap, memo, labels, classes))
            if cap is not None and len(step) > cap:
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


def check_functional_bounded(target, max_size: int, output_cap: int = DEFAULT_OUTPUT_CAP) -> Verdict:
    """Exhaustively check single-valuedness on all domain members up to max_size.

    The target is a composition chain (a bare transducer counts as a 1-chain)
    or a look-ahead transducer.  Inputs are visited in canonical order, so the
    reported counterexample is reproducible.  The domain is enumerated one
    size at a time, and the check stops at the first size that has a
    counterexample.  A one-stage input whose subtree class (`_single_output`)
    gives the initial state one output is counted, not built; every other
    input has its outputs built, its look-ahead guards read from the same
    classes.  All inputs share one memo per stage and one class table,
    cleared when the check ends, so the check keeps no memory and no machine
    state.
    """
    check_positive(output_cap, "output_cap", optional=True)
    if not isinstance(target, (CompositionChain, LookaheadTransducer)):
        target = CompositionChain((target,))
    if isinstance(target, LookaheadTransducer):
        first, initial, la = target, target.base.initial, target.la
        stages = [target.base]
    else:
        first, initial, la = target.stages[0], target.stages[0].initial, None
        stages = target.stages
    layers = enumerate_sizes(first.input_alphabet, ((first, initial),), max_size)
    memos = [{} for _ in stages]
    labels, table, classes = {}, {}, []
    inputs_checked = 0
    single_output_inputs = 0
    inputs_enumerated = 0
    outputs_computed = 0
    size = 0
    counterexample = None
    # An exception's traceback keeps this frame alive: free the enumeration
    # and clear the memos anyway.
    try:
        for layer in layers:
            size += 1
            inputs_enumerated += len(layer)
            # Popped from the end of the reversed list, so each input is
            # freed once checked while the canonical order is kept.
            layer.reverse()
            while layer and counterexample is None:
                s = layer.pop()
                inputs_checked += 1
                # labels s first: its proper subtrees' classes decide the guards
                if len(stages) == 1 and _single_output(stages[0], la, initial, s, labels, table, classes):
                    single_output_inputs += 1
                    continue
                outs = _outputs(stages, s, output_cap, memos, labels, classes)
                outputs_computed += len(outs)
                if len(outs) > 1:
                    counterexample = Counterexample(s, tuple(sort_trees(outs)[:2]))
            if counterexample is not None:
                break
        stats = {
            "inputs_checked": inputs_checked,
            "outputs_computed": outputs_computed + single_output_inputs,
            "memo_entries": sum(len(memo) for memo in memos),
            "inputs_enumerated": inputs_enumerated,
            "max_size_reached": size,
            "single_output_inputs": single_output_inputs,
            "label_classes": len(classes),
            "label_transitions": len(table),
        }
    finally:
        layers.close()
        labels.clear()
        table.clear()
        classes.clear()
        for memo in memos:
            memo.clear()
    status = FUNCTIONAL if counterexample is None else NOT_FUNCTIONAL
    return Verdict(status, max_size, counterexample, stats)


def decide_functionality(chain: CompositionChain | Transducer, max_size: int, output_cap: int = DEFAULT_OUTPUT_CAP) -> tuple[Verdict, list[BuildReport]]:
    """Reduce the chain to two stages, build the look-ahead transducer for the
    final pair, and check it at the bound (a one-stage chain, or a bare
    transducer, is checked as it is); returns every intermediate report."""
    check_positive(max_size, "max_size")
    check_positive(output_cap, "output_cap", optional=True)
    chain = chain if isinstance(chain, CompositionChain) else CompositionChain((chain,))
    reports: list[BuildReport] = []
    while len(chain) > 2:
        chain, step_reports = reduce_chain(chain)
        reports.extend(step_reports)
    target = chain
    if len(chain) == 2:
        target, step_reports = build_m(chain.stages[0], chain.stages[1])
        reports.extend(step_reports)
    verdict = check_functional_bounded(target, max_size, output_cap=output_cap)
    return verdict, reports


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
    """Sentential-form markers: (output address, state, input address)."""
    out = []

    def walk(node, path):
        if isinstance(node.label, StateOverNode):
            out.append((NodeAddress(path), node.label.state, node.label.node))
        for i, c in enumerate(node.children, start=1):
            walk(c, path + (i,))

    walk(form, ())
    return out


def _replace_at(form: Tree, addr: NodeAddress, replacement: Tree) -> Tree:
    def go(node, path):
        if path == addr.path:
            return replacement
        if addr.path[: len(path)] != path:
            return node
        return Tree(node.label, tuple(go(c, path + (i,)) for i, c in enumerate(node.children, start=1)))

    return go(form, ())


def _instantiate_rhs(rhs: Tree, input_addr: NodeAddress) -> Tree:
    lab = rhs.label
    if isinstance(lab, StateOverVariable):
        return Tree(StateOverNode(lab.state, input_addr.child(lab.index)))
    return Tree(lab, tuple(_instantiate_rhs(c, input_addr) for c in rhs.children))


def derivations(t: Transducer, tree: Tree):
    """Depth-first stream of maximal rewrite sequences from q0(input).

    At every step the candidate moves are all (pending marker, applicable
    rule) pairs, markers ordered by output address and rules in definition
    order; stuck markers (no applicable rule) simply stay, so a maximal
    sequence ends ground or in a stuck sentential form.
    """
    check_ground_over(tree, t.input_alphabet)
    rule_index = {id(r): i + 1 for i, r in enumerate(t.rules)}
    start = Tree(StateOverNode(t.initial, ROOT))

    def rec(form, steps):
        moves = []
        for addr, state, input_addr in sorted(_markers(form), key=lambda m: m[0].path):
            symbol = subtree_at(tree, input_addr).label
            for rule in t.rules_for(state, symbol):
                moves.append((addr, input_addr, rule))
        if not moves:
            yield steps, form
            return
        for addr, input_addr, rule in moves:
            new_form = _replace_at(form, addr, _instantiate_rhs(rule.rhs, input_addr))
            step = TraceStep(addr, rule_index[id(rule)], rule, new_form)
            yield from rec(new_form, steps + (step,))

    yield from rec(start, ())


def trace_derivation(t: Transducer, tree: Tree, branch: int = 0) -> DerivationTrace:
    """One maximal rewrite sequence; `branch` indexes the depth-first
    enumeration of all (node, rule) choice sequences."""
    if branch < 0:
        raise ValidationError("branch must be >= 0")
    got = list(islice(derivations(t, tree), branch, branch + 1))
    if not got:
        raise ValidationError("branch %d is out of range" % branch)
    steps, final = got[0]
    return DerivationTrace(t, tree, steps, final, final.is_ground())
