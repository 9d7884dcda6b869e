"""Independent oracles the implementation is checked against.

These deliberately avoid the package's evaluation code paths: translation by
brute-force sentential-form rewriting, composition by staged rewriting, and
look-ahead translation by materializing every relabeling.
"""

from itertools import combinations, product

from ttc import ResourceLimit, StateId
from ttc.trees import (
    ROOT,
    AnnotatedSymbol,
    StateOverNode,
    StateOverVariable,
    Tree,
    check_ground_over,
    subtree_at,
)


def rewrite_translate(t, source, state=None):
    """All ground outputs derivable from state(source) by exhaustively
    rewriting sentential forms, one marker at a time."""
    start = Tree(StateOverNode(state or t.initial, ROOT))
    outputs = set()
    stack = [start]
    seen = {start}
    while stack:
        form = stack.pop()
        spot = _first_marker(form, ())
        if spot is None:
            outputs.add(form)
            continue
        path, marker = spot
        subtree = subtree_at(source, marker.node)
        for rule in t.rules_for(marker.state, subtree.label):
            filled = _plug(rule.rhs, marker.node)
            new_form = _replace(form, path, filled)
            if new_form not in seen:
                seen.add(new_form)
                stack.append(new_form)
    return outputs


def _first_marker(form, path):
    if isinstance(form.label, StateOverNode):
        return path, form.label
    for i, child in enumerate(form.children, start=1):
        got = _first_marker(child, path + (i,))
        if got is not None:
            return got
    return None


def _plug(rhs, input_addr):
    lab = rhs.label
    if isinstance(lab, StateOverVariable):
        return Tree(StateOverNode(lab.state, input_addr.child(lab.index)))
    return Tree(lab, tuple(_plug(c, input_addr) for c in rhs.children))


def _replace(form, path, replacement):
    if not path:
        return replacement
    i = path[0]
    kids = list(form.children)
    kids[i - 1] = _replace(kids[i - 1], path[1:], replacement)
    return Tree(form.label, kids)


def staged_compose(stages, source):
    """Relational composition computed stage by stage with the rewrite oracle."""
    outs = {source}
    for stage in stages:
        step = set()
        for tree in outs:
            step |= rewrite_translate(stage, tree)
        outs = step
    return outs


def translate_la_eager(m, tree, size_guard=12, cap=None):
    """Eager two-phase semantics: materialize relabeled trees, then translate.

    Each node child is annotated with a set of look-ahead states the automaton
    can arrive in (any subset of the valid ones drawn from the annotations the
    rules actually use); a rule fires when its annotation is in the recorded
    set.  Look-ahead membership comes from the rewrite oracle.  Guarded by a
    tree-size limit since the annotation fan-out is exponential.
    """
    check_ground_over(tree, m.input_alphabet)
    if tree.size > size_guard:
        raise ResourceLimit(
            "eager relabeling materializes only trees of size <= %d" % size_guard
        )

    ann_universe = {}
    for r in m.base.rules:
        for i, l in enumerate(r.lookahead):
            ann_universe.setdefault((r.symbol, i), set()).add(l)

    def annotations(node):
        if not node.children:
            return [Tree(AnnotatedSymbol(node.label, ()))]
        per_child = []
        for i, child in enumerate(node.children):
            cands = sorted(ann_universe.get((node.label, i), ()), key=lambda s: s.name)
            valid = [l for l in cands if rewrite_translate(m.la, child, l)]
            parts = [StateId.of_set(c) for n in range(len(valid) + 1) for c in combinations(valid, n)]
            per_child.append(parts)
        child_alts = [annotations(c) for c in node.children]
        out = []
        for parts_combo in product(*per_child):
            for kids in product(*child_alts):
                out.append(Tree(AnnotatedSymbol(node.label, parts_combo), kids))
        return out

    results = set()
    for relabeled in annotations(tree):
        results |= _translate_annotated(m.base, relabeled, cap)
        if cap is not None and len(results) > cap:
            raise ResourceLimit("output set exceeds cap %d" % cap)
    return frozenset(results)


def _translate_annotated(base, relabeled, cap=None):
    """Run annotated rules over a relabeled tree; a rule fires when each of its
    annotations is a member of the part set recorded at the node."""

    def eval_state(q, s):
        sym = s.label
        acc = set()
        for rule in base.rules_for(q, sym.name):
            if all(l in sym.annotations[i].members() for i, l in enumerate(rule.lookahead)):
                acc |= expand(rule.rhs, s)
        return frozenset(acc)

    def expand(node, s):
        lab = node.label
        if isinstance(lab, StateOverVariable):
            return eval_state(lab.state, s.children[lab.index - 1])
        if not node.children:
            return frozenset((node,))
        alts = [expand(c, s) for c in node.children]
        if any(not a for a in alts):
            return frozenset()
        count = 1
        for a in alts:
            count *= len(a)
            if cap is not None and count > cap:
                raise ResourceLimit("output set exceeds cap %d" % cap)
        return frozenset(Tree(lab, combo) for combo in product(*alts))

    return eval_state(base.initial, relabeled)
