"""Independent oracles the implementation is checked against.

These deliberately avoid the package's evaluation code paths: translation by
brute-force sentential-form rewriting, composition by staged rewriting,
look-ahead translation by materializing every relabeling, the domain
automaton by walking every subset of rules, the product construction by
rewriting each right-hand side afresh per (pair, rule), as sentential
forms in which a state meeting a marker leaf at node v stays as the final
marker q(v), and a rebuild of each result that finds each marker's
variable by that address, the trim of a look-ahead
transducer by building its base twice, the bounded check by translating
every tree up to the bound, where the package counts most sizes by subtree
class, the emptiness of a state set by exploring requirement sets one rule
choice per member, and domain membership and single outputs by top-down
recursive tests that decide each look-ahead guard by membership in the
look-ahead automaton, where the package reads subtree classes, and a
rule's child states by a recursive walk of its right-hand side, where the
package reads them in the walk that validates the machine.
"""

from itertools import combinations, product

from ttc import CompositionChain, LookaheadTransducer, ResourceLimit, Rule, StateId, Transducer, chain_outputs
from ttc.decision import FUNCTIONAL, NOT_FUNCTIONAL, Counterexample, Verdict
from ttc.machines import EMPTY_SET_STATE
from ttc.trees import (
    ROOT,
    AnnotatedSymbol,
    StateOverNode,
    StateOverVariable,
    Tree,
    check_ground_over,
    sort_trees,
    subtree_at,
)


def rewrite_translate(t, source, state=None):
    """All outputs derivable from state(source) by exhaustively rewriting
    sentential forms, one marker at a time: the ground outputs for a ground
    source.  A source may have marker leaves, as a right-hand side does; a
    state q meeting one at node v stays in the output as the marker q(v)."""
    start = Tree(StateOverNode(state or t.initial, ROOT))
    outputs = set()
    stack = [start]
    seen = {start}
    while stack:
        form = stack.pop()
        spot = _first_marker(form, (), source)
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


def _first_marker(form, path, source):
    """The first marker of form still to rewrite, with its path: one whose
    input node is not a marker leaf of the source."""
    lab = form.label
    if isinstance(lab, StateOverNode) and not isinstance(subtree_at(source, lab.node).label, StateOverVariable):
        return path, lab
    for i, child in enumerate(form.children, start=1):
        got = _first_marker(child, path + (i,), source)
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


def reference_child_states(rule):
    """For each variable x_i of the rule, the states q with q(x_i) in its
    right-hand side, found by recursion over the rhs."""
    found = [set() for _ in range(rule.variables)]

    def go(node):
        lab = node.label
        if isinstance(lab, StateOverVariable):
            assert 1 <= lab.index <= rule.variables, str(rule)
            found[lab.index - 1].add(lab.state)
        for child in node.children:
            go(child)

    go(rule.rhs)
    return tuple(frozenset(states) for states in found)


def _member(base: Transducer, la: Transducer | None, q: StateId, s: Tree, memo: dict, la_memo: dict | None) -> bool:
    """True iff some ground output is derivable from q(s), stored in `memo`
    under (state name, subtree text); `la_memo` holds the answers for the
    look-ahead automaton.  Callers look the key up first and call only on a
    miss, as this function does for the children.  A rule fires at s iff
    every child lies in the domain of its look-ahead state (always, without
    look-ahead)."""
    kids = s.children
    ok = False
    for rule in base.rules_for(q, s.label):
        ok = True
        if la is not None:
            for l, c in zip(rule.lookahead, kids):
                ok = la_memo.get((l.name, c.text))
                if ok is None:
                    ok = _member(la, None, l, c, la_memo, None)
                if not ok:
                    break
        for i, req in enumerate(rule.child_states):
            if not ok:
                break
            c = kids[i]
            for q2 in req:
                ok = memo.get((q2.name, c.text))
                if ok is None:
                    ok = _member(base, la, q2, c, memo, la_memo)
                if not ok:
                    break
        if ok:
            break
    memo[(q.name, s.text)] = ok
    return ok


def dom_member(machine, state, tree):
    """True iff some ground output is derivable from state(tree), for a plain
    or a look-ahead transducer, by `_member` with fresh memos."""
    if isinstance(machine, LookaheadTransducer):
        return _member(machine.base, machine.la, state, tree, {}, {})
    return _member(machine, None, state, tree, {}, None)


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


def _set_members(state):
    """The members of a look-ahead state of set provenance."""
    if state.kind != "set":
        raise ValueError("state %s has no set provenance" % state.name)
    return state.parts


def _translate_annotated(base, relabeled, cap=None):
    """Run annotated rules over a relabeled tree; a rule fires when each of its
    annotations is a member of the part set recorded at the node."""

    def eval_state(q, s):
        sym = s.label
        acc = set()
        for rule in base.rules_for(q, sym.name):
            if all(l in _set_members(sym.annotations[i]) for i, l in enumerate(rule.lookahead)):
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


def domain_automaton_by_subsets(t, seeds=(), name=None):
    """The power-set domain automaton built by brute force: for each state
    set and symbol, every non-empty subset of each member's rules, and every
    combination of one such subset per member."""
    sigma = t.input_alphabet
    known = {frozenset()}
    queue = []
    ordered_seeds = sorted((frozenset(s) for s in seeds), key=lambda m: sorted(x.name for x in m))
    for members in [frozenset({t.initial})] + ordered_seeds:
        if members not in known:
            known.add(members)
            queue.append(members)

    rules = []
    seen_rules = set()
    for sym, k in sigma.items():
        rhs = Tree(sym, tuple(Tree(StateOverVariable(EMPTY_SET_STATE, i)) for i in range(1, k + 1)))
        rules.append(Rule(EMPTY_SET_STATE, sym, k, rhs))

    while queue:
        members = queue.pop(0)
        state = StateId.of_set(members)
        for sym, k in sigma.items():
            per_member = []
            for q in sorted(members, key=lambda s: s.name):
                own = t.rules_for(q, sym)
                per_member.append(
                    [
                        tuple(frozenset().union(*(r.child_states[i] for r in chosen)) for i in range(k))
                        for n in range(1, len(own) + 1)
                        for chosen in combinations(own, n)
                    ]
                )
            for combo in product(*per_member):
                children = tuple(frozenset().union(*(sig[i] for sig in combo)) for i in range(k))
                key = (state.name, sym, tuple(StateId.of_set(c).name for c in children))
                if key in seen_rules:
                    continue
                seen_rules.add(key)
                child_ids = tuple(StateId.of_set(c) for c in children)
                rhs = Tree(sym, tuple(Tree(StateOverVariable(cid, i + 1)) for i, cid in enumerate(child_ids)))
                rules.append(Rule(state, sym, k, rhs))
                for c in children:
                    if c not in known:
                        known.add(c)
                        queue.append(c)

    states = [StateId.of_set(m) for m in known]
    return Transducer(name or "dom(%s)" % t.name, sigma, sigma, rules, StateId.of_set({t.initial}), states=states)


def _instantiate(psi, xi, make_state, pair_filter):
    """Replace q2(u) markers in psi by paired-state markers over the variable
    that labels node u of xi."""
    demanded = []
    vetoed = False

    def go(node):
        nonlocal vetoed
        lab = node.label
        if isinstance(lab, StateOverNode):
            marker = subtree_at(xi, lab.node).label
            q1p, q2p = marker.state, lab.state
            if pair_filter is not None and not pair_filter(q1p, q2p):
                vetoed = True
                return node
            demanded.append((q1p, q2p))
            return Tree(StateOverVariable(make_state(q1p, q2p), marker.index))
        if not node.children:
            return node
        return Tree(lab, tuple(go(c) for c in node.children))

    gamma = go(psi)
    return gamma, demanded, not vetoed


def p_construction_by_rewriting(t1, t2, make_state=None, pair_filter=None, name=None):
    """The product construction with a fresh `rewrite_translate` of the
    rule's rhs per (pair, rule), whose results keep q2(v) for q2 meeting the
    marker at node v; returns the machine and the (new rule, source t1
    rule) pairing."""
    make_state = make_state or StateId.pair
    init = (t1.initial, t2.initial)
    seen_pairs = {init}
    queue = [init]
    states = {make_state(*init)}
    rules, sources = [], []
    seen_rules, seen_pairs_rule = set(), set()
    while queue:
        q1, q2 = queue.pop(0)
        head = make_state(q1, q2)
        for src in t1.rules_of(q1):
            for psi in sorted(rewrite_translate(t2, src.rhs, q2), key=lambda p: p.text):
                gamma, demanded, ok = _instantiate(psi, src.rhs, make_state, pair_filter)
                if not ok:
                    continue
                rule = Rule(head, src.symbol, src.variables, gamma)
                pair_key = (rule.state.name, rule.symbol, rule.rhs.text, id(src))
                if pair_key in seen_pairs_rule:
                    continue
                seen_pairs_rule.add(pair_key)
                sources.append((rule, src))
                if pair_key[:3] not in seen_rules:
                    seen_rules.add(pair_key[:3])
                    rules.append(rule)
                for pair in demanded:
                    if pair not in seen_pairs:
                        seen_pairs.add(pair)
                        queue.append(pair)
                        states.add(make_state(*pair))
    machine = Transducer(
        name or "p(%s,%s)" % (t1.name, t2.name), t1.input_alphabet, t2.output_alphabet, rules, make_state(*init), states=states
    )
    return machine, sources


def trim_lookahead_by_rebuild(base, la):
    """The trim of a look-ahead transducer in two passes over StateIds: the
    productive look-ahead states by a fixpoint over every rule, the base
    rebuilt from the rules with productive annotations and then restricted
    to its reachable states, and the look-ahead states reachable from the
    initial state and the kept annotations through the productive children
    of every rule of a kept state, also of a rule that is then dropped."""
    live = set()
    changed = True
    while changed:
        changed = False
        for r in la.rules:
            if r.state not in live and all(q in live for req in r.child_states for q in req):
                live.add(r.state)
                changed = True
    live_rules = [r for r in base.rules if all(l in live for l in r.lookahead)]
    base1 = Transducer(
        base.name, base.input_alphabet, base.output_alphabet, live_rules, base.initial, states=base.states
    )
    seen = {base1.initial}
    todo = [base1.initial]
    while todo:
        q = todo.pop()
        for r in base1.rules_of(q):
            for req in r.child_states:
                for q2 in req:
                    if q2 not in seen:
                        seen.add(q2)
                        todo.append(q2)
    base2 = Transducer(
        base1.name,
        base1.input_alphabet,
        base1.output_alphabet,
        [r for r in base1.rules if r.state in seen and all(req <= seen for req in r.child_states)],
        base1.initial,
        states=seen,
    )
    used = {l for r in base2.rules for l in r.lookahead} | {la.initial}
    keep = set(used & live)
    todo = list(keep)
    if la.initial in live:
        keep.add(la.initial)
        todo.append(la.initial)
    while todo:
        l = todo.pop()
        for r in la.rules_of(l):
            for req in r.child_states:
                for l2 in req:
                    if l2 in live and l2 not in keep:
                        keep.add(l2)
                        todo.append(l2)
    keep.add(la.initial)
    live_kept = keep & live
    la_rules = [r for r in la.rules if r.state in live_kept and all(req <= live_kept for req in r.child_states)]
    return base2, Transducer(la.name, la.input_alphabet, la.output_alphabet, la_rules, la.initial, states=keep)


def all_trees(alphabet, max_size):
    """Every ground tree over the alphabet of size <= max_size, by size and
    then by text."""
    by_size = {}
    for n in range(1, max_size + 1):
        layer = []
        for sym, k in alphabet.items():
            for sizes in product(range(1, n), repeat=k):
                if 1 + sum(sizes) == n:
                    for kids in product(*(by_size[m] for m in sizes)):
                        layer.append(Tree(sym, kids))
        by_size[n] = sorted(layer, key=lambda tree: tree.text)
    return [tree for n in range(1, max_size + 1) for tree in by_size[n]]


def first_counterexample(stages, max_size):
    """The bounded check by full enumeration: every tree up to the bound in
    canonical order, translated by staged rewriting; returns the first input
    with two outputs (or None), its two smallest outputs, and how many inputs
    with an output were checked up to and including it."""
    checked = 0
    for s in all_trees(stages[0].input_alphabet, max_size):
        outs = staged_compose(stages, s)
        if outs:
            checked += 1
        if len(outs) > 1:
            return s, tuple(sorted(outs, key=lambda o: (o.size, o.text))[:2]), checked
    return None, (), checked


def single_output(base, la, q, s, memo):
    """True iff exactly one rule of q fires at the root of s, its guards
    decided by `_member`, and each call of that rule has a single output on
    its child: the `one` of the check's subtree classes, by top-down
    recursion; memoised on (state name, subtree text)."""
    key = (q.name, s.text)
    if key not in memo:
        kids = s.children
        fired = [
            r
            for r in base.rules_for(q, s.label)
            if la is None or all(_member(la, None, l, c, {}, None) for l, c in zip(r.lookahead, kids))
        ]
        memo[key] = len(fired) == 1 and all(
            single_output(base, la, q2, kids[i], memo) for i, req in enumerate(fired[0].child_states) for q2 in req
        )
    return memo[key]


def reference_check(target, max_size):
    """The bounded check without subtree classes or counts: every tree up to
    the bound in canonical order, every one with an output of the first
    stage (of M, for a look-ahead transducer) is an input and has all its
    outputs built (`chain_outputs`, or `translate_la` for a
    look-ahead transducer), an input is checked iff it has an output after
    the last stage, and the first input with two outputs ends the check at
    its size.  A one-stage input counts as a single output input
    iff `single_output` holds for the initial state.  Returns the verdict,
    with the counted stats, and the inputs a one-stage check enumerates: the
    checked inputs of each size that holds an input without a single output
    (of every size, for a longer chain)."""
    if isinstance(target, LookaheadTransducer):
        base, la, first = target.base, target.la, target
        translate = target.translate_la
    else:
        chain = target if isinstance(target, CompositionChain) else CompositionChain((target,))
        base, la, first = chain.stages[0] if len(chain) == 1 else None, None, chain.stages[0]
        translate = lambda s: chain_outputs(chain, s)  # noqa: E731
    by_size = {}
    for s in all_trees(first.input_alphabet, max_size):
        outs = translate(s)
        # an input lies in the domain of the first stage
        if outs if first is target else chain_outputs(first, s):
            by_size.setdefault(s.size, []).append((s, outs))
    memo = {}
    stats = dict.fromkeys(("inputs_checked", "outputs_computed", "inputs_enumerated", "single_output_inputs"), 0)
    enumerated, counterexample = [], None
    for size in range(1, max_size + 1):
        layer = by_size.get(size, [])
        stats["inputs_enumerated"] += len(layer)
        singles = [base is not None and single_output(base, la, base.initial, s, memo) for s, _ in layer]
        checked = []
        for (s, outs), single in zip(layer, singles):
            checked.append(s)
            if not outs:  # a later stage of a chain drops it
                continue
            stats["inputs_checked"] += 1
            stats["outputs_computed"] += len(outs)
            stats["single_output_inputs"] += single
            if len(outs) > 1:
                counterexample = Counterexample(s, tuple(sort_trees(outs)[:2]))
                break
        if not all(singles):
            enumerated += checked
        if counterexample is not None:
            break
    stats["max_size_reached"] = size
    status = FUNCTIONAL if counterexample is None else NOT_FUNCTIONAL
    return Verdict(status, max_size, counterexample, stats), enumerated


def identity_automaton(alphabet, state_name="u", name="identity"):
    """The one-state automaton accepting every tree over the alphabet."""
    u = StateId.base(state_name)
    rules = []
    for sym, k in alphabet.items():
        rhs = Tree(sym, tuple(Tree(StateOverVariable(u, i)) for i in range(1, k + 1)))
        rules.append(Rule(u, sym, k, rhs))
    return Transducer(name, alphabet, alphabet, rules, u, states=[u])


def wrap_trivial_lookahead(t):
    """View a plain transducer as a look-ahead transducer with a universal
    one-state look-ahead automaton."""
    la = identity_automaton(t.input_alphabet, name="universal(%s)" % t.name)
    u = la.initial
    rules = [Rule(r.state, r.symbol, r.variables, r.rhs, lookahead=(u,) * r.variables) for r in t.rules]
    base = Transducer(t.name, t.input_alphabet, t.output_alphabet, rules, t.initial, states=t.states)
    return LookaheadTransducer(base, la)


def requirement_alternatives(t, members):
    """Per symbol, the merged child-requirement vectors opened by choosing
    one rule per member state (projections of subset choices accept the
    same trees, so single choices decide emptiness exactly)."""
    for sym, k in t.input_alphabet.items():
        merged = {(frozenset(),) * k}
        for q in members:
            merged = {
                tuple(a | b for a, b in zip(m, r.child_states)) for m in merged for r in t.rules_for(q, sym)
            }
        yield from merged


def set_productive(t, members):
    """True iff some ground tree lies in the domain of every member state of
    t: a fixpoint over the requirement sets reachable from `members`."""
    members = frozenset(members)
    universe = {members}
    stack = [members]
    alternatives = []
    while stack:
        current = stack.pop()
        for vec in requirement_alternatives(t, current):
            alternatives.append((current, vec))
            for child in vec:
                if child not in universe:
                    universe.add(child)
                    stack.append(child)
                    if len(universe) > 100000:
                        raise ResourceLimit("requirement-set universe too large")
    productive = set()
    changed = True
    while changed:
        changed = False
        for current, vec in alternatives:
            if current not in productive and all(c in productive for c in vec):
                productive.add(current)
                changed = True
    return members in productive


def machines_equal(a, b) -> bool:
    """Structural machine equality: same alphabets, initial state, states and rules."""
    if isinstance(a, LookaheadTransducer) != isinstance(b, LookaheadTransducer):
        return False
    if isinstance(a, LookaheadTransducer):
        return machines_equal(a.base, b.base) and machines_equal(a.la, b.la)
    return (
        a.input_alphabet == b.input_alphabet
        and a.output_alphabet == b.output_alphabet
        and a.initial == b.initial
        and a.states == b.states
        and a.rules == b.rules
    )


def workspaces_equal(a, b) -> bool:
    """Same machine and chain names, each pair of machines equal as above."""
    if set(a.machines) != set(b.machines) or set(a.chains) != set(b.chains):
        return False
    for name in a.machines:
        if not machines_equal(a.machines[name], b.machines[name]):
            return False
    for name in a.chains:
        sa, sb = a.chains[name].stages, b.chains[name].stages
        if len(sa) != len(sb) or any(not machines_equal(x, y) for x, y in zip(sa, sb)):
            return False
    return True
