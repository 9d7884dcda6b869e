"""Symbolic constructions on transducers.

Everything here is a pure function from machines to machines: the power-set
domain automaton, the product (p-) construction, the domain-restricted first
component, the triple-state product, the look-ahead transducer M, look-ahead
removal, fusion with a linear nondeleting second component, and the chain
reduction that trades the last two stages of a composition for M.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from itertools import product
from operator import attrgetter
from typing import Callable, Iterable

from .errors import (
    AlphabetMismatch,
    ChainTooShort,
    NotLinearNondeleting,
    ResourceLimit,
    ValidationError,
)
from .machines import (
    EMPTY_SET_STATE,
    LookaheadTransducer,
    Rule,
    StateId,
    Transducer,
    _addressed,
    _evaluate,
    merge_vectors,
)
from .trees import AnnotatedSymbol, RankedAlphabet, StateOverNode, StateOverVariable, Tree, check_ground_over, subtree_at

STATE_CAP = 5000
RULE_CAP = 60000


def _require(kind: type, what: str, *machines) -> None:
    """Raise ValidationError, naming the expected kind, for a machine of another kind."""
    for machine in machines:
        if not isinstance(machine, kind):
            raise ValidationError("%s needs a %s, not %r" % (what, kind.__name__, machine))


@dataclass
class BuildReport:
    """What a construction produced: the machine, pruning counts, provenance."""

    label: str
    machine: object
    states_before: int
    states_after: int
    provenance: dict[StateId, str] = field(default_factory=dict)
    stats: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class CompositionChain:
    """Alphabet-compatible sequence of transducers, composed left to right."""

    stages: tuple[Transducer, ...]

    def __post_init__(self):
        if not self.stages:
            raise ValidationError("a composition chain needs at least one stage")
        for stage in self.stages:
            if not isinstance(stage, Transducer):
                raise ValidationError("chain stage %r is not a plain transducer" % (stage,))
        for left, right in zip(self.stages, self.stages[1:]):
            if left.output_alphabet != right.input_alphabet:
                raise AlphabetMismatch(
                    "output alphabet of %s differs from input alphabet of %s"
                    % (left.name, right.name)
                )

    def __len__(self):
        return len(self.stages)

    def __iter__(self):
        return iter(self.stages)


def domain_automaton(t: Transducer, seeds: Iterable[frozenset[StateId]] = (), name: str | None = None) -> Transducer:
    """Power-set automaton over t's input alphabet recognizing state-set domains.

    One rule per state set S, symbol a and distinct vector of child sets,
    where each member of S contributes the child states of a non-empty
    subset of its rules on a.  The vectors come from two deduplicating
    folds: over a member's rules, the unions of the subsets; over the
    members, one union per member merged.  Only sets reachable from
    {initial}, the empty set, and the seeds are materialized; the empty set
    realizes the identity.

    Inside, a state set is an int bitmask over the states in name order.
    RULE_CAP is checked after each member's merge, on the rules so far plus
    the merged vectors, before any rule is built.  An intermediate merge can
    be larger than the final one, so the cap limits the work, not only the
    output.  Rules are emitted sorted by child-state names; each is given
    its child states, read off its vector, instead of walking its rhs.
    """
    _require(Transducer, "domain_automaton", t)
    sigma = t.input_alphabet
    ordered_seeds = sorted(
        (frozenset(s) for s in seeds), key=lambda m: sorted(x.name for x in m)
    )
    order = sorted(t.states.union(*ordered_seeds), key=lambda s: s.name)
    bit = {q.name: 1 << i for i, q in enumerate(order)}
    ids = {0: EMPTY_SET_STATE}
    alone = {0: frozenset((EMPTY_SET_STATE,))}  # mask -> {its StateId}

    def state_of(mask: int) -> StateId:
        sid = ids.get(mask)
        if sid is None:
            sid = ids[mask] = StateId.of_set(q for i, q in enumerate(order) if mask >> i & 1)
            alone[mask] = frozenset((sid,))
        return sid

    # (state name, symbol) -> the distinct unions of the child-state vectors
    # of the non-empty subsets of that state's rules on that symbol
    unions: dict[tuple[str, object], set[tuple[int, ...]]] = {}

    def unions_of(q: StateId, sym) -> set[tuple[int, ...]]:
        key = (q.name, sym)
        sigs = unions.get(key)
        if sigs is None:
            sigs = unions[key] = set()
            for r in t.rules_for(q, sym):
                sig = tuple(sum(bit[x.name] for x in req) for req in r.child_states)
                sigs |= merge_vectors(sigs, (sig,))
                sigs.add(sig)
        return sigs

    # trees are immutable, so every rule with the same symbol and child sets
    # shares one rhs, built from one leaf per (set, position), and one tuple
    # of child states, read off the vector: the rhs is never walked
    leaves: dict[tuple[int, int], Tree] = {}
    made: dict[tuple[object, tuple[int, ...]], tuple[Tree, tuple]] = {}

    def rule_of(state: StateId, sym, vec: tuple[int, ...]) -> Rule:
        got = made.get((sym, vec))
        if got is None:
            kids = []
            for i, c in enumerate(vec, start=1):
                leaf = leaves.get((c, i))
                if leaf is None:
                    leaf = leaves[c, i] = Tree(StateOverVariable(state_of(c), i))
                kids.append(leaf)
            got = made[sym, vec] = (Tree(sym, kids), tuple([alone[c] for c in vec]))
        return Rule(state, sym, len(vec), got[0], child_states=got[1])

    rules: list[Rule] = []
    for sym, k in sigma.items():
        rules.append(rule_of(EMPTY_SET_STATE, sym, (0,) * k))

    known = {0}
    queue: deque[int] = deque()
    for members in [frozenset({t.initial})] + ordered_seeds:
        mask = sum(bit[q.name] for q in members)
        if mask not in known:
            known.add(mask)
            queue.append(mask)

    while queue:
        state = state_of(queue.popleft())
        for sym, k in sigma.items():
            merged = {(0,) * k}
            for q in state.parts:
                merged = merge_vectors(merged, unions_of(q, sym))
                if len(rules) + len(merged) > RULE_CAP:
                    raise ResourceLimit("domain automaton exceeds %d rules" % RULE_CAP)
            for vec in sorted(merged, key=lambda vec: [state_of(c).name for c in vec]):
                rules.append(rule_of(state, sym, vec))
                for c in vec:
                    if c not in known:
                        known.add(c)
                        queue.append(c)
                        if len(known) > STATE_CAP:
                            raise ResourceLimit("domain automaton exceeds %d states" % STATE_CAP)

    return Transducer(
        name or "dom(%s)" % t.name,
        sigma,
        sigma,
        rules,
        state_of(bit[t.initial.name]),
        states=[state_of(m) for m in known],
    )


def p_construction(
    t1: Transducer,
    t2: Transducer,
    make_state: Callable[[StateId, StateId], StateId] | None = None,
    pair_filter: Callable[[StateId, StateId], bool] | None = None,
    name: str | None = None,
) -> tuple[Transducer, list[tuple[Rule, Rule]]]:
    """Product construction: translate the right-hand sides of t1 by t2.

    States are pairs (q1,q2) built lazily from the initial pair; each t1 rule
    combined with each t2-translation of its right-hand side (markers acting
    as placeholders) yields one rule.  A pair_filter may veto pairs, in which
    case rules demanding a vetoed pair are dropped entirely.  Returns the
    machine and a (new rule, source t1 rule) pairing for downstream
    annotation.
    """
    _require(Transducer, "p_construction", t1, t2)
    if t1.output_alphabet != t2.input_alphabet:
        raise AlphabetMismatch(
            "output alphabet of %s differs from input alphabet of %s" % (t1.name, t2.name)
        )
    make_state = make_state or StateId.pair

    init = (t1.initial, t2.initial)
    seen_pairs = {init}
    queue = deque([init])
    states = {make_state(*init)}
    rules: list[Rule] = []
    sources: list[tuple[Rule, Rule]] = []
    seen_rules: set[tuple] = set()
    seen_pairs_rule: set[tuple] = set()

    # each source rhs is checked against t2 and addressed once, and one
    # evaluation memo serves every (pair, rule) of this construction
    addressed: dict[int, Tree] = {}
    memo: dict = {}

    while queue:
        q1, q2 = queue.popleft()
        t2._known(q2)
        head = make_state(q1, q2)
        for src in t1.rules_of(q1):
            xi = addressed.get(id(src))
            if xi is None:
                check_ground_over(src.rhs, t2.input_alphabet, placeholders=True)
                xi = addressed[id(src)] = _addressed(src.rhs, ())
            for psi in sorted(_evaluate(t2, q2, xi, None, memo, None, None), key=attrgetter("text")):
                gamma, demanded, ok = _instantiate(psi, src.rhs, make_state, pair_filter)
                if not ok:
                    continue
                rule = Rule(head, src.symbol, src.variables, gamma)
                pair_key = (rule.state.name, rule.symbol, rule.rhs.text, id(src))
                if pair_key in seen_pairs_rule:
                    continue
                seen_pairs_rule.add(pair_key)
                sources.append((rule, src))
                key = pair_key[:3]
                if key not in seen_rules:
                    seen_rules.add(key)
                    rules.append(rule)
                if len(sources) > RULE_CAP:
                    raise ResourceLimit("product construction exceeds %d rules" % RULE_CAP)
                for pair in demanded:
                    if pair not in seen_pairs:
                        seen_pairs.add(pair)
                        queue.append(pair)
                        states.add(make_state(*pair))
                        if len(states) > STATE_CAP:
                            raise ResourceLimit("product construction exceeds %d states" % STATE_CAP)

    machine = Transducer(
        name or "p(%s,%s)" % (t1.name, t2.name),
        t1.input_alphabet,
        t2.output_alphabet,
        rules,
        make_state(*init),
        states=states,
    )
    return machine, sources


def _instantiate(psi: Tree, xi: Tree, make_state, pair_filter):
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


def build_hat_t1(t1: Transducer, t2: Transducer, name: str | None = None) -> Transducer:
    """Restrict t1 so its outputs land in the domains t2 will need: the
    p-construction of t1 with the domain automaton of t2."""
    aut = domain_automaton(t2)
    machine, _ = p_construction(t1, aut, name=name or "hat(%s)" % t1.name)
    return machine


def _triple_state(q1: StateId, q2: StateId) -> StateId:
    return StateId.triple(q1.parts[0], q1.parts[1], q2)


def _triple_filter(q1: StateId, q2: StateId) -> bool:
    return q1.kind == "pair" and q1.parts[1].kind == "set" and q2 in q1.parts[1].parts


def build_m(t1: Transducer, t2: Transducer) -> tuple[LookaheadTransducer, list[BuildReport]]:
    """The look-ahead transducer M for the composition of t1 and t2.

    Base rules come from the triple product of the restricted first component
    with t2; each rule derived from a hat rule with right-hand side xi is
    annotated with exactly the state sets xi puts on each variable.  The
    look-ahead automaton is the domain automaton of the restricted first
    component, seeded so every annotation is one of its states; empty-domain
    look-ahead states and the rules they kill are pruned.
    """
    _require(Transducer, "build_m", t1, t2)
    reports: list[BuildReport] = []

    def report(label, machine, before, provenance=None, t0=0.0):
        reports.append(
            BuildReport(
                label=label,
                machine=machine,
                states_before=before,
                states_after=len(machine.states) if isinstance(machine, Transducer) else len(machine.base.states),
                provenance=provenance or {},
                stats={"elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3)},
            )
        )

    t0 = time.perf_counter()
    aut = domain_automaton(t2)
    report("domain-automaton", aut, len(aut.states), {s: "subset of %s states" % t2.name for s in aut.states}, t0)

    t0 = time.perf_counter()
    hat, _ = p_construction(t1, aut, name="hat(%s)" % t1.name)
    report("restricted-first", hat, len(hat.states), {s: "pair over %s and dom(%s)" % (t1.name, t2.name) for s in hat.states}, t0)

    t0 = time.perf_counter()
    n_machine, sources = p_construction(
        hat, t2, make_state=_triple_state, pair_filter=_triple_filter, name="N(%s,%s)" % (t1.name, t2.name)
    )
    report("triple-product", n_machine, len(n_machine.states), {s: "triple (q,S,q')" for s in n_machine.states}, t0)

    annotated_rules = []
    seen_annotated = set()
    seeds = set()
    for rule, src in sources:
        annots = tuple(StateId.of_set(req) for req in src.child_states)
        key = (rule.state.name, rule.symbol, tuple(a.name for a in annots), rule.rhs.text)
        if key in seen_annotated:
            continue
        seen_annotated.add(key)
        seeds.update(frozenset(req) for req in src.child_states)
        annotated_rules.append(
            Rule(rule.state, rule.symbol, rule.variables, rule.rhs, lookahead=annots, child_states=rule.child_states)
        )

    t0 = time.perf_counter()
    la = domain_automaton(hat, seeds=seeds, name="la(%s,%s)" % (t1.name, t2.name))
    report("look-ahead-automaton", la, len(la.states), {s: "subset of hat states" for s in la.states}, t0)

    base = Transducer(
        "M(%s,%s)" % (t1.name, t2.name),
        n_machine.input_alphabet,
        n_machine.output_alphabet,
        annotated_rules,
        n_machine.initial,
        states=n_machine.states,
        _annotated=True,
    )
    t0 = time.perf_counter()
    before = len(base.states) + len(la.states)
    m = LookaheadTransducer(base, la)
    provenance = {s: "triple (q,S,q')" for s in m.base.states}
    provenance.update({s: "look-ahead state (set of hat states)" for s in m.la.states})
    reports.append(
        BuildReport(
            label="look-ahead-transducer",
            machine=m,
            states_before=before,
            states_after=len(m.base.states) + len(m.la.states),
            provenance=provenance,
            stats={"elapsed_ms": round((time.perf_counter() - t0) * 1000.0, 3)},
        )
    )
    return m, reports


def decompose_la(m: LookaheadTransducer) -> tuple[Transducer, Transducer]:
    """Split a look-ahead transducer into a nondeterministic top-down
    relabeling R and a plain transducer T over the annotated alphabet, with
    translate_la(m, s) equal to the composition of R and T on every ground
    input.

    T carries, besides each base rule, its variants over every look-ahead
    state that covers the rule's annotation (set-provenance supersets), so a
    relabeling run that merged several annotations still matches.
    """
    _require(LookaheadTransducer, "decompose_la", m)
    la, base = m.la, m.base
    ann_symbols: dict[tuple, AnnotatedSymbol] = {}
    r_rules: list[Rule] = []
    for rule in la.rules:
        annots = tuple(c.label.state for c in rule.rhs.children)
        sym = ann_symbols.setdefault((rule.symbol, annots), AnnotatedSymbol(rule.symbol, annots))
        rhs = Tree(sym, tuple(Tree(StateOverVariable(annots[i], i + 1)) for i in range(rule.variables)))
        r_rules.append(Rule(rule.state, rule.symbol, rule.variables, rhs))

    out_alpha = RankedAlphabet({sym: len(sym.annotations) for sym in ann_symbols.values()})
    relabeling = Transducer(
        "R(%s)" % m.name, la.input_alphabet, out_alpha, r_rules, la.initial, states=la.states
    )

    covering: dict[StateId, list[StateId]] = {}
    la_states = sorted(la.states, key=lambda s: s.name)
    for l in la_states:
        if l.kind == "set":
            covering[l] = [
                l2
                for l2 in la_states
                if l2.kind == "set" and set(l.parts) <= set(l2.parts)
            ]
        else:
            covering[l] = [l]

    t_rules: list[Rule] = []
    seen = set()
    for rule in base.rules:
        for variant in product(*(covering[l] for l in rule.lookahead)):
            sym = ann_symbols.get((rule.symbol, tuple(variant)))
            if sym is None:
                continue
            key = (rule.state.name, sym, rule.rhs.text)
            if key in seen:
                continue
            seen.add(key)
            t_rules.append(Rule(rule.state, sym, rule.variables, rule.rhs, child_states=rule.child_states))

    reader = Transducer(
        "T(%s)" % m.name,
        out_alpha,
        base.output_alphabet,
        t_rules,
        base.initial,
        states=base.states,
    )
    return relabeling, reader


def compose_linear_nondeleting(t1: Transducer, t2: Transducer, name: str | None = None) -> Transducer:
    """Fuse t1 with a linear nondeleting t2 into a single equivalent transducer."""
    _require(Transducer, "compose_linear_nondeleting", t1, t2)
    if not t2.is_linear_nondeleting():
        raise NotLinearNondeleting("%s is not linear and nondeleting" % t2.name)
    machine, _ = p_construction(t1, t2, name=name or "fuse(%s,%s)" % (t1.name, t2.name))
    return machine


def reduce_chain(chain: CompositionChain) -> tuple[CompositionChain, list[BuildReport]]:
    """Shorten an n-fold chain (n >= 3) to n-1 stages preserving per-input
    singleton-ness: build M for the last pair, split it into a relabeling and
    a reader, and fuse the relabeling into stage n-2."""
    if len(chain) < 3:
        raise ChainTooShort("chain reduction needs at least three stages")
    stages = chain.stages
    m, reports = build_m(stages[-2], stages[-1])
    relabeling, reader = decompose_la(m)
    fused = compose_linear_nondeleting(stages[-3], relabeling)
    reduced = CompositionChain(stages[:-3] + (fused, reader))
    return reduced, reports

