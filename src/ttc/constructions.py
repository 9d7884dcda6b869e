"""Symbolic constructions on transducers.

Everything here is a pure function from machines to machines: the power-set
domain automaton, the product (p-) construction, the domain-restricted first
component, the triple-state product, the look-ahead transducer M, look-ahead
removal, fusion with a linear nondeleting second component, the chain
reduction that trades the last two stages of a composition for M, and the
check's step on the last pair, which gives M over hat for the final pair
and shortens a longer chain the cheapest way its look-ahead allows.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from itertools import product
from operator import attrgetter, or_
from typing import Callable, Collection, Iterable

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
    _Classes,
    _evaluate,
    _require,
    universal_states,
)
from .trees import AnnotatedSymbol, RankedAlphabet, StateOverVariable, Tree, replace_markers

STATE_CAP = 5000
RULE_CAP = 60000


def _composable(t1: Transducer, t2: Transducer) -> None:
    """Raise AlphabetMismatch, naming both machines, unless t2 reads what t1 writes."""
    if t1.output_alphabet != t2.input_alphabet:
        raise AlphabetMismatch("output alphabet of %s differs from input alphabet of %s" % (t1.name, t2.name))


@dataclass
class BuildReport:
    """What a construction produced: the machine, pruning counts, provenance."""

    label: str
    machine: object
    states_before: int
    states_after: int
    provenance: dict[StateId, str] = field(default_factory=dict)
    stats: dict[str, float] = field(default_factory=dict)

    @property
    def name(self) -> str:
        """What the report shows as its subject: the machine's name."""
        return self.machine.name


@dataclass(frozen=True)
class CompositionChain:
    """Alphabet-compatible sequence of transducers, composed left to right."""

    stages: tuple[Transducer, ...]

    def __post_init__(self):
        if not self.stages:
            raise ValidationError("a composition chain needs at least one stage")
        for stage in self.stages:
            if not isinstance(stage, Transducer) or stage.annotated:
                raise ValidationError("chain stage %r is not a plain transducer" % (stage,))
        for left, right in zip(self.stages, self.stages[1:]):
            _composable(left, right)

    def __len__(self):
        return len(self.stages)

    def __iter__(self):
        return iter(self.stages)


def merge_vectors(merged: set, alternatives: Collection[tuple], cap: int) -> set:
    """One step of the requirement-merging fold: the position-wise union of
    every vector in `merged` with every vector in `alternatives` (a
    collection, read once per vector of `merged`), without repeats.  Folded
    over groups of alternatives, starting from the all-empty vector, it
    gives the distinct merges of one choice per group.  Entries are int
    bitmasks, whose `|` is union.  Raises ResourceLimit as soon as more than
    `cap` vectors exist, checked after each vector of `merged`."""
    out = set()
    for m in merged:
        out.update([tuple(map(or_, m, a)) for a in alternatives])
        if len(out) > cap:
            raise ResourceLimit("domain automaton exceeds %d rules" % RULE_CAP)
    return out


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
    RULE_CAP is checked after each rule's merge in the first fold, on its
    unions, and while each member merges in the second, on the rules so far
    plus the vectors merged so far (`merge_vectors`), before any rule is
    built.  An intermediate merge can be larger than the final one, so the
    cap limits the memory, not only the output.  The ResourceLimit of
    either cap names the automaton: dom(t), or the name given.  Rules are
    emitted sorted by child-state names.
    """
    _require(Transducer, "domain_automaton", t)
    name = name or "dom(%s)" % t.name
    sigma = t.input_alphabet
    ordered_seeds = sorted(
        (frozenset(s) for s in seeds), key=lambda m: sorted(x.name for x in m)
    )
    order = sorted(t.states.union(*ordered_seeds), key=lambda s: s.name)
    bit = {q.name: 1 << i for i, q in enumerate(order)}
    ids = {0: EMPTY_SET_STATE}

    def state_of(mask: int) -> StateId:
        sid = ids.get(mask)
        if sid is None:
            sid = ids[mask] = StateId.of_set(q for i, q in enumerate(order) if mask >> i & 1)
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
                sigs |= merge_vectors(sigs, (sig,), RULE_CAP)
                sigs.add(sig)
                if len(sigs) > RULE_CAP:
                    raise ResourceLimit("domain automaton exceeds %d rules" % RULE_CAP)
        return sigs

    # trees are immutable, so every rule with the same symbol and child sets
    # shares one rhs, built from one leaf per (set, position)
    leaves: dict[tuple[int, int], Tree] = {}
    made: dict[tuple[object, tuple[int, ...]], Tree] = {}

    def rule_of(state: StateId, sym, vec: tuple[int, ...]) -> Rule:
        rhs = made.get((sym, vec))
        if rhs is None:
            kids = []
            for i, c in enumerate(vec, start=1):
                leaf = leaves.get((c, i))
                if leaf is None:
                    leaf = leaves[c, i] = Tree(StateOverVariable(state_of(c), i))
                kids.append(leaf)
            rhs = made[sym, vec] = Tree(sym, kids)
        return Rule(state, sym, len(vec), rhs)

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

    try:
        while queue:
            state = state_of(queue.popleft())
            for sym, k in sigma.items():
                merged = {(0,) * k}
                for q in state.parts:
                    merged = merge_vectors(merged, unions_of(q, sym), RULE_CAP - len(rules))
                for vec in sorted(merged, key=lambda vec: [state_of(c).name for c in vec]):
                    rules.append(rule_of(state, sym, vec))
                    for c in vec:
                        if c not in known:
                            known.add(c)
                            queue.append(c)
                            if len(known) > STATE_CAP:
                                raise ResourceLimit("domain automaton exceeds %d states" % STATE_CAP)
    except ResourceLimit as e:
        raise ResourceLimit("%s: %s" % (name, e)) from e

    return Transducer(
        name,
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
    _composable(t1, t2)
    make_state = make_state or StateId.pair
    name = name or "p(%s,%s)" % (t1.name, t2.name)

    init = (t1.initial, t2.initial)
    seen_pairs = {init}  # make_state is one-to-one: a pair is its state
    queue = deque([init])
    rules: dict[Rule, None] = {}  # each distinct rule once, by `Rule` equality
    sources: list[tuple[Rule, Rule]] = []

    # each source rhs is evaluated as it stands, unchecked: `_validate` has
    # checked it over t1's output alphabet, which is t2's input alphabet.
    # Each translation makes a rule, so RULE_CAP caps their number.
    # q2 meeting a marker q1(xi) yields q2 over that marker wherever it sits
    # (`_evaluate`), so the evaluation memo of one owner of t2, keyed on
    # (state name, subtree text), serves every (pair, rule) of this
    # construction.  A marker's text never equals a ground subtree's: t1's
    # state names may not be symbols of its output alphabet.  Each distinct
    # (result, variable count) is instantiated once (`made`), with one leaf
    # or veto per marker (`leaves`), and the new rules share its tree.  A
    # pair is dequeued once and its results per rule are distinct, so a rule
    # made twice comes from two source rules: `rules` lists it once,
    # `sources` twice.
    cl = _Classes(t2, None)
    leaves: dict[str, tuple] = {}
    made: dict[tuple[str, int], tuple] = {}

    while queue:
        q1, q2 = queue.popleft()
        head = make_state(q1, q2)
        for src in t1.rules_of(q1):
            try:
                results = _evaluate(cl, q2, src.rhs, RULE_CAP)
            except ResourceLimit as e:
                raise ResourceLimit("%s: rule %s of %s: %s" % (name, src.lhs_text(), t1.name, e)) from e
            for psi in sorted(results, key=attrgetter("text")):
                got = made.get((psi.text, src.variables))
                if got is None:
                    gamma, demanded = _replace_leaves(psi, make_state, pair_filter, leaves)
                    # a veto is memoised as (), not None, so it is not redone
                    got = made[psi.text, src.variables] = () if gamma is None else (gamma, demanded)
                if not got:
                    continue
                gamma, demanded = got
                rule = Rule(head, src.symbol, src.variables, gamma)
                sources.append((rule, src))
                rules[rule] = None
                if len(sources) > RULE_CAP:
                    raise ResourceLimit("%s: product construction exceeds %d rules" % (name, RULE_CAP))
                for pair in demanded:
                    if pair not in seen_pairs:
                        seen_pairs.add(pair)
                        queue.append(pair)
                        if len(seen_pairs) > STATE_CAP:
                            raise ResourceLimit("%s: product construction exceeds %d states" % (name, STATE_CAP))

    machine = Transducer(
        name,
        t1.input_alphabet,
        t2.output_alphabet,
        rules,
        make_state(*init),
        states=[make_state(*pair) for pair in seen_pairs],
    )
    return machine, sources


def _replace_leaves(psi: Tree, make_state, pair_filter, leaves: dict) -> tuple[Tree | None, list]:
    """psi with each leaf q2(q1(xi)), where q2 met the marker q1(xi),
    replaced by (q1,q2)(xi), or None if pair_filter vetoes one, and the
    pairs of its leaves, left to right.  `leaves` maps a leaf's text to its
    replacement, or None for a veto, and its pair, for the whole construction."""
    demanded = []

    def leaf(node: Tree) -> Tree | None:
        got = leaves.get(node.text)
        if got is None:
            marker = node.label.node
            pair = (marker.state, node.label.state)
            vetoed = pair_filter is not None and not pair_filter(*pair)
            got = leaves[node.text] = (None if vetoed else Tree(StateOverVariable(make_state(*pair), marker.index)), pair)
        demanded.append(got[1])
        return got[0]

    return replace_markers(psi, leaf), demanded


def build_hat_t1(t1: Transducer, t2: Transducer) -> Transducer:
    """Restrict t1 so its outputs land in the domains t2 will need: the
    p-construction of t1 with the domain automaton of t2."""
    _require(Transducer, "build_hat_t1", t1, t2)
    _composable(t1, t2)
    aut = domain_automaton(t2)
    machine, _ = p_construction(t1, aut, name="hat(%s)" % t1.name)
    return machine


def _triple_state(q1: StateId, q2: StateId) -> StateId:
    return StateId.triple(q1.parts[0], q1.parts[1], q2)


def _triple_filter(q1: StateId, q2: StateId) -> bool:
    """q1 is a hat state (q, S): only the pairs with q2 in S are kept."""
    return q2 in q1.parts[1].parts


def _report(reports: list, label: str, machine, before: int, provenance: dict, t0: float) -> None:
    """Append the report of one construction step that began at t0."""
    after = len(machine.states) if isinstance(machine, Transducer) else len(machine.base.states) + len(machine.la.states)
    elapsed = round((time.perf_counter() - t0) * 1000.0, 3)
    reports.append(BuildReport(label, machine, before, after, provenance, {"elapsed_ms": elapsed}))


def _annotated_base(t1: Transducer, t2: Transducer, reports: list) -> tuple[Transducer, Transducer]:
    """The restricted first component hat and M's base, reporting dom(t2),
    hat and the triple product N.  Each base rule, derived from a hat rule
    with right-hand side xi, is annotated with exactly the state sets xi puts
    on each variable; its guard names their members, so it holds on a child
    iff every member's domain holds the child."""
    _require(Transducer, "build_m", t1, t2)
    _composable(t1, t2)
    t0 = time.perf_counter()
    aut = domain_automaton(t2)
    _report(reports, "domain-automaton", aut, len(aut.states), {s: "subset of %s states" % t2.name for s in aut.states}, t0)

    t0 = time.perf_counter()
    hat, _ = p_construction(t1, aut, name="hat(%s)" % t1.name)
    _report(reports, "restricted-first", hat, len(hat.states), {s: "pair over %s and dom(%s)" % (t1.name, t2.name) for s in hat.states}, t0)

    t0 = time.perf_counter()
    vetoed = set()  # the distinct pairs the filter vetoes, counted as states before

    def pair_filter(q1: StateId, q2: StateId) -> bool:
        ok = _triple_filter(q1, q2)
        if not ok:
            vetoed.add((q1.name, q2.name))
        return ok

    n_machine, sources = p_construction(
        hat, t2, make_state=_triple_state, pair_filter=pair_filter, name="N(%s,%s)" % (t1.name, t2.name)
    )
    _report(reports, "triple-product", n_machine, len(n_machine.states) + len(vetoed), {s: "triple (q,S,q')" for s in n_machine.states}, t0)
    reports[-1].stats["pairs_vetoed"] = len(vetoed)

    annotated_rules: dict[Rule, None] = {}
    for rule, src in sources:
        annots = tuple(StateId.of_set(req) for req in src.child_states)
        guard = tuple([frozenset([q.name for q in req]) for req in src.child_states])
        annotated_rules[Rule(rule.state, rule.symbol, rule.variables, rule.rhs, annots, guard)] = None
    base = Transducer(
        "M(%s,%s)" % (t1.name, t2.name),
        n_machine.input_alphabet,
        n_machine.output_alphabet,
        annotated_rules,
        n_machine.initial,
        states=n_machine.states,
    )
    return hat, base


def _over_la_automaton(t1: Transducer, t2: Transducer, hat: Transducer, base: Transducer, reports: list) -> LookaheadTransducer:
    """`build_m`'s M from hat and M's base: the power-set look-ahead
    automaton, then the trim, each reported."""
    t0 = time.perf_counter()
    seeds = {frozenset(l.parts) for r in base.rules for l in r.lookahead}
    la = domain_automaton(hat, seeds=seeds, name="la(%s,%s)" % (t1.name, t2.name))
    _report(reports, "look-ahead-automaton", la, len(la.states), {s: "subset of hat states" for s in la.states}, t0)

    t0 = time.perf_counter()
    # each annotation is now a state of la: its guard is its own name
    rules = [Rule(r.state, r.symbol, r.variables, r.rhs, r.lookahead) for r in base.rules]
    base = Transducer(base.name, base.input_alphabet, base.output_alphabet, rules, base.initial, states=base.states)
    before = len(base.states) + len(la.states)
    m = LookaheadTransducer.trimmed(base, la)
    provenance = {s: "triple (q,S,q')" for s in m.base.states}
    provenance.update({s: "look-ahead state (set of hat states)" for s in m.la.states})
    _report(reports, "look-ahead-transducer", m, before, provenance, t0)
    return m


def build_m(t1: Transducer, t2: Transducer) -> tuple[LookaheadTransducer, list[BuildReport]]:
    """The look-ahead transducer M for the composition of t1 and t2.

    Base rules come from the triple product of the restricted first component
    with t2; each rule derived from a hat rule with right-hand side xi is
    annotated with exactly the state sets xi puts on each variable.  The
    look-ahead automaton is the domain automaton of the restricted first
    component, seeded so every annotation is one of its states; empty-domain
    look-ahead states and the rules they kill are pruned.
    """
    reports: list[BuildReport] = []
    hat, base = _annotated_base(t1, t2, reports)
    return _over_la_automaton(t1, t2, hat, base, reports), reports


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
    if not m.la.automaton:
        raise ValidationError("decompose_la needs a look-ahead automaton, as build_m's M has")
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

    t_rules: dict[Rule, None] = {}
    for rule in base.rules:
        for variant in product(*(covering[l] for l in rule.lookahead)):
            sym = ann_symbols.get((rule.symbol, tuple(variant)))
            if sym is not None:
                t_rules[Rule(rule.state, sym, rule.variables, rule.rhs)] = None

    reader = Transducer(
        "T(%s)" % m.name,
        out_alpha,
        base.output_alphabet,
        t_rules,
        base.initial,
        states=base.states,
    )
    return relabeling, reader


def compose_linear_nondeleting(t1: Transducer, t2: Transducer) -> Transducer:
    """Fuse t1 with a linear nondeleting t2 into a single equivalent transducer."""
    _require(Transducer, "compose_linear_nondeleting", t1, t2)
    if not t2.is_linear_nondeleting():
        raise NotLinearNondeleting("%s is not linear and nondeleting" % t2.name)
    machine, _ = p_construction(t1, t2, name="fuse(%s,%s)" % (t1.name, t2.name))
    return machine


def _fuse_reduction(stages: tuple[Transducer, ...], hat: Transducer, base: Transducer, reports: list) -> CompositionChain:
    """The paper's reduction of the last pair, from its hat and M's base: M
    over the power-set look-ahead automaton, split into a relabeling and a
    reader, the relabeling fused into stage n-2."""
    m = _over_la_automaton(stages[-2], stages[-1], hat, base, reports)
    relabeling, reader = decompose_la(m)
    fused = compose_linear_nondeleting(stages[-3], relabeling)
    return CompositionChain(stages[:-3] + (fused, reader))


def reduce_chain(chain: CompositionChain) -> tuple[CompositionChain, list[BuildReport]]:
    """Shorten an n-fold chain (n >= 3) to n-1 stages preserving per-input
    singleton-ness: build M for the last pair, split it into a relabeling and
    a reader, and fuse the relabeling into stage n-2."""
    if len(chain) < 3:
        raise ChainTooShort("chain reduction needs at least three stages")
    reports: list[BuildReport] = []
    hat, base = _annotated_base(chain.stages[-2], chain.stages[-1], reports)
    return _fuse_reduction(chain.stages, hat, base, reports), reports


def _lookahead_vacuous(hat: Transducer, base: Transducer) -> bool:
    """True if no guard of M's base can fail: every hat state that a guard
    names accepts every tree (`universal_states`)."""
    universal = universal_states(hat)
    return all(g <= universal for r in base.rules for g in r.guard)


def _check_step(chain: CompositionChain, reports: list) -> CompositionChain | LookaheadTransducer:
    """`decide_functionality`'s step on the last pair of a chain of two or
    more stages, from one hat and M's base (`_annotated_base`).  A final pair
    becomes M over hat: the look-ahead machine is hat itself, whose
    `accepts` on a subtree holds the hat states whose domain holds it, so a
    guard holds iff it holds every member of the annotation, and no
    power-set automaton or trim is built (listing and `decompose_la` need
    `build_m`).  In a longer chain, if no guard of the base can fail, M's
    translation is its base's (Engelfriet 1977), which R and T would only
    split again: the last two stages become the base without its
    look-ahead, reported after M as `look-ahead-dropped`.  Any other step is
    `reduce_chain`'s, from the same hat and base."""
    stages = chain.stages
    hat, base = _annotated_base(stages[-2], stages[-1], reports)
    if len(stages) > 2 and not _lookahead_vacuous(hat, base):
        return _fuse_reduction(stages, hat, base, reports)
    t0 = time.perf_counter()
    m = LookaheadTransducer(base, hat)
    before = len(base.states) + len(hat.states)
    provenance = {s: "triple (q,S,q')" for s in base.states}
    provenance.update({s: "look-ahead state (hat state)" for s in hat.states})
    _report(reports, "look-ahead-transducer", m, before, provenance, t0)
    if len(stages) == 2:
        return m
    t0 = time.perf_counter()
    rules: dict[Rule, None] = {}
    for r in base.rules:
        # rules that differ only in their annotations are one plain rule
        rules[Rule(r.state, r.symbol, r.variables, r.rhs)] = None
    plain = Transducer(base.name, base.input_alphabet, base.output_alphabet, rules, base.initial, states=base.states)
    _report(reports, "look-ahead-dropped", plain, before, {s: "triple (q,S,q')" for s in plain.states}, t0)
    return CompositionChain(stages[:-2] + (plain,))
