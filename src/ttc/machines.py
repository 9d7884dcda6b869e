"""Transducer and automaton data model plus the evaluation semantics.

A transducer is a tuple (states, input alphabet, output alphabet, rules,
initial state).  Rules rewrite state-annotated input trees top-down; the
evaluation of a state on a partial tree returns the finite set of trees
derivable from it, with placeholders turning into state-over-node markers.
Look-ahead transducers additionally constrain each child variable with a
state of a look-ahead automaton; a rule fires only when every child subtree
lies in the domain of its annotation.  That guard is decided only by the
subtree class of the child, computed bottom up once per distinct subtree
(`_label`).  A plain rule is a look-ahead rule with no guard, so one
evaluator serves both kinds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from operator import attrgetter, or_
from typing import Collection, Hashable, Iterable, Iterator, Sequence

from .errors import ResourceLimit, UnknownState, ValidationError
from .trees import (
    MARKER_TYPES,
    ROOT,
    NodeAddress,
    PlaceholderLeaf,
    RankedAlphabet,
    StateOverNode,
    StateOverVariable,
    Tree,
    check_ground_over,
)


class StateId:
    """State identifier with a provenance tag; not interned: equality and
    hash go through the name, so equal names make equal states.

    Provenance is one of base, pair, set, or triple; the canonical rendering
    ("(q,S)", "{q1,q2}", "(q,S,q')") is the name.  Set members are kept
    sorted so equal sets get equal ids.
    """

    __slots__ = ("kind", "parts", "name")

    def __init__(self, kind, parts, name):
        self.kind = kind
        self.parts = parts
        self.name = name

    @classmethod
    def base(cls, name: str) -> "StateId":
        return cls("base", (name,), name)

    @classmethod
    def pair(cls, left: "StateId", right: "StateId") -> "StateId":
        return cls("pair", (left, right), "(%s,%s)" % (left.name, right.name))

    @classmethod
    def of_set(cls, members: Iterable["StateId"]) -> "StateId":
        members = tuple(sorted(set(members), key=lambda s: s.name))
        return cls("set", members, "{%s}" % ",".join(m.name for m in members))

    @classmethod
    def triple(cls, q: "StateId", s: "StateId", q2: "StateId") -> "StateId":
        return cls("triple", (q, s, q2), "(%s,%s,%s)" % (q.name, s.name, q2.name))

    def __eq__(self, other):
        if not isinstance(other, StateId):
            return NotImplemented
        return self.name == other.name

    def __lt__(self, other):
        return self.name < other.name

    def __hash__(self):
        return hash(self.name)

    def __str__(self):
        return self.name

    def __repr__(self):
        return "StateId(%s)" % self.name


EMPTY_SET_STATE = StateId.of_set(())


def _child_states(rule: Rule) -> tuple[frozenset[StateId], ...]:
    """For each variable x_i, the set of states q with q(x_i) in the rhs."""
    k = rule.variables
    buckets = [set() for _ in range(k)]
    stack = [rule.rhs]
    while stack:
        node = stack.pop()
        lab = node.label
        if isinstance(lab, StateOverVariable):
            if not 1 <= lab.index <= k:
                raise ValidationError(
                    "rule %s: variable x%d out of range [%d]" % (rule.lhs_text(), lab.index, k)
                )
            buckets[lab.index - 1].add(lab.state)
        else:
            stack.extend(node.children)
    return tuple(map(frozenset, buckets))


@dataclass(frozen=True)
class Rule:
    """One rewrite rule q(a(x1,...,xk)) -> rhs, optionally with look-ahead.

    `child_states` is, for each variable x_i, the set of states q with q(x_i)
    in the rhs.  A construction that knows it passes it in; otherwise the rhs
    is walked here, which also rejects a variable outside x1..xk.  Either way
    `Transducer` checks the range when it validates the rule."""

    state: StateId
    symbol: object
    variables: int
    rhs: Tree
    lookahead: tuple[StateId, ...] | None = None
    child_states: tuple[frozenset[StateId], ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.child_states is None:
            object.__setattr__(self, "child_states", _child_states(self))

    def lhs_text(self) -> str:
        if self.variables == 0:
            return "%s(%s)" % (self.state, self.symbol)
        if self.lookahead is None:
            args = ",".join("x%d" % i for i in range(1, self.variables + 1))
        else:
            args = ",".join("x%d:%s" % (i, l) for i, l in enumerate(self.lookahead, start=1))
        return "%s(%s(%s))" % (self.state, self.symbol, args)

    def __str__(self):
        return "%s -> %s" % (self.lhs_text(), self.rhs)


def _check_rhs(rhs: Tree, variables: int, state_names: Collection[str], output_ranks: dict) -> str | None:
    """What is wrong with a right-hand side over x1..x<variables>, or None: it
    depends only on the rhs, its variable count and the machine, so a machine
    walks each distinct pair once."""
    stack = [rhs]
    while stack:
        node = stack.pop()
        lab = node.label
        if isinstance(lab, StateOverVariable):
            if not 1 <= lab.index <= variables:
                return "variable x%d out of range [%d]" % (lab.index, variables)
            if not isinstance(lab.state, StateId) or lab.state.name not in state_names:
                return "rhs uses undeclared state %s" % lab.state
            continue
        if isinstance(lab, MARKER_TYPES):
            return "unexpected marker %s in rhs" % lab
        rank = output_ranks.get(lab)
        if rank is None:
            return "rhs symbol %s not in the output alphabet" % lab
        if rank != len(node.children):
            return "symbol %s has rank %d but %d children" % (lab, rank, len(node.children))
        stack.extend(reversed(node.children))
    return None


def check_positive(value, what: str, optional: bool = False) -> None:
    """Raise ValidationError unless value is an int >= 1, or None if optional:
    a size bound, or an output cap where None means no cap."""
    if not (optional and value is None or type(value) is int and value >= 1):
        raise ValidationError("%s must be %san int >= 1, not %r" % (what, "None or " if optional else "", value))


# -- semantics ---------------------------------------------------------------
#
# ``la`` (of `_label`, `_class` and `_single_output`) is the look-ahead
# automaton, or None for a plain transducer.  These functions trust their
# input tree; the public entry points validate it.
#
# The memos belong to the caller, which keeps them for one public call, one
# chain_outputs call or one whole check.  The evaluation memo is keyed on
# (state name, subtree text), which is how StateId and Tree define equality,
# so equal subtrees of all inputs share one entry; the label memo maps a
# subtree text to its class, an index into the caller's `classes`.  A
# look-ahead guard is read from the label memo and nowhere else.  Only the
# markers q(v) of a partial tree depend on where a subtree sits, so
# `Transducer.evaluate` first names each marker leaf by its address
# (`_addressed`).


def _addressed(tree: Tree, path: tuple[int, ...]) -> Tree:
    """The tree with every marker or placeholder leaf replaced by a placeholder
    whose identifier is its address; subtrees without such leaves are
    returned as they are."""
    if isinstance(tree.label, MARKER_TYPES):
        return Tree(PlaceholderLeaf(NodeAddress(path)))
    kids = tuple(_addressed(c, path + (i,)) for i, c in enumerate(tree.children, start=1))
    if all(k is c for k, c in zip(kids, tree.children)):
        return tree
    return Tree(tree.label, kids)


def _evaluate(
    base: Transducer, q: StateId, s: Tree, cap: int | None, memo: dict, labels: dict | None, classes: list | None
) -> tuple[Tree, ...]:
    """The trees derivable from q(s), without repeats; a placeholder leaf named
    by its address v (see `_addressed`) turns into q(v).  A rule with
    look-ahead fires iff each annotation is in its child's `accepts`, read
    from the caller's label memo `labels` (see `_label`): the caller labels
    s first, which stores the class of every proper subtree.  Plain callers
    pass None for `labels` and `classes`.  The children's results go through
    `memo`, the result for s itself does not: a check's inputs are distinct,
    so it would not be looked up again.  Memo hits are answered in the
    caller's loop, without a call."""
    lab = s.label
    if isinstance(lab, PlaceholderLeaf):
        return (Tree(StateOverNode(q, lab.ident)),)
    # loops, not comprehensions, which would add a frame per input level
    kids = s.children
    alts = []
    for rule in base.rules_for(q, lab):
        fires = True
        if rule.lookahead is not None:
            for l, c in zip(rule.lookahead, kids):
                fires = l.name in classes[labels[c.text]][0]
                if not fires:
                    break
        if fires:
            alts.append(_expand(base, rule.rhs, s, cap, memo, labels, classes))
    if len(alts) == 1:  # already without repeats; skips hashing every tree
        return alts[0]
    acc = set().union(*alts)
    if cap is not None and len(acc) > cap:
        raise ResourceLimit("output set exceeds cap %d" % cap)
    return tuple(acc)


def _label(base: Transducer, la: Transducer | None, s: Tree, memo: dict, table: dict, classes: list) -> int:
    """The class of s, an index into `classes` (see `_class`).  It depends
    only on the label of s and its children's classes: `table` holds it once
    per such key, and `memo` the children's classes by subtree text; the
    class of s itself is not stored there, as a check's inputs are distinct."""
    key = [s.label]
    for c in s.children:
        k = memo.get(c.text)
        if k is None:
            k = memo[c.text] = _label(base, la, c, memo, table, classes)
        key.append(k)
    key = tuple(key)
    k = table.get(key)
    if k is None:
        pair = _class(base, la, s.label, [classes[i] for i in key[1:]])
        if pair not in classes:
            classes.append(pair)
        k = table[key] = classes.index(pair)
    return k


def _class(base: Transducer, la: Transducer | None, symbol, kids: list) -> tuple[frozenset[str], frozenset[str]]:
    """The pair (accepts, one) of state-name sets at a symbol over children of
    the classes `kids`.  accepts: the look-ahead states with a rule whose
    child states are in their child's accepts, exact as an automaton rule
    puts one state on each child.  one: the base states with exactly one rule
    whose guard holds (any rule, without look-ahead) and whose calls are each
    in their child's one, so with exactly one output."""
    rules = la.rules if la is not None else ()
    accepts = [r.state.name for r in rules if r.symbol == symbol and all(l.name in a for req, (a, _) in zip(r.child_states, kids) for l in req)]
    one = []
    for q in base.states:
        fired = [r for r in base.rules_for(q, symbol) if la is None or all(l.name in a for l, (a, _) in zip(r.lookahead, kids))]
        if len(fired) == 1 and all(q2.name in o for req, (_, o) in zip(fired[0].child_states, kids) for q2 in req):
            one.append(q.name)
    return frozenset(accepts), frozenset(one)


def _single_output(base: Transducer, la: Transducer | None, q: StateId, s: Tree, memo: dict, table: dict, classes: list) -> bool:
    """True iff q is in `one` of the class of s: q has exactly one output on s."""
    return q.name in classes[_label(base, la, s, memo, table, classes)][1]


def _expand(
    base: Transducer, node: Tree, s: Tree, cap: int | None, memo: dict, labels: dict | None, classes: list | None
) -> tuple[Tree, ...]:
    """The trees a right-hand side node yields at input node s, without repeats.
    A q(xi) child is looked up in `memo` here, and evaluated only on a miss;
    only a q(xi) at the root of a right-hand side comes in as `node`."""
    lab = node.label
    if isinstance(lab, StateOverVariable):
        child = s.children[lab.index - 1]
        key = (lab.state.name, child.text)
        out = memo.get(key)
        if out is None:
            out = memo[key] = _evaluate(base, lab.state, child, cap, memo, labels, classes)
        return out
    if not node.children:
        return (node,)
    alts = []
    count = 1
    for c in node.children:
        clab = c.label
        if isinstance(clab, StateOverVariable):
            child = s.children[clab.index - 1]
            key = (clab.state.name, child.text)
            a = memo.get(key)
            if a is None:
                a = memo[key] = _evaluate(base, clab.state, child, cap, memo, labels, classes)
        elif c.children:
            a = _expand(base, c, s, cap, memo, labels, classes)
        else:
            a = (c,)
        alts.append(a)
        count *= len(a)
    if count == 1:  # one combination: no product
        return (Tree(lab, [a[0] for a in alts]),)
    if cap is not None and count > cap:
        raise ResourceLimit("output set exceeds cap %d" % cap)
    return tuple([Tree(lab, combo) for combo in product(*alts)])


def merge_vectors(merged: set, alternatives: Collection[tuple]) -> set:
    """One step of the requirement-merging fold: the position-wise union of
    every vector in `merged` with every vector in `alternatives` (a
    collection, read once per vector of `merged`), without repeats.  Folded
    over groups of alternatives, starting from the all-empty vector, it
    gives the distinct merges of one choice per group.  Entries are
    frozensets or int bitmasks, whose `|` is union alike."""
    return {tuple(map(or_, m, a)) for m in merged for a in alternatives}


def least_fixpoint(keys: Sequence[Hashable], children: Sequence[Collection]) -> set:
    """The least set that holds keys[i] as soon as it holds all of
    children[i]: the live states of an automaton, one entry per rule and
    keyed on state names."""
    live = set()
    changed = True
    while changed:
        changed = False
        for key, kids in zip(keys, children):
            if key not in live and all(c in live for c in kids):
                live.add(key)
                changed = True
    return live


def reachable(starts: Iterable[StateId], rules: Iterable[Rule]) -> dict[str, StateId]:
    """The states reachable from `starts` through `rules`, by name."""
    by_state: dict[str, list[Rule]] = {}
    for r in rules:
        by_state.setdefault(r.state.name, []).append(r)
    seen = {s.name: s for s in starts}
    todo = list(seen)
    while todo:
        for r in by_state.get(todo.pop(), ()):
            for req in r.child_states:
                for q in req:
                    if q.name not in seen:
                        seen[q.name] = q
                        todo.append(q.name)
    return seen


class Transducer:
    """Nondeterministic top-down tree transducer; immutable after construction."""

    def __init__(
        self,
        name: str,
        input_alphabet: RankedAlphabet,
        output_alphabet: RankedAlphabet,
        rules: Sequence[Rule],
        initial: StateId,
        states: Iterable[StateId] | None = None,
        _annotated: bool = False,
    ):
        self.name = name
        self.input_alphabet = input_alphabet
        self.output_alphabet = output_alphabet
        self.rules = tuple(rules)
        self.initial = initial
        if states is None:
            states = {initial}
            for r in self.rules:
                states.add(r.state)
                for req in r.child_states:
                    states |= req
        self.states = frozenset(states)
        self._validate(_annotated)
        # keyed on state names, which hash without a call into Python
        by_head: dict[tuple[str, object], list[Rule]] = {}
        for r in self.rules:
            by_head.setdefault((r.state.name, r.symbol), []).append(r)
        self._by_head = {key: tuple(rs) for key, rs in by_head.items()}

    def _validate(self, annotated):
        """Check every rule; the text of a failing rule is built only then."""
        if self.initial not in self.states:
            raise ValidationError("initial state %s not among the states" % self.initial)
        state_names = {s.name for s in self.states}
        if not all(isinstance(r.state, StateId) and r.state.name in state_names for r in self.rules):
            raise ValidationError("some rule head is not a declared state")
        for alpha in (self.input_alphabet, self.output_alphabet):
            clash = state_names & {s for s in alpha if isinstance(s, str)}
            if clash:
                raise ValidationError("alphabet symbols clash with state names: %s" % sorted(clash))
        input_ranks = dict(self.input_alphabet.items())
        output_ranks = dict(self.output_alphabet.items())
        walked = set()  # (id, variable count) of the right-hand sides checked so far
        for r in self.rules:
            if r.symbol not in input_ranks:
                problem = "symbol not in the input alphabet"
            elif input_ranks[r.symbol] != r.variables:
                problem = "symbol rank differs from variable count"
            elif annotated and (r.lookahead is None or len(r.lookahead) != r.variables):
                problem = "expected one look-ahead state per variable"
            elif not annotated and r.lookahead is not None:
                problem = "look-ahead annotations on a plain transducer"
            elif (id(r.rhs), r.variables) in walked:
                continue
            else:
                walked.add((id(r.rhs), r.variables))
                problem = _check_rhs(r.rhs, r.variables, state_names, output_ranks)
            if problem is not None:
                raise ValidationError("rule %s: %s" % (r.lhs_text(), problem))

    def __repr__(self):
        return "Transducer(%s: %d states, %d rules)" % (self.name, len(self.states), len(self.rules))

    def rules_for(self, state: StateId, symbol) -> tuple[Rule, ...]:
        return self._by_head.get((state.name, symbol), ())

    def rules_of(self, state: StateId) -> Iterator[Rule]:
        """The rules of one state, symbol by symbol, through the same index."""
        for symbol in self.input_alphabet:
            yield from self.rules_for(state, symbol)

    def is_automaton(self) -> bool:
        """True iff alphabets coincide and every rule just relabels in place."""
        if self.input_alphabet != self.output_alphabet:
            return False
        for r in self.rules:
            rhs = r.rhs
            if rhs.label != r.symbol or len(rhs.children) != r.variables:
                return False
            for i, c in enumerate(rhs.children, start=1):
                lab = c.label
                if not isinstance(lab, StateOverVariable) or lab.index != i:
                    return False
        return True

    def is_linear_nondeleting(self) -> bool:
        """True iff every variable occurs exactly once in each rule's rhs."""
        for r in self.rules:
            counts = [0] * r.variables

            def walk(node):
                if isinstance(node.label, StateOverVariable):
                    counts[node.label.index - 1] += 1
                for c in node.children:
                    walk(c)

            walk(r.rhs)
            if any(c != 1 for c in counts):
                return False
        return True

    # -- semantics ---------------------------------------------------------

    def _known(self, state: StateId) -> None:
        if state not in self.states:
            raise UnknownState("state %s is not a state of %s" % (state, self.name))

    def evaluate(self, state: StateId, tree: Tree, at: NodeAddress = ROOT, cap: int | None = None) -> frozenset[Tree]:
        """The set of trees derivable from state(tree), the root of tree sitting at `at`.

        The tree may be partial: any marker or placeholder leaf acts as a
        placeholder and a state q meeting it at node v yields the marker q(v),
        so rule right-hand sides can be evaluated directly.  The tree is
        checked against the input alphabet before the shared evaluator runs.
        """
        self._known(state)
        check_positive(cap, "cap", optional=True)
        check_ground_over(tree, self.input_alphabet, placeholders=True)
        return frozenset(_evaluate(self, state, _addressed(tree, at.path), cap, {}, None, None))

    def translate(self, tree: Tree, cap: int | None = None) -> frozenset[Tree]:
        """All ground output trees derivable from the initial state on a ground input."""
        check_positive(cap, "cap", optional=True)
        check_ground_over(tree, self.input_alphabet)
        return frozenset(_evaluate(self, self.initial, tree, cap, {}, None, None))

    def dom_empty(self, state: StateId) -> bool:
        """True iff no ground tree lies in dom(state): the set {state} is not
        live in the domain automaton seeded with it, by the fixpoint that
        `_trim_lookahead` uses.  Raises ResourceLimit under that automaton's
        caps."""
        from .constructions import domain_automaton

        self._known(state)
        aut = domain_automaton(self, seeds=[{state}])
        children = [[l.name for req in r.child_states for l in req] for r in aut.rules]
        live = least_fixpoint([r.state.name for r in aut.rules], children)
        return StateId.of_set((state,)).name not in live

    def enumerate_domain(self, state: StateId, max_size: int) -> list[Tree]:
        """All ground trees of size <= max_size in dom(state), in canonical order."""
        self._known(state)
        return enumerate_satisfying(self.input_alphabet, ((self, state),), max_size)


class LookaheadTransducer:
    """Transducer whose rules constrain children by look-ahead automaton states.

    Construction trims the machine: it drops look-ahead states with empty
    domain and every rule that uses one, keeps only the rules whose state is
    reachable through kept rules (from the initial states and the kept
    annotations), and builds the trimmed base and look-ahead automaton once
    each.
    """

    def __init__(self, base: Transducer, la: Transducer):
        if not la.is_automaton():
            raise ValidationError("the look-ahead machine must be an automaton")
        if la.input_alphabet != base.input_alphabet:
            raise ValidationError("look-ahead automaton must read the base input alphabet")
        for r in base.rules:
            if r.lookahead is None or len(r.lookahead) != r.variables:
                raise ValidationError("rule %s lacks look-ahead annotations" % r.lhs_text())
            for l in r.lookahead:
                if l not in la.states:
                    raise ValidationError("rule %s: annotation %s is not a look-ahead state" % (r.lhs_text(), l))
        base, la = _trim_lookahead(base, la)
        self.base = base
        self.la = la

    @property
    def name(self):
        return self.base.name

    @property
    def input_alphabet(self):
        return self.base.input_alphabet

    @property
    def output_alphabet(self):
        return self.base.output_alphabet

    def __repr__(self):
        return "LookaheadTransducer(%s: %d states, %d rules; la %d states)" % (
            self.base.name,
            len(self.base.states),
            len(self.base.rules),
            len(self.la.states),
        )

    def translate_la(self, tree: Tree, cap: int | None = None) -> frozenset[Tree]:
        """Two-phase semantics: the input is labelled bottom up with subtree
        classes (`_label`), the deterministic relabeling that evaluates the
        look-ahead, then the shared evaluator fires a rule at a node iff
        every child's class accepts its annotation.  The input and the cap
        are checked once, here."""
        check_positive(cap, "cap", optional=True)
        check_ground_over(tree, self.input_alphabet)
        labels, classes = {}, []
        _label(self.base, self.la, tree, labels, {}, classes)
        return frozenset(_evaluate(self.base, self.base.initial, tree, cap, {}, labels, classes))

    def enumerate_domain(self, max_size: int) -> list[Tree]:
        return enumerate_satisfying(
            self.input_alphabet, ((self, self.base.initial),), max_size
        )


def _trim_lookahead(base: Transducer, la: Transducer) -> tuple[Transducer, Transducer]:
    """Keep the base rules whose annotations are live look-ahead states and
    the look-ahead rules whose children are, each only if its state is
    reachable through kept rules; the look-ahead automaton is entered at its
    initial state and at the annotations of the kept base rules, and keeps
    its initial state.  Works on state names; builds each machine once."""
    children = [tuple([l.name for req in r.child_states for l in req]) for r in la.rules]
    live = least_fixpoint([r.state.name for r in la.rules], children)
    base_rules = [r for r in base.rules if all(l.name in live for l in r.lookahead)]
    base_states = reachable((base.initial,), base_rules)
    base_rules = [r for r in base_rules if r.state.name in base_states]
    la_rules = [r for r, kids in zip(la.rules, children) if all(k in live for k in kids)]
    starts = [la.initial]
    for r in base_rules:
        starts.extend(r.lookahead)
    la_states = reachable(starts, la_rules)
    la_rules = [r for r in la_rules if r.state.name in la_states]
    return (
        Transducer(
            base.name,
            base.input_alphabet,
            base.output_alphabet,
            base_rules,
            base.initial,
            states=base_states.values(),
            _annotated=True,
        ),
        Transducer(la.name, la.input_alphabet, la.output_alphabet, la_rules, la.initial, states=la_states.values()),
    )


# -- domain enumeration ------------------------------------------------------

Atom = tuple  # (machine, state); the machine is a Transducer or LookaheadTransducer


def _atom_alternatives(atom: Atom, symbol, k: int):
    """Child-requirement vectors opened up by one machine state on a symbol."""
    m, q = atom
    if isinstance(m, LookaheadTransducer):
        for rule in m.base.rules_for(q, symbol):
            yield tuple(
                frozenset({(m.la, rule.lookahead[i])})
                | frozenset((m, q2) for q2 in rule.child_states[i])
                for i in range(k)
            )
    else:
        for rule in m.rules_for(q, symbol):
            yield tuple(frozenset((m, q2) for q2 in rule.child_states[i]) for i in range(k))


def _solve(alphabet: RankedAlphabet, reqs: frozenset, n: int, memo: dict) -> tuple[Tree, ...]:
    """The ground trees of size exactly n that lie in the domain of every
    requirement in reqs, without repeats; memoised on (reqs, n)."""
    key = (reqs, n)
    out = memo.get(key)
    if out is not None:
        return out
    found: set[Tree] = set()
    for sym, k in alphabet.items():
        if n < 1 + k or (k == 0 and n != 1):
            continue
        merged = {(frozenset(),) * k}
        for atom in reqs:
            merged = merge_vectors(merged, list(_atom_alternatives(atom, sym, k)))
        for vec in merged:
            if k == 0:
                found.add(Tree(sym))
                continue
            for split in _compositions(n - 1, k):
                child_sets = []
                for i in range(k):
                    cs = _solve(alphabet, vec[i], split[i], memo)
                    if not cs:
                        break
                    child_sets.append(cs)
                else:
                    found.update(Tree(sym, combo) for combo in product(*child_sets))
    out = memo[key] = tuple(found)
    return out


def enumerate_sizes(alphabet: RankedAlphabet, atoms: Iterable[Atom], max_size: int) -> Iterator[list[Tree]]:
    """For each size n from 1 to max_size, the list of ground trees of size n
    over the alphabet that lie in the domain of every (machine, state)
    requirement, generated by rule-directed expansion and sorted by text;
    one list after the other, they are in canonical (size, text) order.

    The memo of one enumeration lives until the last size is computed, so a
    caller that stops early does no work for the larger sizes; close the
    generator to free it at once."""
    check_positive(max_size, "max_size")
    reqs = frozenset(atoms)
    memo: dict[tuple, tuple[Tree, ...]] = {}
    try:
        for n in range(1, max_size + 1):
            layer = list(_solve(alphabet, reqs, n, memo))
            if n == max_size:
                memo.clear()
            layer.sort(key=attrgetter("text"))
            yield layer
    finally:
        memo.clear()


def enumerate_satisfying(alphabet: RankedAlphabet, atoms: Iterable[Atom], max_size: int) -> list[Tree]:
    """All ground trees of size <= max_size over the alphabet that lie in the
    domain of every (machine, state) requirement, in canonical (size, text)
    order: the sizes of `enumerate_sizes`, one after the other."""
    return [tree for layer in enumerate_sizes(alphabet, atoms, max_size) for tree in layer]


def _compositions(total: int, k: int):
    """All ways to write total as an ordered sum of k positive integers."""
    if k == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - k + 2):
        for rest in _compositions(total - first, k - 1):
            yield (first,) + rest


def enumerate_trees(alphabet: RankedAlphabet, max_size: int) -> list[Tree]:
    """All ground trees over the alphabet of size <= max_size."""
    return enumerate_satisfying(alphabet, (), max_size)
