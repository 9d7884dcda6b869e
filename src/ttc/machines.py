"""Transducer and automaton data model plus the evaluation semantics.

A transducer is a tuple (states, input alphabet, output alphabet, rules,
initial state).  Rules rewrite state-annotated input trees top-down; the
evaluation of a state on a tree returns the finite set of trees derivable
from it.  On a right-hand side, a state q meeting a marker leaf q1(xi)
yields the leaf q(q1(xi)), which the product construction reads.
Look-ahead transducers additionally constrain each child variable with a
state, or a set of states, of a look-ahead machine; a rule fires only when
every child subtree lies in the domain of each state of its annotation.
That guard is decided only by the subtree class of the child, computed
bottom up once per distinct subtree (`_label`).  A plain rule is a
look-ahead rule with no guard, so one evaluator serves both kinds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from math import prod
from operator import attrgetter
from typing import Collection, Hashable, Iterable, Iterator, Sequence

from .errors import ResourceLimit, ValidationError
from .trees import (
    MARKER_TYPES,
    RankedAlphabet,
    StateOverNode,
    StateOverVariable,
    Tree,
    check_ground_over,
)

# the bound on the size of any output set of a translation
DEFAULT_OUTPUT_CAP = 10**6


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


@dataclass(frozen=True)
class Rule:
    """One rewrite rule q(a(x1,...,xk)) -> rhs, optionally with look-ahead.

    `child_states` is, for each variable x_i, the set of states q with q(x_i)
    in the rhs.  It is None until a `Transducer` that holds the rule is
    built, whose validation reads it off the rhs (`_check_rhs`).

    `guard` is, for each variable x_i of a look-ahead rule, the names of the
    look-ahead states whose domains must all hold child i: by default the
    annotation's own name; M over hat passes the members of each annotation
    set (`constructions._check_step`)."""

    state: StateId
    symbol: object
    variables: int
    rhs: Tree
    lookahead: tuple[StateId, ...] | None = None
    child_states: tuple[frozenset[StateId], ...] | None = field(default=None, init=False, compare=False, repr=False)
    guard: tuple[frozenset[str], ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.guard is None and self.lookahead is not None:
            object.__setattr__(self, "guard", tuple([frozenset((l.name,)) for l in self.lookahead]))

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


def _check_rhs(rhs: Tree, variables: int, state_names: Collection[str], output_ranks: dict) -> tuple[frozenset[StateId], ...] | str:
    """What is wrong with a right-hand side over x1..x<variables>, or else its
    child states (`Rule.child_states`): both depend only on the rhs, its
    variable count and the machine, so a machine walks each distinct pair once."""
    calls = [set() for _ in range(variables)]
    stack = [rhs]
    while stack:
        node = stack.pop()
        lab = node.label
        if isinstance(lab, StateOverVariable):
            if not 1 <= lab.index <= variables:
                return "variable x%d out of range [%d]" % (lab.index, variables)
            if not isinstance(lab.state, StateId) or lab.state.name not in state_names:
                return "rhs uses undeclared state %s" % lab.state
            calls[lab.index - 1].add(lab.state)
            continue
        if isinstance(lab, MARKER_TYPES):
            return "unexpected marker %s in rhs" % lab
        rank = output_ranks.get(lab)
        if rank is None:
            return "rhs symbol %s not in the output alphabet" % lab
        if rank != len(node.children):
            return "symbol %s has rank %d but %d children" % (lab, rank, len(node.children))
        stack.extend(reversed(node.children))
    return tuple(map(frozenset, calls))


def _require(kind: type, what: str, *machines) -> None:
    """Raise ValidationError, naming the expected kind, for a machine of
    another kind or an annotated Transducer, whose guards `what` ignores."""
    for machine in machines:
        if not isinstance(machine, kind) or (kind is Transducer and machine.annotated):
            raise ValidationError("%s needs a %s, not %r" % (what, kind.__name__, machine))


def check_positive(value, what: str) -> None:
    """Raise ValidationError unless value, a size bound or a cap, is an int >= 1."""
    if not (type(value) is int and value >= 1):
        raise ValidationError("%s must be an int >= 1, not %r" % (what, value))


# -- semantics ---------------------------------------------------------------
#
# A subtree's class (`_class`) depends only on its symbol and its children's
# classes, like the state of a deterministic bottom-up relabeling, which is
# how regular look-ahead is evaluated (Engelfriet 1977).  One `_Classes`
# owns the class table and the evaluation memo of one machine, given as
# ``base`` and ``la``, the look-ahead machine or None (a plain machine, such
# as an automaton stage of a chain, whose domain is the classes whose `some`
# holds its initial state).
# The look-ahead machine is any plain transducer: a parsed look-ahead
# automaton, `build_m`'s power-set automaton, or hat itself for the check's
# M, whose guards name hat states (`Rule.guard`).  A guard is read from the
# owner's label memo and nowhere else; the domain of a state is the classes
# whose `some` holds it (`_domain_sizes`, `_domain_trees`).
#
# The caller makes one owner per machine and keeps it for one public call,
# one chain_outputs call or one whole check.  The evaluation memo is keyed
# on (state name, subtree text), which is how StateId and Tree define
# equality, so equal subtrees of all inputs share one entry.  A marker leaf
# names its result after itself (`_evaluate`).  These functions trust their
# input tree; the public entry points validate it.


class _Classes:
    """The per-call state of one machine (base, la): `memo` maps (state
    name, subtree text) to the outputs of that state on that subtree
    (`_evaluate`), `table` maps a key (symbol, child classes...) to an index
    into `classes`, `labels` a subtree text to its class index, `counts`
    holds the trees of each size counted by class (`_class_counts`) and
    `trees` the trees of a class at a size (`_class_trees`)."""

    __slots__ = ("base", "la", "memo", "table", "classes", "labels", "counts", "trees")

    def __init__(self, base: Transducer, la: Transducer | None):
        if la is None:
            _require(Transducer, "evaluation without a look-ahead machine", base)
        self.base, self.la = base, la
        self.memo, self.table, self.classes, self.labels, self.counts, self.trees = {}, {}, [], {}, [], {}

    def clear(self):
        for memo in (self.memo, self.table, self.classes, self.labels, self.counts, self.trees):
            memo.clear()


def _evaluate(cl: _Classes, q: StateId, s: Tree, cap: int) -> tuple[Tree, ...]:
    """The trees derivable from q(s) by the machine of `cl`, without
    repeats; q meeting a rhs marker leaf q1(xi) yields the leaf q(q1(xi)),
    so `constructions.p_construction` evaluates a right-hand side as it
    stands.  A rule with look-ahead fires iff each guard is in its child's
    `accepts`, read from the label memo of `cl` (see `_label`): the caller
    labels s first, which stores the class of every proper subtree.  The
    children's results go through `cl.memo`, the result for s itself does
    not: a check's inputs are distinct, so it would not be looked up again.
    Memo hits are answered in the caller's loop, without a call."""
    lab = s.label
    if isinstance(lab, StateOverVariable):
        return (Tree(StateOverNode(q, lab)),)
    # loops, not comprehensions, which would add a frame per input level
    kids = s.children
    alts = []
    for rule in cl.base.rules_for(q, lab):
        fires = True
        if rule.guard is not None:
            for g, c in zip(rule.guard, kids):
                fires = g <= cl.classes[cl.labels[c.text]][0]
                if not fires:
                    break
        if fires:
            alts.append(_expand(cl, rule.rhs, s, cap))
    if len(alts) == 1:  # already without repeats; skips hashing every tree
        return alts[0]
    acc = set().union(*alts)
    if len(acc) > cap:
        raise ResourceLimit("output set exceeds cap %d" % cap)
    return tuple(acc)


def _label(cl: _Classes, s: Tree) -> int:
    """The class of s, an index into `cl.classes` (see `_class`), read from
    `cl.table` (`_transition`); the children's classes go through
    `cl.labels`, by subtree text.  The class of s itself is not stored
    there, as a check's inputs are distinct."""
    key = [s.label]
    labels = cl.labels
    for c in s.children:
        k = labels.get(c.text)
        if k is None:
            k = labels[c.text] = _label(cl, c)
        key.append(k)
    return _transition(cl, tuple(key))


def _transition(cl: _Classes, key: tuple) -> int:
    """The class at key = (symbol, child classes...), an index into
    `cl.classes`: read from `cl.table`, computed by `_class` on a miss."""
    k = cl.table.get(key)
    if k is None:
        classes = cl.classes
        c = _class(cl.base, cl.la, key[0], [classes[i] for i in key[1:]])
        if c not in classes:
            classes.append(c)
        k = cl.table[key] = classes.index(c)
    return k


def _class(base: Transducer, la: Transducer | None, symbol, kids: list) -> tuple[frozenset[str], ...]:
    """The class at a symbol over children of the classes `kids`: the
    state-name sets (accepts, one, some).
    accepts: the look-ahead states with a rule on the symbol whose calls are
    each in their child's accepts, which is the domain of each state of any
    plain transducer, bottom up (Engelfriet 1977).  A base rule fires when
    each guard is in its child's accepts (any rule, without look-ahead).
    one: the base states with exactly one firing rule, whose calls are each
    in their child's one, so with exactly one output.  some: the base states
    with a firing rule whose calls are each in their child's some, so with
    an output."""
    states = la.states if la is not None else ()
    accepts = frozenset([l.name for l in states if any(all(q.name in k[0] for req, k in zip(r.child_states, kids) for q in req) for r in la.rules_for(l, symbol))])
    one, some = [], []
    for q in base.states:
        rules = base.rules_for(q, symbol)
        if not rules:  # in neither `one` nor `some`
            continue
        fired = [r for r in rules if r.guard is None or all(g <= k[0] for g, k in zip(r.guard, kids))]
        if len(fired) == 1 and all(q2.name in k[1] for req, k in zip(fired[0].child_states, kids) for q2 in req):
            one.append(q.name)
        if any(all(q2.name in k[2] for req, k in zip(r.child_states, kids) for q2 in req) for r in fired):
            some.append(q.name)
    return accepts, frozenset(one), frozenset(some)


def _class_counts(cl: _Classes, max_size: int) -> Iterator[dict[int, int]]:
    """For each size n from 1 to max_size, the number of ground trees of
    size n over the input alphabet of `cl.base` in each class, keyed on its
    index into `cl.classes`, appended to `cl.counts` before it is yielded.
    A tree's class depends only on its symbol and its children's classes,
    so the counts follow from those at smaller sizes through `cl.table`,
    over every symbol, split of n - 1 and tuple of child classes, and no
    tree is built."""
    counts = cl.counts
    for n in range(1, max_size + 1):
        layer = {}
        for sym, k in cl.base.input_alphabet.items():
            for split in _compositions(n - 1, k):
                for combo in product(*[counts[m - 1].items() for m in split]):
                    c = _transition(cl, (sym, *[kid for kid, _ in combo]))
                    layer[c] = layer.get(c, 0) + prod([count for _, count in combo])
        counts.append(layer)
        yield layer


def _class_trees(cl: _Classes, c: int, n: int) -> list[Tree]:
    """The trees of size n in class c, in no particular order, built from
    `cl.counts` and `cl.table` as `_class_counts` left them at size n.  A
    tree has one decomposition into its symbol, its children's sizes and
    their classes, so the walk over every symbol, split of n - 1 and tuple
    of child classes counted at those sizes whose table entry is c builds
    each tree once; memoised in `cl.trees` on (c, n)."""
    out = cl.trees.get((c, n))
    if out is None:
        out = []
        for sym, k in cl.base.input_alphabet.items():
            for split in _compositions(n - 1, k):
                for kids in product(*[cl.counts[m - 1] for m in split]):
                    if cl.table[(sym, *kids)] == c:
                        parts = [_class_trees(cl, kid, m) for kid, m in zip(kids, split)]
                        out += [Tree(sym, combo) for combo in product(*parts)]
        cl.trees[c, n] = out
    return out


def _domain_sizes(cl: _Classes, q: str, max_size: int) -> Iterator[list[tuple[int, int]]]:
    """For each size n from 1 to max_size, the domain of the state named q
    at size n: the (class, count) pairs of the classes whose `some` holds q
    (`_class_counts`)."""
    check_positive(max_size, "max_size")
    for layer in _class_counts(cl, max_size):
        yield [(k, count) for k, count in layer.items() if q in cl.classes[k][2]]


def _domain_trees(cl: _Classes, domain: list[tuple[int, int]]) -> list[Tree]:
    """The trees of the classes in `domain` at the size counted last, sorted
    by text: one list per size of `_domain_sizes`, one after the other, are
    the domain in canonical (size, text) order."""
    trees = [s for k, _ in domain for s in _class_trees(cl, k, len(cl.counts))]
    trees.sort(key=attrgetter("text"))
    return trees


def _compositions(total: int, k: int):
    """All ways to write total as an ordered sum of k positive integers, in
    lexicographic order: by k - 1 cuts of 1..total-1, so no rank recurses."""
    if k == 0:
        if total == 0:
            yield ()
    elif total >= 1:
        for cuts in combinations(range(1, total), k - 1):
            ends = (0, *cuts, total)
            yield tuple([b - a for a, b in zip(ends, ends[1:])])


def _expand(cl: _Classes, node: Tree, s: Tree, cap: int) -> tuple[Tree, ...]:
    """The trees a right-hand side node of the machine of `cl` yields at
    input node s, without repeats.  A q(xi) child is looked up in `cl.memo`
    here, and evaluated only on a miss; only a q(xi) at the root of a
    right-hand side comes in as `node`."""
    lab = node.label
    memo = cl.memo
    if isinstance(lab, StateOverVariable):
        child = s.children[lab.index - 1]
        key = (lab.state.name, child.text)
        out = memo.get(key)
        if out is None:
            out = memo[key] = _evaluate(cl, lab.state, child, cap)
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
                a = memo[key] = _evaluate(cl, clab.state, child, cap)
        elif c.children:
            a = _expand(cl, c, s, cap)
        else:
            a = (c,)
        alts.append(a)
        count *= len(a)
    if count == 1:  # one combination: no product
        return (Tree(lab, [a[0] for a in alts]),)
    if count > cap:
        raise ResourceLimit("output set exceeds cap %d" % cap)
    return tuple([Tree(lab, combo) for combo in product(*alts)])


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


def universal_states(t: Transducer) -> frozenset[str]:
    """The greatest set of state names in which every state has, on every
    input symbol, a rule whose child states are all in the set.  Each state
    in it accepts every tree, by induction on height.  Sound, not complete:
    a state whose rules cover every tree only together is dropped."""
    kept = {q.name for q in t.states}
    changed = True
    while changed:
        changed = False
        for q in t.states:
            if q.name in kept and not all(
                any(all(c.name in kept for req in r.child_states for c in req) for r in t.rules_for(q, sym))
                for sym in t.input_alphabet
            ):
                kept.discard(q.name)
                changed = True
    return frozenset(kept)


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
    """Nondeterministic top-down tree transducer; immutable after construction.
    `annotated` is True iff a rule carries look-ahead, `automaton` iff it relabels
    in place: unannotated, equal alphabets, each rhs its rule's symbol over
    q1(x1),...,qk(xk) in order."""

    def __init__(
        self,
        name: str,
        input_alphabet: RankedAlphabet,
        output_alphabet: RankedAlphabet,
        rules: Iterable[Rule],
        initial: StateId,
        states: Iterable[StateId],
    ):
        self.name = name
        self.input_alphabet = input_alphabet
        self.output_alphabet = output_alphabet
        self.rules = tuple(rules)
        self.initial = initial
        self.states = frozenset(states)
        self._validate()
        self.annotated = any(r.lookahead is not None for r in self.rules)
        self.automaton = not self.annotated and input_alphabet == output_alphabet and all(
            r.rhs.label == r.symbol
            and len(r.rhs.children) == r.variables
            and all(isinstance(c.label, StateOverVariable) and c.label.index == i for i, c in enumerate(r.rhs.children, start=1))
            for r in self.rules
        )
        # keyed on state names, which hash without a call into Python
        by_head: dict[tuple[str, object], list[Rule]] = {}
        for r in self.rules:
            by_head.setdefault((r.state.name, r.symbol), []).append(r)
        self._by_head = {key: tuple(rs) for key, rs in by_head.items()}

    def _validate(self):
        """Check every rule and give each without child states those of its rhs;
        the text of a failing rule is built only when it fails."""
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
        walked = {}  # (id, variable count) of each right-hand side checked -> its child states
        shared = {}  # one object per distinct tuple of child states
        for r in self.rules:
            if r.symbol not in input_ranks:
                problem = "symbol not in the input alphabet"
            elif input_ranks[r.symbol] != r.variables:
                problem = "symbol rank differs from variable count"
            else:
                key = (id(r.rhs), r.variables)
                if (calls := walked.get(key)) is None:
                    calls = _check_rhs(r.rhs, r.variables, state_names, output_ranks)
                    calls = walked[key] = shared.setdefault(calls, calls)
                if type(calls) is tuple:
                    if r.child_states is None:
                        object.__setattr__(r, "child_states", calls)
                    continue
                problem = calls
            raise ValidationError("rule %s: %s" % (r.lhs_text(), problem))

    def __repr__(self):
        return "Transducer(%s: %d states, %d rules%s)" % (self.name, len(self.states), len(self.rules), ", annotated" if self.annotated else "")

    def rules_for(self, state: StateId, symbol) -> tuple[Rule, ...]:
        return self._by_head.get((state.name, symbol), ())

    def rules_of(self, state: StateId) -> Iterator[Rule]:
        """The rules of one state, symbol by symbol, through the same index."""
        for symbol in self.input_alphabet:
            yield from self.rules_for(state, symbol)

    def is_linear_nondeleting(self) -> bool:
        """True iff every variable occurs exactly once in each rule's rhs."""
        for r in self.rules:
            counts = [0] * r.variables
            stack = [r.rhs]
            while stack:
                node = stack.pop()
                if isinstance(node.label, StateOverVariable):
                    counts[node.label.index - 1] += 1
                stack.extend(node.children)
            if any(c != 1 for c in counts):
                return False
        return True

    # -- semantics ---------------------------------------------------------

    def translate(self, tree: Tree, cap: int = DEFAULT_OUTPUT_CAP) -> frozenset[Tree]:
        """All ground output trees derivable from the initial state on a
        ground input; `cap` stays a keyword, as perfbench's tracer passes it."""
        check_positive(cap, "cap")
        check_ground_over(tree, self.input_alphabet)
        return frozenset(_evaluate(_Classes(self, None), self.initial, tree, cap))


class LookaheadTransducer:
    """Transducer whose rules constrain children by the domains of states of
    a look-ahead machine, a plain transducer: each guard (`Rule.guard`) must
    name states of it.  Construction validates and keeps both machines as
    they are; `trimmed` also trims them, over a look-ahead automaton.
    """

    def __init__(self, base: Transducer, la: Transducer):
        if la.input_alphabet != base.input_alphabet:
            raise ValidationError("look-ahead machine must read the base input alphabet")
        names = {s.name for s in la.states}
        for r in base.rules:
            if r.lookahead is None or len(r.lookahead) != r.variables:
                raise ValidationError("rule %s: expected one look-ahead state per variable" % r.lhs_text())
            for l, g in zip(r.lookahead, r.guard):
                if not g <= names:
                    raise ValidationError("rule %s: annotation %s is not a look-ahead state" % (r.lhs_text(), l))
        self.base = base
        self.la = la

    @classmethod
    def trimmed(cls, base: Transducer, la: Transducer) -> "LookaheadTransducer":
        """The machine over the look-ahead automaton la, whose states are the
        annotations, trimmed by `_trim_lookahead`; the annotations are checked
        first, as the trim would drop a rule with a foreign one as dead."""
        m = cls(base, la)
        if not la.automaton:
            raise ValidationError("the look-ahead machine must be an automaton")
        m.base, m.la = _trim_lookahead(base, la)
        return m

    @property
    def name(self):
        return self.base.name

    @property
    def input_alphabet(self):
        return self.base.input_alphabet

    def __repr__(self):
        return "LookaheadTransducer(%s: %d states, %d rules; la %d states)" % (
            self.base.name,
            len(self.base.states),
            len(self.base.rules),
            len(self.la.states),
        )

    def translate_la(self, tree: Tree, cap: int = DEFAULT_OUTPUT_CAP) -> frozenset[Tree]:
        """Two-phase semantics: the input is labelled bottom up with subtree
        classes (`_label`), the deterministic relabeling that evaluates the
        look-ahead, then the shared evaluator fires a rule at a node iff
        every child's class accepts its guard.  The input and the cap
        are checked once, here; `cap` stays, as for `Transducer.translate`."""
        check_positive(cap, "cap")
        check_ground_over(tree, self.input_alphabet)
        cl = _Classes(self.base, self.la)
        _label(cl, tree)
        return frozenset(_evaluate(cl, self.base.initial, tree, cap))

    def enumerate_domain(self, max_size: int) -> list[Tree]:
        """All ground trees of size <= max_size in the domain, in canonical order."""
        cl = _Classes(self.base, self.la)
        return [s for domain in _domain_sizes(cl, self.base.initial.name, max_size) for s in _domain_trees(cl, domain)]


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
        ),
        Transducer(la.name, la.input_alphabet, la.output_alphabet, la_rules, la.initial, states=la_states.values()),
    )
