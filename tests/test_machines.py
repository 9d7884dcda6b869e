import re

import pytest

from ttc import (
    AlphabetMismatch,
    CompositionChain,
    LookaheadTransducer,
    RankedAlphabet,
    Rule,
    StateId,
    Transducer,
    ValidationError,
    build_hat_t1,
    build_m,
    chain_outputs,
    check_functional_bounded,
    compose_linear_nondeleting,
    decide_functionality,
    domain_automaton,
    p_construction,
    trace_derivation,
)
from ttc.generate import random_chain3, random_pair
from ttc.machines import DEFAULT_OUTPUT_CAP, _Classes, _compositions, _evaluate, _label, least_fixpoint
from ttc.trees import NodeAddress, StateOverNode, StateOverVariable, Tree, parse_tree

from .conftest import domain_of
from .oracles import (
    all_trees,
    dom_member,
    identity_automaton,
    rewrite_translate,
    set_productive,
    translate_la_eager,
    wrap_trivial_lookahead,
)

t = parse_tree


def outs(trees):
    return sorted(x.text for x in trees)


def live_states(aut):
    """The names of the automaton's states with a non-empty domain, by the
    least fixpoint that the trim of a look-ahead automaton computes."""
    children = [[l.name for req in r.child_states for l in req] for r in aut.rules]
    return least_fixpoint([r.state.name for r in aut.rules], children)


class TestShapePredicates:
    def test_domain_automaton_is_automaton(self, worked_pair):
        _, t2 = worked_pair
        assert domain_automaton(t2).automaton

    def test_quadratic_is_not_automaton(self, quadratic):
        assert not quadratic.automaton

    def test_zero_rules_is_automaton(self, quadratic):
        empty = Transducer(
            "empty",
            quadratic.input_alphabet,
            quadratic.input_alphabet,
            [],
            quadratic.initial,
            states=[quadratic.initial],
        )
        assert empty.automaton

    def test_an_annotated_machine_is_not_automaton(self, quadratic):
        """Its rules relabel in place, but each carries a look-ahead guard,
        so a chain never passes its input through it unchecked."""
        identity = identity_automaton(quadratic.input_alphabet)
        assert identity.automaton
        assert not wrap_trivial_lookahead(identity).base.automaton

    def test_automata_are_linear_nondeleting(self, worked_pair):
        _, t2 = worked_pair
        assert domain_automaton(t2).is_linear_nondeleting()

    def test_deleting_rule_detected(self, del_pair):
        _, t2 = del_pair  # q2(b(x1,x2,x3)) -> q2(x1) deletes x2, x3
        assert not t2.is_linear_nondeleting()

    def test_copying_rule_detected(self, copy_pair):
        _, t2 = copy_pair  # q2(b(x1)) -> f(q2'(x1), q2''(x1)) copies x1
        assert not t2.is_linear_nondeleting()


class TestEvaluate:
    def test_worked_example_output(self, quadratic):
        got = quadratic.translate(t("a(a(e))"))
        assert outs(got) == ["f(a(e),f(e,e))"]

    def test_three_way_leaf(self, copy_pair):
        t1, _ = copy_pair
        got = t1.translate(t("e"))
        assert outs(got) == ["e1", "e2", "e3"]

    def test_marker_leaf_names_the_result_after_itself(self, worked_pair):
        # p1(f(x1,x2)) -> f(p1(x1),p1(x2)) on a right-hand side: p1 meeting
        # the marker q(x1) yields the leaf p1(q(x1)), whichever node it is at
        _, t2 = worked_pair
        p1 = StateId.base("p1")
        marker = Tree(StateOverVariable(StateId.base("q"), 1))
        got = _evaluate(_Classes(t2, None), p1, Tree("f", (marker, marker)), DEFAULT_OUTPUT_CAP)
        leaf = Tree(StateOverNode(p1, marker.label))
        assert got == (Tree("f", (leaf, leaf)),)
        assert leaf.text == "p1(q(x1))"


class TestTranslate:
    def test_quadratic(self, quadratic):
        assert outs(quadratic.translate(t("a(a(e))"))) == ["f(a(e),f(e,e))"]

    def test_naive_product_overapproximates(self, copy_pair):
        n, _ = p_construction(*copy_pair)
        assert outs(n.translate(t("a(e)"))) == ["f(e,e')", "f(e,e)"]

    def test_empty_translation(self, del_pair):
        t1, _ = del_pair
        assert t1.translate(t("a(e,e)")) == frozenset()

    def test_foreign_symbol_is_an_error(self, quadratic):
        with pytest.raises(AlphabetMismatch):
            quadratic.translate(t("g(e)"))

    def test_deep_spine(self, quadratic):
        # two evaluator frames per input level: a 450-node spine fits under
        # the default recursion limit (the recursion itself is still there)
        n = 449
        (out,) = quadratic.translate(t("a(" * n + "e" + ")" * n))
        want = "e"
        for i in range(1, n + 1):
            want = "f(%s,%s)" % ("a(" * (i - 1) + "e" + ")" * (i - 1), want)
        assert out.text == want
        assert out.size == (n * n + 3 * n) // 2 + 1

    def test_agrees_with_rewrite_oracle(self, quadratic, copy_pair, del_pair, worked_pair):
        machines = [quadratic, *copy_pair, *del_pair, *worked_pair]
        for machine in machines:
            for s in all_trees(machine.input_alphabet, 4):
                assert machine.translate(s) == frozenset(rewrite_translate(machine, s)), (
                    machine.name,
                    s.text,
                )


class TestDomains:
    def test_copy_t2_rejects_e3_under_q2p(self, copy_pair):
        _, t2 = copy_pair
        assert not dom_member(t2, StateId.base("q2'"), t("e3"))
        assert dom_member(t2, StateId.base("q2''"), t("e3"))

    def test_quadratic_domain_is_everything(self, quadratic):
        for s in all_trees(quadratic.input_alphabet, 6):
            assert dom_member(quadratic, quadratic.initial, s)

    def test_dropping_rule_one_shrinks_domain(self, quadratic):
        smaller = Transducer(
            "smaller",
            quadratic.input_alphabet,
            quadratic.output_alphabet,
            quadratic.rules[1:],
            quadratic.initial,
            states=quadratic.states,
        )
        assert not dom_member(smaller, smaller.initial, t("a(e)"))
        assert dom_member(smaller, smaller.initial, t("e"))
        assert [s.text for s in domain_of(smaller, smaller.initial, 6)] == ["e"]

    def test_dom_member_iff_translation_nonempty(self, quadratic, copy_pair, del_pair, worked_pair):
        machines = [quadratic, *copy_pair, *del_pair, *worked_pair]
        for machine in machines:
            for s in all_trees(machine.input_alphabet, 6):
                for q in sorted(machine.states):
                    assert dom_member(machine, q, s) == bool(rewrite_translate(machine, s, q)), (
                        machine.name,
                        q.name,
                        s.text,
                    )

    def test_ruleless_state_has_empty_domain(self, quadratic):
        extra = StateId.base("dead")
        bigger = Transducer(
            "bigger",
            quadratic.input_alphabet,
            quadratic.output_alphabet,
            quadratic.rules,
            quadratic.initial,
            states=set(quadratic.states) | {extra},
        )
        live = live_states(domain_automaton(bigger, seeds=[{extra}]))
        assert "{dead}" not in live
        assert "{q0}" in live

    def test_deleting_pair_set_state_is_empty(self, del_pair):
        t1, t2 = del_pair
        hat = build_hat_t1(t1, t2)
        members = frozenset(
            s for s in hat.states if s.name in ("(q1'',{})", "(q1''',{})")
        )
        assert len(members) == 2
        seeds = [members] + [frozenset([m]) for m in members]
        aut = domain_automaton(hat, seeds=seeds)
        live = live_states(aut)
        assert StateId.of_set(members).name not in live
        # each branch checker alone is satisfiable
        for m in members:
            assert StateId.of_set([m]).name in live

    def test_dom_empty_matches_the_requirement_set_oracle(self, workspace):
        """Every state of the plain fixture machines, of `random_pair` and
        `random_chain3` seeds 0-299 and of the four automata and transducers
        `build_m` builds per pair, plus one two-member set per machine:
        liveness in a seeded domain automaton, which is how emptiness of a
        set of look-ahead states is decided, against the oracle."""
        machines = [m for m in workspace.machines.values() if isinstance(m, Transducer)]
        for seed in range(300):
            pair = random_pair(seed)
            machines += [*pair, *random_chain3(seed).stages]
            _, reports = build_m(*pair)
            machines += [r.machine for r in reports if isinstance(r.machine, Transducer)]
        queries = empty_pairs = 0
        for machine in machines:
            states = sorted(machine.states)
            live = live_states(domain_automaton(machine, seeds=[{q} for q in states]))
            inhabited = []
            for q in states:
                empty = StateId.of_set([q]).name not in live
                assert empty == (not set_productive(machine, {q})), (machine.name, q.name)
                queries += 1
                if not empty:
                    inhabited.append(q)
            if len(inhabited) >= 2:
                members = frozenset(inhabited[:2])
                live = live_states(domain_automaton(machine, seeds=[members]))
                assert (StateId.of_set(members).name in live) == set_productive(machine, members), machine.name
                queries += 1
                empty_pairs += StateId.of_set(members).name not in live
        assert queries >= 5000
        # some pairs of inhabited states share no tree: intersection, not union
        assert empty_pairs > 0

    def test_dom_empty_iff_enumeration_empty(self, quadratic, copy_pair, del_pair):
        machines = [quadratic, *copy_pair, *del_pair]
        for machine in machines:
            live = live_states(domain_automaton(machine, seeds=[{q} for q in machine.states]))
            for q in sorted(machine.states):
                assert (StateId.of_set([q]).name not in live) == (domain_of(machine, q, 6) == []), (
                    machine.name,
                    q.name,
                )


class TestEnumerateDomain:
    def test_copy_t1_small(self, copy_pair):
        t1, _ = copy_pair
        got = domain_of(t1, StateId.base("q1"), 2)
        assert [s.text for s in got] == ["e", "a(e)"]

    def test_quadratic_small(self, quadratic):
        got = domain_of(quadratic, quadratic.initial, 2)
        assert [s.text for s in got] == ["e", "a(e)"]

    def test_empty_domain_state(self, del_pair):
        t1, _ = del_pair
        # q1 itself: needs x2 with leftmost leaf both e and c, impossible
        assert domain_of(t1, t1.initial, 6) == []

    def test_matches_dom_member_filter(self, worked_pair):
        t1, _ = worked_pair
        everything = all_trees(t1.input_alphabet, 5)
        expected = [s for s in everything if dom_member(t1, t1.initial, s)]
        assert domain_of(t1, t1.initial, 5) == expected


class TestLookaheadSemantics:
    def test_deleting_m_is_empty(self, del_pair):
        m, _ = build_m(*del_pair)
        for s in all_trees(m.input_alphabet, 5):
            assert m.translate_la(s) == frozenset()

    def test_worked_m_outputs(self, worked_pair):
        m, _ = build_m(*worked_pair)
        assert outs(m.translate_la(t("f(e,d)"))) == ["d"]
        assert outs(m.translate_la(t("f(e,e)"))) == ["f(e,e)"]

    def test_lazy_agrees_with_eager(self, copy_pair, del_pair, worked_pair):
        for pair in (copy_pair, del_pair, worked_pair):
            m, _ = build_m(*pair)
            for s in all_trees(m.input_alphabet, 5):
                assert m.translate_la(s) == translate_la_eager(m, s), (m.name, s.text)

    def test_hand_written_lookahead(self, workspace):
        m = workspace.machines["quadratic_la"]
        assert isinstance(m, LookaheadTransducer)
        assert outs(m.translate_la(t("a(a(e))"))) == ["f(a(e),f(e,e))"]

    def test_la_domain_enumeration(self, worked_pair):
        m, _ = build_m(*worked_pair)
        enumerated = set(m.enumerate_domain(5))
        for s in all_trees(m.input_alphabet, 5):
            assert (s in enumerated) == bool(m.translate_la(s))

    def test_monotone_lookahead(self, copy_pair, worked_pair):
        # bigger state sets have smaller domains
        for _, t2 in (copy_pair, worked_pair):
            aut = domain_automaton(t2)
            sets = [s for s in aut.states if s.kind == "set"]
            trees = all_trees(t2.input_alphabet, 5)
            for small in sets:
                for big in sets:
                    if set(small.parts) <= set(big.parts):
                        for s in trees:
                            if dom_member(aut, big, s):
                                assert dom_member(aut, small, s)


class TestSubtreeClasses:
    """The class of a subtree: `accepts` is exactly the look-ahead states whose
    domain holds it, and `some` exactly the base states whose domain holds
    it, by the top-down membership reference in `oracles`, which the package
    does not use; each state in `one` has exactly one output on it.
    Labelled as a base with no look-ahead machine, as a chain labels an
    automaton stage, a look-ahead automaton gets as `some` its `accepts`."""

    @staticmethod
    def check_classes(machine, trees, tag):
        base, la = (machine.base, machine.la) if isinstance(machine, LookaheadTransducer) else (machine, None)
        cl, as_base = _Classes(base, la), _Classes(la, None) if la is not None else None
        states = {q.name: q for q in base.states}
        singles = 0
        for s in trees:
            accepts, one, some = cl.classes[_label(cl, s)]
            assert some == {q.name for q in base.states if dom_member(machine, q, s)}, (tag, s.text)
            if la is None:
                assert accepts == frozenset(), (tag, s.text)
            else:
                member = {l.name for l in la.states if dom_member(la, l, s)}
                assert accepts == member, (tag, s.text)
                assert as_base.classes[_label(as_base, s)][2] == member, (tag, s.text)
            for name in one:
                assert len(_evaluate(cl, states[name], s, DEFAULT_OUTPUT_CAP)) == 1, (tag, s.text, name)
            singles += len(one)
        return singles

    @staticmethod
    def subtrees(trees):
        found, stack = {}, list(trees)
        while stack:
            s = stack.pop()
            if s.text not in found:
                found[s.text] = s
                stack.extend(s.children)
        return sorted(found.values(), key=lambda s: (s.size, s.text))

    def test_every_subtree_of_m_domains(self):
        singles = 0
        for seed in range(200):
            m, _ = build_m(*random_pair(seed))
            singles += self.check_classes(m, self.subtrees(m.enumerate_domain(6)), seed)
        assert singles > 300  # 408 (subtree, state) pairs in `one`: not vacuous

    def test_accepts_over_hat(self):
        """Over a look-ahead machine that is no automaton, hat as the check's
        M uses it, `accepts` is exactly the hat states whose domain holds the
        subtree."""
        accepted = 0
        for seed in range(200):
            m = decide_functionality(CompositionChain(random_pair(seed)), 1)[1][-1].machine
            hat = m.la
            assert not hat.automaton, seed
            cl = _Classes(m.base, hat)
            for s in all_trees(hat.input_alphabet, 5):
                accepts = cl.classes[_label(cl, s)][0]
                assert accepts == {h.name for h in hat.states if dom_member(hat, h, s)}, (seed, s.text)
                accepted += len(accepts)
        assert accepted > 300  # 446 (tree, state) pairs: not vacuous

    def test_plain_machines(self, workspace):
        plain = [m for m in workspace.machines.values() if isinstance(m, Transducer)]
        for seed in range(50):
            plain += random_pair(seed)
        for m in plain:
            self.check_classes(m, all_trees(m.input_alphabet, 5), m.name)


class TestCompositions:
    @staticmethod
    def by_bitmask(total):
        """Every ordered sum of positive integers that makes total, one per
        subset of the 1..total-1 places where a part ends, sorted."""
        if total == 0:
            return [()]
        sums = []
        for mask in range(2 ** (total - 1)):
            parts, run = [], 1
            for place in range(total - 1):
                if mask >> place & 1:
                    parts.append(run)
                    run = 0
                run += 1
            sums.append(tuple(parts + [run]))
        return sorted(sums)

    def test_lexicographic_order_matches_brute_force(self):
        for total in range(16):
            every = self.by_bitmask(total)
            for k in range(9):
                assert list(_compositions(total, k)) == [c for c in every if len(c) == k], (total, k)

    def test_a_high_rank_does_not_recurse(self):
        assert list(_compositions(1200, 1200)) == [(1,) * 1200]
        assert list(_compositions(1201, 1200))[:2] == [(1,) * 1199 + (2,), (1,) * 1198 + (2, 1)]


class TestRequirementEnumeration:
    def test_intersection_of_two_states(self, copy_pair):
        _, t2 = copy_pair
        q2p, q2pp = StateId.base("q2'"), StateId.base("q2''")
        second = set(domain_of(t2, q2pp, 3))
        texts = [s.text for s in domain_of(t2, q2p, 3) if s in second]
        assert "e3" not in texts and "e1" in texts and "e2" in texts

    def test_unconstrained_counts(self, quadratic):
        got = all_trees(quadratic.input_alphabet, 4)
        assert [s.text for s in got] == ["e", "a(e)", "a(a(e))", "a(a(a(e)))"]


# --- validation of machines built directly -----------------------------------

Q, P, L = StateId.base("q"), StateId.base("p"), StateId.base("l")
IN = RankedAlphabet({"a": 1, "e": 0})
OUT = RankedAlphabet({"f": 2, "e": 0})


def var(state, i):
    return Tree(StateOverVariable(state, i))


# a valid rule first, so each message must name the rule that fails
GOOD = Rule(Q, "e", 0, Tree("e"))


class TestRuleVariables:
    """A variable outside x1..xk is the fault of the rule's machine, found
    when it is built, in the walk that reads the rule's child states."""

    def test_variable_beyond_the_rank(self):
        rule = Rule(Q, "a", 1, Tree("f", (var(Q, 1), var(Q, 2))))
        with pytest.raises(ValidationError, match="^%s$" % re.escape("rule q(a(x1)): variable x2 out of range [1]")):
            Transducer("m", IN, OUT, [GOOD, rule], Q, states=[Q])

    def test_variable_zero(self):
        rule = Rule(Q, "a", 1, var(Q, 0))
        with pytest.raises(ValidationError, match="^%s$" % re.escape("rule q(a(x1)): variable x0 out of range [1]")):
            Transducer("m", IN, OUT, [GOOD, rule], Q, states=[Q])

    def test_a_rule_holds_no_child_states_until_a_machine_is_built(self):
        # the machine that holds it rejects x3 under a rank-2 symbol, and the
        # child states take no part in a rule's equality or its repr
        rule = Rule(Q, "f", 2, Tree("f", (var(Q, 1), var(Q, 3))))
        assert rule.child_states is None and "child_states" not in repr(rule)
        with pytest.raises(ValidationError, match="^%s$" % re.escape("rule q(f(x1,x2)): variable x3 out of range [2]")):
            Transducer("m", OUT, OUT, [GOOD, rule], Q, states=[Q])
        assert rule.child_states is None
        good = Rule(Q, "f", 2, Tree("f", (var(Q, 1), var(Q, 1))))
        Transducer("m", OUT, OUT, [GOOD, good], Q, states=[Q])
        assert good.child_states == (frozenset({Q}), frozenset())
        assert good == Rule(Q, "f", 2, good.rhs) and "child_states" not in repr(good)

    def test_shared_rhs_is_checked_per_variable_count(self):
        rhs = Tree("f", (var(Q, 1), Tree("e")))
        rules = [Rule(Q, "a", 1, rhs), Rule(Q, "e", 0, rhs)]
        with pytest.raises(ValidationError, match="^%s$" % re.escape("rule q(e): variable x1 out of range [0]")):
            Transducer("m", IN, OUT, rules, Q, states=[Q])


def test_child_states_are_read_off_the_rhs_never_given():
    """A rule's maker cannot give it child states.  Given ({q},) for
    f(q(x1),p(x1)), the check would read p as absent and call the machine
    functional, though a(e) has two outputs."""
    rhs = Tree("f", (var(Q, 1), var(P, 1)))
    with pytest.raises(TypeError):
        Rule(Q, "a", 1, rhs, child_states=(frozenset({Q}),))
    rules = [Rule(Q, "a", 1, rhs), Rule(Q, "e", 0, Tree("b")), Rule(P, "e", 0, Tree("b")), Rule(P, "e", 0, Tree("c"))]
    m = Transducer("m", IN, RankedAlphabet({"f": 2, "b": 0, "c": 0}), rules, Q, states=[Q, P])
    verdict = check_functional_bounded(m, 3)
    assert verdict.status == "not-functional"
    assert verdict.counterexample.input == t("a(e)")
    assert outs(verdict.counterexample.outputs) == outs(m.translate(t("a(e)"))) == ["f(b,b)", "f(b,c)"]
    assert m.rules[0].child_states == (frozenset({Q, P}),)


class TestValidate:
    @pytest.mark.parametrize(
        "rule, message",
        [
            (Rule(Q, "a", 1, Tree("f", (var(P, 1), Tree("e")))), "rule q(a(x1)): rhs uses undeclared state p"),
            (Rule(Q, "a", 1, Tree(StateOverNode(Q, NodeAddress((1,))))), "rule q(a(x1)): unexpected marker q(1) in rhs"),
            (Rule(Q, "a", 1, Tree("f", (var(Q, 1), Tree("g")))), "rule q(a(x1)): rhs symbol g not in the output alphabet"),
            (Rule(Q, "a", 1, Tree("f", (var(Q, 1),))), "rule q(a(x1)): symbol f has rank 2 but 1 children"),
            (Rule(Q, "b", 0, Tree("e")), "rule q(b): symbol not in the input alphabet"),
            (Rule(Q, "a", 0, Tree("e")), "rule q(a): symbol rank differs from variable count"),
            (
                Rule(Q, "a", 1, var(Q, 1), lookahead=(L,)),
                "evaluation without a look-ahead machine needs a Transducer, not Transducer(m: 1 states, 2 rules, annotated)",
            ),
        ],
        ids=["undeclared-state", "node-marker", "output-symbol", "rhs-rank", "input-symbol", "variable-count", "annotations"],
    )
    def test_rule_failure_names_the_rule(self, rule, message):
        """Each fault but the last is the rule's, caught when the machine
        is built; an annotated rule makes an annotated machine, which an
        entry point that reads it as plain rejects, here `translate`."""
        with pytest.raises(ValidationError, match="^%s$" % re.escape(message)):
            Transducer("m", IN, OUT, [GOOD, rule], Q, states=[Q]).translate(t("e"))

    def test_missing_annotations(self):
        """A rule with no annotation, or too many, beside an annotated one
        makes an annotated machine, which `LookaheadTransducer` rejects."""
        good = Rule(Q, "e", 0, Tree("e"), lookahead=())
        la = identity_automaton(IN)
        for rule in (Rule(Q, "a", 1, var(Q, 1)), Rule(Q, "a", 1, var(Q, 1), lookahead=(la.initial,) * 2)):
            base = Transducer("m", IN, OUT, [good, rule], Q, states=[Q])
            assert base.annotated and not base.automaton
            message = "rule %s: expected one look-ahead state per variable" % rule.lhs_text()
            with pytest.raises(ValidationError, match="^%s$" % re.escape(message)):
                LookaheadTransducer(base, la)

    def test_unknown_annotation_names_the_rule(self):
        # such a rule is dead, so the trim would drop it without a word
        ghost = StateId.base("ghost")
        rules = [Rule(Q, "e", 0, Tree("e"), lookahead=()), Rule(Q, "a", 1, Tree("f", (var(Q, 1), var(Q, 1))), lookahead=(ghost,))]
        base = Transducer("m", IN, OUT, rules, Q, states=[Q])
        message = "rule q(a(x1:ghost)): annotation ghost is not a look-ahead state"
        with pytest.raises(ValidationError, match="^%s$" % re.escape(message)):
            LookaheadTransducer(base, identity_automaton(IN))

    def test_shared_rhs_undeclared_head(self):
        rhs = Tree("f", (var(Q, 1), Tree("e")))
        rules = [Rule(Q, "a", 1, rhs), Rule(P, "a", 1, rhs)]
        with pytest.raises(ValidationError, match="rule head is not a declared state"):
            Transducer("m", IN, OUT, rules, Q, states=[Q])

    def test_shared_rhs_foreign_symbol(self):
        # the second rule's rhs was walked for the first; its own checks still run
        rhs = Tree("e")
        rules = [Rule(Q, "e", 0, rhs), Rule(Q, "b", 0, rhs)]
        with pytest.raises(ValidationError, match="^%s$" % re.escape("rule q(b): symbol not in the input alphabet")):
            Transducer("m", IN, OUT, rules, Q, states=[Q])


# every entry point that reads a machine as a plain transducer, given the
# look-ahead base `base` of the fixture quadratic_la, with the machines
# spine_la (which writes what `base` reads) and quad_out_id (which reads
# what `base` writes)
PLAIN_ENTRY_POINTS = {
    "translate": lambda base, ws: base.translate(t("a(a(e))")),
    "chain_outputs": lambda base, ws: chain_outputs(base, t("a(a(e))")),
    "check_functional_bounded": lambda base, ws: check_functional_bounded(base, 3),
    "decide_functionality": lambda base, ws: decide_functionality(base, 3),
    "CompositionChain": lambda base, ws: CompositionChain((base, ws.machines["quad_out_id"])),
    "domain_automaton": lambda base, ws: domain_automaton(base),
    "p_construction-t1": lambda base, ws: p_construction(base, ws.machines["quad_out_id"]),
    "p_construction-t2": lambda base, ws: p_construction(ws.machines["spine_la"], base),
    "build_hat_t1-t1": lambda base, ws: build_hat_t1(base, ws.machines["quad_out_id"]),
    "build_hat_t1-t2": lambda base, ws: build_hat_t1(ws.machines["spine_la"], base),
    "build_m-t1": lambda base, ws: build_m(base, ws.machines["quad_out_id"]),
    "build_m-t2": lambda base, ws: build_m(ws.machines["spine_la"], base),
    "compose_linear_nondeleting-t1": lambda base, ws: compose_linear_nondeleting(base, ws.machines["quad_out_id"]),
    "compose_linear_nondeleting-t2": lambda base, ws: compose_linear_nondeleting(ws.machines["spine_la"], base),
    "trace_derivation": lambda base, ws: trace_derivation(base, t("a(e)")),
}


class TestAnnotatedBase:
    """A look-ahead base is annotated, and no entry point that reads a
    plain transducer takes it, where each used to ignore its guards."""

    def test_annotated_is_read_off_the_rules(self, workspace, worked_pair):
        assert workspace.machines["quadratic_la"].base.annotated
        assert repr(workspace.machines["quadratic_la"].base) == "Transducer(quadratic_la: 2 states, 4 rules, annotated)"
        assert not workspace.machines["quadratic"].annotated
        m, _ = build_m(*worked_pair)
        assert m.base.annotated and not m.la.annotated

    @pytest.mark.parametrize("call", PLAIN_ENTRY_POINTS.values(), ids=PLAIN_ENTRY_POINTS.keys())
    def test_a_plain_entry_point_rejects_it(self, workspace, call):
        with pytest.raises(ValidationError, match=re.escape("Transducer(quadratic_la: 2 states, 4 rules, annotated)")):
            call(workspace.machines["quadratic_la"].base, workspace)

    def test_the_lookahead_transducer_is_checked_on_its_domain(self, workspace):
        """Its domain up to size 3 is e, a(e) and a(a(e))."""
        verdict = check_functional_bounded(workspace.machines["quadratic_la"], 3)
        assert verdict.functional and verdict.stats["inputs_checked"] == 3
