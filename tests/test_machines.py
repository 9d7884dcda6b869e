import re

import pytest

from ttc import (
    AlphabetMismatch,
    LookaheadTransducer,
    RankedAlphabet,
    Rule,
    StateId,
    Transducer,
    UnknownState,
    ValidationError,
    build_hat_t1,
    build_m,
    domain_automaton,
    enumerate_trees,
    p_construction,
)
from ttc.generate import random_chain3, random_pair
from ttc.machines import _evaluate, _label, enumerate_satisfying, least_fixpoint
from ttc.trees import NodeAddress, PlaceholderLeaf, StateOverNode, StateOverVariable, Tree, parse_tree

from .oracles import dom_member, identity_automaton, rewrite_translate, set_productive, translate_la_eager

t = parse_tree


def outs(trees):
    return sorted(x.text for x in trees)


class TestShapePredicates:
    def test_domain_automaton_is_automaton(self, worked_pair):
        _, t2 = worked_pair
        assert domain_automaton(t2).is_automaton()

    def test_quadratic_is_not_automaton(self, quadratic):
        assert not quadratic.is_automaton()

    def test_zero_rules_is_automaton(self, quadratic):
        empty = Transducer(
            "empty",
            quadratic.input_alphabet,
            quadratic.input_alphabet,
            [],
            quadratic.initial,
            states=[quadratic.initial],
        )
        assert empty.is_automaton()

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
        got = quadratic.evaluate(quadratic.initial, t("a(a(e))"))
        assert outs(got) == ["f(a(e),f(e,e))"]

    def test_three_way_leaf(self, copy_pair):
        t1, _ = copy_pair
        got = t1.evaluate(StateId.base("q1"), t("e"))
        assert outs(got) == ["e1", "e2", "e3"]

    def test_placeholder_yields_marker(self, quadratic):
        q = StateId.base("q")
        hole = Tree(PlaceholderLeaf("b"))
        v = NodeAddress((2, 1))
        got = quadratic.evaluate(q, hole, v)
        assert got == frozenset((Tree(StateOverNode(q, v)),))

    def test_marker_below_a_non_root_start(self, quadratic):
        # q(a(x1)) -> a(q(x1)) moves the state from node 2 onto the hole at 2.1
        q = StateId.base("q")
        tree = Tree("a", (Tree(PlaceholderLeaf("h")),))
        got = quadratic.evaluate(q, tree, at=NodeAddress((2,)))
        assert got == frozenset((Tree("a", (Tree(StateOverNode(q, NodeAddress((2, 1)))),)),))

    def test_foreign_symbol_in_partial_tree(self, quadratic):
        with pytest.raises(AlphabetMismatch):
            quadratic.evaluate(quadratic.initial, Tree("g", (Tree(PlaceholderLeaf("h")),)))

    def test_unknown_state(self, quadratic):
        with pytest.raises(UnknownState):
            quadratic.evaluate(StateId.base("nope"), t("e"))

    def test_repeated_marker_gets_distinct_addresses(self, worked_pair):
        # p1(f(x1,x2)) -> f(p1(x1),p1(x2)) meets the equal leaves q(x1) at
        # nodes 1 and 2; each must turn into a marker at its own address
        _, t2 = worked_pair
        p1 = StateId.base("p1")
        marker = Tree(StateOverVariable(StateId.base("q"), 1))
        got = t2.evaluate(p1, Tree("f", (marker, marker)))
        want = Tree("f", (Tree(StateOverNode(p1, NodeAddress((1,)))), Tree(StateOverNode(p1, NodeAddress((2,))))))
        assert got == frozenset((want,))


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
            for s in enumerate_trees(machine.input_alphabet, 4):
                assert machine.translate(s) == frozenset(rewrite_translate(machine, s)), (
                    machine.name,
                    s.text,
                )


class TestDomains:
    def test_copy_t2_rejects_e3_under_q2p(self, copy_pair):
        _, t2 = copy_pair
        assert not dom_member(t2, StateId.base("q2'"), t("e3"))
        assert dom_member(t2, StateId.base("q2''"), t("e3"))

    def test_unknown_state(self, quadratic):
        nope = StateId.base("nope")
        for call in (
            lambda: quadratic.evaluate(nope, t("e")),
            lambda: quadratic.dom_empty(nope),
            lambda: quadratic.enumerate_domain(nope, 3),
        ):
            with pytest.raises(UnknownState):
                call()

    def test_quadratic_domain_is_everything(self, quadratic):
        for s in enumerate_trees(quadratic.input_alphabet, 6):
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
        assert [s.text for s in smaller.enumerate_domain(smaller.initial, 6)] == ["e"]

    def test_dom_member_iff_translation_nonempty(self, quadratic, copy_pair, del_pair, worked_pair):
        machines = [quadratic, *copy_pair, *del_pair, *worked_pair]
        for machine in machines:
            for s in enumerate_trees(machine.input_alphabet, 6):
                for q in sorted(machine.states):
                    assert dom_member(machine, q, s) == bool(
                        machine.evaluate(q, s)
                    ), (machine.name, q.name, s.text)

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
        assert bigger.dom_empty(extra)
        assert not bigger.dom_empty(quadratic.initial)

    def test_deleting_pair_set_state_is_empty(self, del_pair):
        t1, t2 = del_pair
        hat = build_hat_t1(t1, t2)
        members = frozenset(
            s for s in hat.states if s.name in ("(q1'',{})", "(q1''',{})")
        )
        assert len(members) == 2
        seeds = [members] + [frozenset([m]) for m in members]
        aut = domain_automaton(hat, seeds=seeds)
        both = StateId.of_set(members)
        assert aut.dom_empty(both)
        # each branch checker alone is satisfiable
        for m in members:
            assert not aut.dom_empty(StateId.of_set([m]))

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
            inhabited = []
            for q in sorted(machine.states):
                empty = machine.dom_empty(q)
                assert empty == (not set_productive(machine, {q})), (machine.name, q.name)
                queries += 1
                if not empty:
                    inhabited.append(q)
            if len(inhabited) >= 2:
                members = frozenset(inhabited[:2])
                aut = domain_automaton(machine, seeds=[members])
                children = [[l.name for req in r.child_states for l in req] for r in aut.rules]
                live = least_fixpoint([r.state.name for r in aut.rules], children)
                assert (StateId.of_set(members).name in live) == set_productive(machine, members), machine.name
                queries += 1
                empty_pairs += StateId.of_set(members).name not in live
        assert queries >= 5000
        # some pairs of inhabited states share no tree: intersection, not union
        assert empty_pairs > 0

    def test_dom_empty_iff_enumeration_empty(self, quadratic, copy_pair, del_pair):
        machines = [quadratic, *copy_pair, *del_pair]
        for machine in machines:
            for q in sorted(machine.states):
                assert machine.dom_empty(q) == (machine.enumerate_domain(q, 6) == []), (
                    machine.name,
                    q.name,
                )


class TestEnumerateDomain:
    def test_copy_t1_small(self, copy_pair):
        t1, _ = copy_pair
        got = t1.enumerate_domain(StateId.base("q1"), 2)
        assert [s.text for s in got] == ["e", "a(e)"]

    def test_quadratic_small(self, quadratic):
        got = quadratic.enumerate_domain(quadratic.initial, 2)
        assert [s.text for s in got] == ["e", "a(e)"]

    def test_empty_domain_state(self, del_pair):
        t1, _ = del_pair
        # q1 itself: needs x2 with leftmost leaf both e and c, impossible
        assert t1.enumerate_domain(t1.initial, 6) == []

    def test_matches_dom_member_filter(self, worked_pair):
        t1, _ = worked_pair
        everything = enumerate_trees(t1.input_alphabet, 5)
        expected = [s for s in everything if dom_member(t1, t1.initial, s)]
        assert t1.enumerate_domain(t1.initial, 5) == expected


class TestLookaheadSemantics:
    def test_deleting_m_is_empty(self, del_pair):
        m, _ = build_m(*del_pair)
        for s in enumerate_trees(m.input_alphabet, 5):
            assert m.translate_la(s) == frozenset()

    def test_worked_m_outputs(self, worked_pair):
        m, _ = build_m(*worked_pair)
        assert outs(m.translate_la(t("f(e,d)"))) == ["d"]
        assert outs(m.translate_la(t("f(e,e)"))) == ["f(e,e)"]

    def test_lazy_agrees_with_eager(self, copy_pair, del_pair, worked_pair):
        for pair in (copy_pair, del_pair, worked_pair):
            m, _ = build_m(*pair)
            for s in enumerate_trees(m.input_alphabet, 5):
                assert m.translate_la(s) == translate_la_eager(m, s), (m.name, s.text)

    def test_hand_written_lookahead(self, workspace):
        m = workspace.machines["quadratic_la"]
        assert isinstance(m, LookaheadTransducer)
        assert outs(m.translate_la(t("a(a(e))"))) == ["f(a(e),f(e,e))"]

    def test_la_domain_enumeration(self, worked_pair):
        m, _ = build_m(*worked_pair)
        enumerated = set(m.enumerate_domain(5))
        for s in enumerate_trees(m.input_alphabet, 5):
            assert (s in enumerated) == bool(m.translate_la(s))

    def test_monotone_lookahead(self, copy_pair, worked_pair):
        # bigger state sets have smaller domains
        for _, t2 in (copy_pair, worked_pair):
            aut = domain_automaton(t2)
            sets = [s for s in aut.states if s.kind == "set"]
            trees = enumerate_trees(t2.input_alphabet, 5)
            for small in sets:
                for big in sets:
                    if set(small.parts) <= set(big.parts):
                        for s in trees:
                            if dom_member(aut, big, s):
                                assert dom_member(aut, small, s)


class TestSubtreeClasses:
    """The class of a subtree: `accepts` is exactly the look-ahead states whose
    domain holds it, by the top-down membership reference in `oracles`, which
    the package does not use, and each state in `one` has exactly one output
    on it."""

    @staticmethod
    def check_classes(base, la, trees, tag):
        memo, table, classes = {}, {}, []
        states = {q.name: q for q in base.states}
        singles = 0
        for s in trees:
            accepts, one = classes[_label(base, la, s, memo, table, classes)]
            if la is None:
                assert accepts == frozenset(), (tag, s.text)
            else:
                member = {l.name for l in la.states if dom_member(la, l, s)}
                assert accepts == member, (tag, s.text)
            for name in one:
                assert len(_evaluate(base, states[name], s, None, {}, memo, classes)) == 1, (tag, s.text, name)
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
            singles += self.check_classes(m.base, m.la, self.subtrees(m.enumerate_domain(6)), seed)
        assert singles > 300  # 408 (subtree, state) pairs in `one`: not vacuous

    def test_plain_machines(self, workspace):
        plain = [m for m in workspace.machines.values() if isinstance(m, Transducer)]
        for seed in range(50):
            plain += random_pair(seed)
        for m in plain:
            self.check_classes(m, None, enumerate_trees(m.input_alphabet, 5), m.name)


class TestRequirementEnumeration:
    def test_intersection_of_two_states(self, copy_pair):
        _, t2 = copy_pair
        q2p, q2pp = StateId.base("q2'"), StateId.base("q2''")
        both = enumerate_satisfying(t2.input_alphabet, [(t2, q2p), (t2, q2pp)], 3)
        texts = [s.text for s in both]
        assert "e3" not in texts and "e1" in texts and "e2" in texts

    def test_unconstrained_counts(self, quadratic):
        got = enumerate_trees(quadratic.input_alphabet, 4)
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
    def test_variable_beyond_the_rank(self):
        with pytest.raises(ValidationError, match=re.escape("rule q(a(x1)): variable x2 out of range [1]")):
            Rule(Q, "a", 1, Tree("f", (var(Q, 1), var(Q, 2))))

    def test_variable_zero(self):
        with pytest.raises(ValidationError, match=re.escape("rule q(a(x1)): variable x0 out of range [1]")):
            Rule(Q, "a", 1, var(Q, 0))

    def test_given_child_states_skip_the_walk_but_not_the_check(self):
        # a rule given its child states is made without looking at its rhs;
        # the machine that holds it still rejects x3 under a rank-2 symbol
        rule = Rule(Q, "f", 2, Tree("f", (var(Q, 1), var(Q, 3))), child_states=(frozenset({Q}), frozenset()))
        assert rule == Rule(Q, "f", 2, rule.rhs, child_states=())
        assert "child_states" not in repr(rule)
        with pytest.raises(ValidationError, match="^%s$" % re.escape("rule q(f(x1,x2)): variable x3 out of range [2]")):
            Transducer("m", OUT, OUT, [GOOD, rule], Q, states=[Q])

    def test_shared_rhs_is_checked_per_variable_count(self):
        rhs = Tree("f", (var(Q, 1), Tree("e")))
        rules = [Rule(Q, "a", 1, rhs), Rule(Q, "e", 0, rhs, child_states=())]
        with pytest.raises(ValidationError, match="^%s$" % re.escape("rule q(e): variable x1 out of range [0]")):
            Transducer("m", IN, OUT, rules, Q, states=[Q])


class TestValidate:
    @pytest.mark.parametrize(
        "rule, message",
        [
            (Rule(Q, "a", 1, Tree("f", (var(P, 1), Tree("e")))), "rule q(a(x1)): rhs uses undeclared state p"),
            (Rule(Q, "a", 1, Tree(StateOverNode(Q, NodeAddress((1,))))), "rule q(a(x1)): unexpected marker q(1) in rhs"),
            (Rule(Q, "a", 1, Tree(PlaceholderLeaf("h"))), "rule q(a(x1)): unexpected marker ?h in rhs"),
            (Rule(Q, "a", 1, Tree("f", (var(Q, 1), Tree("g")))), "rule q(a(x1)): rhs symbol g not in the output alphabet"),
            (Rule(Q, "a", 1, Tree("f", (var(Q, 1),))), "rule q(a(x1)): symbol f has rank 2 but 1 children"),
            (Rule(Q, "b", 0, Tree("e")), "rule q(b): symbol not in the input alphabet"),
            (Rule(Q, "a", 0, Tree("e")), "rule q(a): symbol rank differs from variable count"),
            (Rule(Q, "a", 1, var(Q, 1), lookahead=(L,)), "rule q(a(x1:l)): look-ahead annotations on a plain transducer"),
        ],
        ids=["undeclared-state", "node-marker", "placeholder", "output-symbol", "rhs-rank", "input-symbol", "variable-count", "annotations"],
    )
    def test_rule_failure_names_the_rule(self, rule, message):
        with pytest.raises(ValidationError, match="^%s$" % re.escape(message)):
            Transducer("m", IN, OUT, [GOOD, rule], Q, states=[Q])

    def test_missing_annotations(self):
        rule = Rule(Q, "a", 1, var(Q, 1))
        good = Rule(Q, "e", 0, Tree("e"), lookahead=())
        message = "rule q(a(x1)): expected one look-ahead state per variable"
        with pytest.raises(ValidationError, match="^%s$" % re.escape(message)):
            Transducer("m", IN, OUT, [good, rule], Q, states=[Q], _annotated=True)

    def test_unknown_annotation_names_the_rule(self):
        # such a rule is dead, so the trim would drop it without a word
        ghost = StateId.base("ghost")
        rules = [Rule(Q, "e", 0, Tree("e"), lookahead=()), Rule(Q, "a", 1, Tree("f", (var(Q, 1), var(Q, 1))), lookahead=(ghost,))]
        base = Transducer("m", IN, OUT, rules, Q, states=[Q], _annotated=True)
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
