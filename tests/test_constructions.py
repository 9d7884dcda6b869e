import importlib.util
import pathlib
import re
import sys

import pytest

from ttc import (
    ChainTooShort,
    ResourceLimit,
    CompositionChain,
    LookaheadTransducer,
    NotLinearNondeleting,
    RankedAlphabet,
    Rule,
    StateId,
    Transducer,
    ValidationError,
    build_hat_t1,
    build_m,
    chain_outputs,
    compose_linear_nondeleting,
    decide_functionality,
    decompose_la,
    domain_automaton,
    enumerate_trees,
    p_construction,
    parse_workspace,
    reduce_chain,
)
from ttc import constructions, machines
from ttc.generate import random_chain3, random_pair
from ttc.render import serialize_machine
from ttc.trees import StateOverVariable, Tree, parse_tree

from . import pair_properties
from .oracles import (
    domain_automaton_by_subsets,
    identity_automaton,
    p_construction_by_evaluate,
    trim_lookahead_by_rebuild,
    wrap_trivial_lookahead,
)

t = parse_tree

PERFBENCH = pathlib.Path(__file__).parent.parent / "perfbench"


def rule_strings(machine):
    return {str(r) for r in machine.rules}


def product_n(t1, t2):
    """The triple product N, as `build_m` reports it."""
    _, reports = build_m(t1, t2)
    return next(r.machine for r in reports if r.label == "triple-product")


# --- the worked pair: golden rule listings -----------------------------------

A_EXPECTED = {
    "{p0}(f(x1,x2)) -> f({p1,p2}(x1),{}(x2))",
    "{p0}(d) -> d",
    "{p1,p2}(f(x1,x2)) -> f({p1,p2}(x1),{p1,p2}(x2))",
    "{p1,p2}(e) -> e",
    "{p1,p2}(d) -> d",
    "{}(f(x1,x2)) -> f({}(x1),{}(x2))",
    "{}(f'(x1,x2)) -> f'({}(x1),{}(x2))",
    "{}(e) -> e",
    "{}(d) -> d",
}

HAT_EXPECTED = {
    "(q0,{p0})(f(x1,x2)) -> f((q1,{p1,p2})(x1),(q2,{})(x2))",
    "(q0,{p0})(f(x1,x2)) -> (q3,{p0})(x2)",
    "(q1,{})(f(x1,x2)) -> f((q1,{})(x1),(q1,{})(x2))",
    "(q1,{})(f(x1,x2)) -> f'((q1,{})(x1),(q1,{})(x2))",
    "(q1,{})(e) -> e",
    "(q1,{})(d) -> d",
    "(q1,{p1,p2})(f(x1,x2)) -> f((q1,{p1,p2})(x1),(q1,{p1,p2})(x2))",
    "(q1,{p1,p2})(e) -> e",
    "(q1,{p1,p2})(d) -> d",
    "(q2,{})(f(x1,x2)) -> f((q2,{})(x1),(q1,{})(x2))",
    "(q2,{})(f(x1,x2)) -> f'((q2,{})(x1),(q1,{})(x2))",
    "(q2,{})(e) -> e",
    "(q3,{p0})(d) -> d",
}

N_EXPECTED = {
    "(q0,{p0},p0)(f(x1,x2)) -> f((q1,{p1,p2},p1)(x1),(q1,{p1,p2},p2)(x1))",
    "(q0,{p0},p0)(f(x1,x2)) -> (q3,{p0},p0)(x2)",
    "(q1,{p1,p2},p1)(f(x1,x2)) -> f((q1,{p1,p2},p1)(x1),(q1,{p1,p2},p1)(x2))",
    "(q1,{p1,p2},p1)(e) -> e",
    "(q1,{p1,p2},p1)(d) -> d",
    "(q1,{p1,p2},p2)(f(x1,x2)) -> f((q1,{p1,p2},p2)(x1),(q1,{p1,p2},p2)(x2))",
    "(q1,{p1,p2},p2)(e) -> e",
    "(q1,{p1,p2},p2)(d) -> d",
    "(q3,{p0},p0)(d) -> d",
}

AHAT_EXPECTED = {
    "{(q0,{p0})}(f(x1,x2)) -> f({(q1,{p1,p2})}(x1),{(q2,{})}(x2))",
    "{(q0,{p0})}(f(x1,x2)) -> f({}(x1),{(q3,{p0})}(x2))",
    "{(q1,{})}(f(x1,x2)) -> f({(q1,{})}(x1),{(q1,{})}(x2))",
    "{(q1,{})}(e) -> e",
    "{(q1,{})}(d) -> d",
    "{(q1,{p1,p2})}(f(x1,x2)) -> f({(q1,{p1,p2})}(x1),{(q1,{p1,p2})}(x2))",
    "{(q1,{p1,p2})}(e) -> e",
    "{(q1,{p1,p2})}(d) -> d",
    "{(q2,{})}(f(x1,x2)) -> f({(q2,{})}(x1),{(q1,{})}(x2))",
    "{(q2,{})}(e) -> e",
    "{(q3,{p0})}(d) -> d",
    "{}(f(x1,x2)) -> f({}(x1),{}(x2))",
    "{}(e) -> e",
    "{}(d) -> d",
}

M_EXPECTED = {
    "(q0,{p0},p0)(f(x1:{(q1,{p1,p2})},x2:{(q2,{})})) -> f((q1,{p1,p2},p1)(x1),(q1,{p1,p2},p2)(x1))",
    "(q0,{p0},p0)(f(x1:{},x2:{(q3,{p0})})) -> (q3,{p0},p0)(x2)",
    "(q1,{p1,p2},p1)(f(x1:{(q1,{p1,p2})},x2:{(q1,{p1,p2})})) -> f((q1,{p1,p2},p1)(x1),(q1,{p1,p2},p1)(x2))",
    "(q1,{p1,p2},p1)(e) -> e",
    "(q1,{p1,p2},p1)(d) -> d",
    "(q1,{p1,p2},p2)(f(x1:{(q1,{p1,p2})},x2:{(q1,{p1,p2})})) -> f((q1,{p1,p2},p2)(x1),(q1,{p1,p2},p2)(x2))",
    "(q1,{p1,p2},p2)(e) -> e",
    "(q1,{p1,p2},p2)(d) -> d",
    "(q3,{p0},p0)(d) -> d",
}


class TestWorkedPairGolden:
    def test_domain_automaton(self, worked_pair):
        _, t2 = worked_pair
        aut = domain_automaton(t2)
        assert rule_strings(aut) == A_EXPECTED
        assert aut.initial.name == "{p0}"
        assert aut.is_automaton()

    def test_hat(self, worked_pair):
        hat = build_hat_t1(*worked_pair)
        assert rule_strings(hat) == HAT_EXPECTED
        assert hat.initial.name == "(q0,{p0})"

    def test_n(self, worked_pair):
        n = product_n(*worked_pair)
        assert rule_strings(n) == N_EXPECTED
        assert n.initial.name == "(q0,{p0},p0)"
        # triple states whose last component escapes the set never appear
        assert not any(",p0)" in s.name and "{p1,p2}" in s.name for s in n.states)

    def test_lookahead_automaton(self, worked_pair):
        m, _ = build_m(*worked_pair)
        assert rule_strings(m.la) == AHAT_EXPECTED
        # the merged-subset child {(q2,{}),(q3,{p0})} has no rules, so the
        # rule targeting it is pruned away with it
        assert not any("(q2,{}),(q3,{p0})" in s.name for s in m.la.states)

    def test_m(self, worked_pair):
        m, _ = build_m(*worked_pair)
        assert rule_strings(m.base) == M_EXPECTED
        assert m.base.initial.name == "(q0,{p0},p0)"

    def test_reports_cover_states(self, worked_pair):
        _, reports = build_m(*worked_pair)
        assert [r.label for r in reports] == [
            "domain-automaton",
            "restricted-first",
            "triple-product",
            "look-ahead-automaton",
            "look-ahead-transducer",
        ]
        for rep in reports:
            machine = rep.machine
            states = (
                machine.base.states | machine.la.states
                if hasattr(machine, "base")
                else machine.states
            )
            assert set(rep.provenance) >= states


class TestDomainAutomaton:
    def test_copy_example_rules(self, copy_pair):
        _, t2 = copy_pair
        aut = domain_automaton(t2)
        rules = rule_strings(aut)
        assert "{q2}(b(x1)) -> b({q2',q2''}(x1))" in rules
        assert "{q2',q2''}(e1) -> e1" in rules
        assert "{q2',q2''}(e2) -> e2" in rules
        assert "{q2',q2''}(e3) -> e3" not in rules

    def test_multiple_instances_need_subsets(self):
        # two instances of the initial state can process a node differently,
        # so the union of their variable states must label the children
        sigma = RankedAlphabet({"a": 1, "f": 2, "e": 0})
        delta = RankedAlphabet({"a": 1, "f": 2, "e": 0, "e'": 0})
        q0, q = StateId.base("q0"), StateId.base("q")
        sv = lambda s, i: Tree(StateOverVariable(s, i))
        rules = [
            Rule(q0, "a", 1, Tree("f", (sv(q0, 1), sv(q0, 1)))),
            Rule(q0, "f", 2, sv(q0, 1)),
            Rule(q0, "f", 2, Tree("f", (sv(q, 1), sv(q, 2)))),
            Rule(q0, "e", 0, Tree("e")),
            Rule(q, "a", 1, Tree("e'")),
            Rule(q, "f", 2, Tree("e'")),
            Rule(q, "e", 0, Tree("e'")),
        ]
        machine = Transducer("multi", sigma, delta, rules, q0)
        aut = domain_automaton(machine)
        assert "{q0}(f(x1,x2)) -> f({q,q0}(x1),{q}(x2))" in rule_strings(aut)
        pair_properties.domain_automaton_tracks_intersections(machine, 4)

    def test_ground_rhs_collapse(self):
        sigma = RankedAlphabet({"a": 1, "e": 0})
        delta = RankedAlphabet({"k": 0, "k'": 0})
        q0 = StateId.base("q0")
        rules = [
            Rule(q0, "a", 1, Tree("k")),
            Rule(q0, "a", 1, Tree("k'")),
            Rule(q0, "e", 0, Tree("k")),
        ]
        machine = Transducer("ground", sigma, delta, rules, q0)
        aut = domain_automaton(machine)
        assert rule_strings(aut) == {
            "{q0}(a(x1)) -> a({}(x1))",
            "{q0}(e) -> e",
            "{}(a(x1)) -> a({}(x1))",
            "{}(e) -> e",
        }


class TestDomainAutomatonReference:
    """The fold-merged construction against the subset walk of the oracles."""

    def test_fixture_machines(self, workspace):
        for machine in workspace.machines.values():
            if not isinstance(machine, Transducer):
                continue
            assert rule_strings(domain_automaton(machine)) == rule_strings(domain_automaton_by_subsets(machine))

    def test_both_automata_of_build_m(self, monkeypatch, worked_pair, copy_pair, del_pair):
        calls = []
        original = constructions.domain_automaton

        def spy(t, seeds=(), name=None):
            seeds = list(seeds)
            calls.append((t, seeds, original(t, seeds, name)))
            return calls[-1][2]

        monkeypatch.setattr(constructions, "domain_automaton", spy)
        for pair in [worked_pair, copy_pair, del_pair] + [random_pair(seed) for seed in range(200)]:
            calls.clear()
            build_m(*pair)
            # dom(t2), then the look-ahead automaton over hat, seeded
            assert len(calls) == 2
            for t, seeds, got in calls:
                want = domain_automaton_by_subsets(t, seeds)
                assert rule_strings(got) == rule_strings(want), (t.name, pair[0].name)
                assert {s.name for s in got.states} == {s.name for s in want.states}

    def test_rule_cap_stops_the_merge(self, monkeypatch, doubled_rotation):
        # without the cap, the look-ahead automaton of k=3 reaches the
        # default RULE_CAP only after seconds of merging
        monkeypatch.setattr(constructions, "RULE_CAP", 1000)
        with pytest.raises(ResourceLimit, match="domain automaton exceeds 1000 rules"):
            build_m(*doubled_rotation(3))
        m, _ = build_m(*doubled_rotation(2))
        assert len(m.la.rules) < 1000


def listing(result):
    """Rule strings in order, and the (rule string, source rule) pairing."""
    machine, sources = result
    return [str(r) for r in machine.rules], [(str(r), id(src)) for r, src in sources], machine.initial


def reference_pairs(workspace):
    pairs = [chain.stages for chain in workspace.chains.values() if len(chain) == 2]
    return pairs + [random_pair(seed) for seed in range(200)]


class TestConstructionReference:
    """The product construction and the domain automaton against the oracles'
    per-(pair, rule) `evaluate` loop, by listings and by counts."""

    def test_hat_and_triple_product(self, workspace):
        for t1, t2 in reference_pairs(workspace):
            aut = domain_automaton(t2)
            hat = p_construction(t1, aut, name="hat")
            assert listing(hat) == listing(p_construction_by_evaluate(t1, aut, name="hat")), t1.name
            args = (hat[0], t2, constructions._triple_state, constructions._triple_filter)
            assert listing(p_construction(*args)) == listing(p_construction_by_evaluate(*args)), t1.name

    def test_domain_automata_share_and_walk_each_rhs_once(self, monkeypatch, workspace):
        automata = []
        original = constructions.domain_automaton

        def spy(t, seeds=(), name=None):
            automata.append(original(t, seeds, name))
            return automata[-1]

        monkeypatch.setattr(constructions, "domain_automaton", spy)
        for pair in reference_pairs(workspace):
            build_m(*pair)
        monkeypatch.undo()

        walks = []
        check_rhs = machines._check_rhs

        def counting(rhs, *args):
            walks.append(rhs)
            return check_rhs(rhs, *args)

        monkeypatch.setattr(machines, "_check_rhs", counting)
        rules = distinct = 0
        for aut in automata:
            by_text = {}
            for r in aut.rules:
                by_text.setdefault((r.symbol, r.rhs.text), set()).add(id(r.rhs))
            assert all(len(ids) == 1 for ids in by_text.values()), aut.name
            walks.clear()
            Transducer(aut.name, aut.input_alphabet, aut.output_alphabet, aut.rules, aut.initial, states=aut.states)
            assert len(walks) == len(by_text) == len({id(r.rhs) for r in aut.rules}), aut.name
            rules += len(aut.rules)
            distinct += len(by_text)
        assert len(automata) == 2 * len(reference_pairs(workspace))
        assert distinct < rules


def built_machines(workspace):
    """Every machine that build_m and reduce_chain build on the reference
    pairs and on 50 seeded three-stage chains, by (label, machine)."""
    built = []
    for pair in reference_pairs(workspace):
        m, reports = build_m(*pair)
        built += [(r.label, r.machine) for r in reports[:-1]]
        built += [("M base", m.base), ("M look-ahead", m.la)]
        built += zip(("R", "T"), decompose_la(m))
    for seed in range(50):
        reduced, reports = reduce_chain(random_chain3(seed))
        built += [(r.label, r.machine) for r in reports[:-1]]
        built += [("fused", reduced.stages[-2]), ("reader", reduced.stages[-1])]
    return built


class TestGivenChildStates:
    """Constructions give their rules the child states they already know,
    instead of walking each rhs again; the result must equal the walk."""

    def test_every_built_rule_matches_the_walk(self, workspace):
        for label, machine in built_machines(workspace):
            for r in machine.rules:
                assert r.child_states == machines._child_states(r), (label, machine.name, str(r))

    @pytest.fixture
    def walks(self, monkeypatch):
        """The rules whose rhs is walked, with whether a p-construction was
        running at the time."""
        walked = []
        inside = []
        walk, product = machines._child_states, constructions.p_construction

        def counting(rule):
            walked.append((rule, bool(inside)))
            return walk(rule)

        def in_product(*args, **kwargs):
            inside.append(True)
            try:
                return product(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(machines, "_child_states", counting)
        monkeypatch.setattr(constructions, "p_construction", in_product)
        return walked

    def test_domain_automaton_walks_no_rhs(self, workspace, walks):
        for t1, t2 in reference_pairs(workspace):
            hat = build_hat_t1(t1, t2)
            seeds = [frozenset(req) for r in hat.rules for req in r.child_states]
            walks.clear()
            aut = domain_automaton(t2)
            la = domain_automaton(hat, seeds=seeds)
            assert walks == [], (t1.name, t2.name)
            assert aut.rules and la.rules

    def test_build_m_walks_only_new_product_rules(self, workspace, walks):
        for pair in reference_pairs(workspace):
            walks.clear()
            m, reports = build_m(*pair)
            assert all(inside for _, inside in walks), [str(r) for r, inside in walks if not inside]
            walked = {id(r) for r, _ in walks}
            for report in reports[1:3]:  # hat and N come from p_construction
                assert all(id(r) in walked for r in report.machine.rules), report.label

    def test_rotation_check_walk_count(self, monkeypatch):
        """One benchmark rotation-check operation (parse, then decide) walks
        291 right-hand sides: those of the parsed rules and of the
        p-construction's new rules.  It walked 1,717 when every rule did."""
        spec = importlib.util.spec_from_file_location("bench_workspaces", PERFBENCH / "workspaces.py")
        bench = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, bench)
        spec.loader.exec_module(bench)
        walks = []
        walk = machines._child_states
        monkeypatch.setattr(machines, "_child_states", lambda rule: walks.append(rule) or walk(rule))
        for ws in bench.rotation(1):
            verdict, _ = decide_functionality(parse_workspace(ws.text).chains[ws.chain], ws.bound)
            assert verdict.status == "not-functional"
        assert len(walks) <= 291


class TestPConstruction:
    def test_copying_naive_product(self, copy_pair):
        n, _ = p_construction(*copy_pair)
        assert rule_strings(n) == {
            "(q1,q2)(a(x1)) -> f((q1,q2')(x1),(q1,q2'')(x1))",
            "(q1,q2')(e) -> e",
            "(q1,q2'')(e) -> e",
            "(q1,q2'')(e) -> e'",
        }

    def test_deleting_naive_product(self, del_pair):
        n, _ = p_construction(*del_pair)
        assert rule_strings(n) == {
            "(q1,q2)(a(x1,x2)) -> (q1',q2)(x1)",
            "(q1',q2)(e) -> e1",
            "(q1',q2)(e) -> e2",
        }
        assert sorted(x.text for x in n.translate(t("a(e,e)"))) == ["e1", "e2"]

    def test_identity_second_component(self, quadratic):
        ident = identity_automaton(quadratic.output_alphabet)
        paired, _ = p_construction(quadratic, ident)
        assert len(paired.rules) == len(quadratic.rules)
        for s in enumerate_trees(quadratic.input_alphabet, 6):
            assert paired.translate(s) == quadratic.translate(s)


class TestHat:
    def test_copying_excludes_e3(self, copy_pair):
        hat = build_hat_t1(*copy_pair)
        assert rule_strings(hat) == {
            "(q1,{q2})(a(x1)) -> b((q1,{q2',q2''})(x1))",
            "(q1,{q2',q2''})(e) -> e1",
            "(q1,{q2',q2''})(e) -> e2",
        }

    def test_empty_translation_stays_empty(self, del_pair):
        hat = build_hat_t1(*del_pair)
        assert hat.dom_empty(hat.initial)


class TestProductN:
    def test_copying_triple_product(self, copy_pair):
        n = product_n(*copy_pair)
        assert rule_strings(n) == {
            "(q1,{q2},q2)(a(x1)) -> f((q1,{q2',q2''},q2')(x1),(q1,{q2',q2''},q2'')(x1))",
            "(q1,{q2',q2''},q2')(e) -> e",
            "(q1,{q2',q2''},q2'')(e) -> e",
        }


class TestBuildM:
    def test_copying_m_translation(self, copy_pair):
        m, _ = build_m(*copy_pair)
        assert sorted(x.text for x in m.translate_la(t("a(e)"))) == ["f(e,e)"]

    def test_deleting_m_rule_is_dead(self, del_pair):
        m, reports = build_m(*del_pair)
        # the only a-rule needed the empty-domain look-ahead state for x2,
        # so it is pruned with it and the whole translation is empty
        assert m.base.rules == ()
        final = reports[-1]
        assert final.states_before > final.states_after
        for s in enumerate_trees(m.input_alphabet, 5):
            assert m.translate_la(s) == frozenset()

    def test_identity_single_symbol(self):
        alpha = RankedAlphabet({"c": 0})
        q = StateId.base("q")
        ident = Transducer("one", alpha, alpha, [Rule(q, "c", 0, Tree("c"))], q)
        m, _ = build_m(ident, ident)
        assert m.translate_la(t("c")) == frozenset((t("c"),))

    def test_identity_transducer_pair(self, quadratic):
        ident = identity_automaton(quadratic.input_alphabet, name="id_in")
        m, _ = build_m(ident, ident)
        for s in enumerate_trees(quadratic.input_alphabet, 4):
            assert m.translate_la(s) == frozenset((s,))


class TestDecomposeLa:
    @staticmethod
    def composed(relabeling, reader, s):
        out = set()
        for mid in relabeling.translate(s):
            out |= reader.translate(mid)
        return frozenset(out)

    def test_contract_on_worked_pair(self, worked_pair):
        m, _ = build_m(*worked_pair)
        relabeling, reader = decompose_la(m)
        assert relabeling.is_linear_nondeleting()
        assert self.composed(relabeling, reader, t("f(e,d)")) == frozenset((t("d"),))
        for s in enumerate_trees(m.input_alphabet, 4):
            assert self.composed(relabeling, reader, s) == m.translate_la(s), s.text

    def test_contract_on_deleting_pair(self, del_pair):
        m, _ = build_m(*del_pair)
        relabeling, reader = decompose_la(m)
        for s in enumerate_trees(m.input_alphabet, 4):
            assert self.composed(relabeling, reader, s) == frozenset()

    def test_universal_lookahead(self, quadratic):
        m = wrap_trivial_lookahead(quadratic)
        relabeling, reader = decompose_la(m)
        # every symbol is relabeled with the single universal state
        for rule in relabeling.rules:
            assert all(a.name == "u" for a in rule.rhs.label.annotations)
        for s in enumerate_trees(quadratic.input_alphabet, 5):
            assert self.composed(relabeling, reader, s) == quadratic.translate(s)


class TestFuse:
    def test_rejects_copying_second(self, copy_pair):
        with pytest.raises(NotLinearNondeleting):
            compose_linear_nondeleting(copy_pair[0], copy_pair[1])

    def test_identity_fusion(self, quadratic):
        fused = compose_linear_nondeleting(quadratic, identity_automaton(quadratic.output_alphabet))
        for s in enumerate_trees(quadratic.input_alphabet, 6):
            assert fused.translate(s) == quadratic.translate(s)

    def test_relabeling_fusion_matches_chain(self, worked_pair):
        m, _ = build_m(*worked_pair)
        relabeling, reader = decompose_la(m)
        ident = identity_automaton(worked_pair[0].input_alphabet, name="id_sigma")
        fused = compose_linear_nondeleting(ident, relabeling)
        for s in enumerate_trees(ident.input_alphabet, 4):
            direct = chain_outputs(CompositionChain((ident, relabeling)), s)
            assert fused.translate(s) == direct


class TestReduceChain:
    @staticmethod
    def singleton_profile(chain, size):
        first = chain.stages[0]
        return {
            s.text: min(len(chain_outputs(chain, s)), 2)
            for s in enumerate_trees(first.input_alphabet, size)
        }

    def test_worked_three_chain(self, worked_pair):
        ident = identity_automaton(worked_pair[0].input_alphabet, name="id0")
        chain = CompositionChain((ident, *worked_pair))
        reduced, _ = reduce_chain(chain)
        assert len(reduced) == 2
        assert self.singleton_profile(chain, 5) == self.singleton_profile(reduced, 5)

    def test_deleting_three_chain_is_empty(self, del_pair):
        ident = identity_automaton(del_pair[0].input_alphabet, name="id0")
        chain = CompositionChain((ident, *del_pair))
        reduced, _ = reduce_chain(chain)
        for s in enumerate_trees(ident.input_alphabet, 4):
            assert chain_outputs(reduced, s) == frozenset()

    def test_identity_three_chain(self, quadratic):
        ident = identity_automaton(quadratic.input_alphabet, name="id0")
        chain = CompositionChain((ident, ident, ident))
        reduced, _ = reduce_chain(chain)
        assert len(reduced) == 2
        for s in enumerate_trees(ident.input_alphabet, 5):
            assert chain_outputs(reduced, s) == frozenset((s,))

    def test_too_short(self, worked_pair):
        with pytest.raises(ChainTooShort):
            reduce_chain(CompositionChain(worked_pair))


class TestPrune:
    def test_lookahead_prune_is_idempotent(self, worked_pair):
        m, _ = build_m(*worked_pair)
        again = LookaheadTransducer(m.base, m.la)
        assert rule_strings(again.base) == rule_strings(m.base)
        assert rule_strings(again.la) == rule_strings(m.la)
        assert again.base.states == m.base.states
        assert again.la.states == m.la.states


def trimmed_machines():
    """M of `random_pair` seeds 0-199 and of the reduced `random_chain3`
    seeds 0-199."""
    for seed in range(200):
        yield build_m(*random_pair(seed))[0]
        reduced, _ = reduce_chain(random_chain3(seed))
        yield build_m(*reduced.stages)[0]


def counts(m):
    return len(m.base.states), len(m.base.rules), len(m.la.states), len(m.la.rules)


class TestTrim:
    """The one-pass trim of `LookaheadTransducer` against the oracles'
    two-build trim, by listings and by counts."""

    def test_retrim_and_round_trip_keep_the_counts(self):
        for m in trimmed_machines():
            assert counts(LookaheadTransducer(m.base, m.la)) == counts(m), m.name
            parsed = parse_workspace(serialize_machine(m, name="m")).machines["m"]
            assert counts(parsed) == counts(m), m.name

    def test_matches_the_rebuild(self, monkeypatch, workspace):
        cases = []
        original = machines._trim_lookahead

        def spy(base, la):
            cases.append((base, la, original(base, la)))
            return cases[-1][2]

        monkeypatch.setattr(machines, "_trim_lookahead", spy)
        for pair in reference_pairs(workspace):
            build_m(*pair)
        for seed in range(200):
            # the reduction trims the M of the last two stages, then M of the rest
            reduced, _ = reduce_chain(random_chain3(seed))
            build_m(*reduced.stages)
        monkeypatch.undo()

        dropped = 0
        for base, la, (got_base, got_la) in cases:
            want_base, want_la = trim_lookahead_by_rebuild(base, la)
            assert [str(r) for r in got_base.rules] == [str(r) for r in want_base.rules], base.name
            assert got_base.states == want_base.states, base.name
            # the rebuild also keeps the states, and their rules, that it
            # reaches only through rules it drops
            reached = {la.initial.name} | {l.name for r in want_base.rules for l in r.lookahead}
            size = 0
            while size != len(reached):
                size = len(reached)
                for r in want_la.rules:
                    if r.state.name in reached:
                        reached |= {c.name for req in r.child_states for c in req}
            want_la_rules = [str(r) for r in want_la.rules if r.state.name in reached]
            assert [str(r) for r in got_la.rules] == want_la_rules, base.name
            want_states = {s.name for s in want_la.states}
            assert {s.name for s in got_la.states} == want_states & reached, base.name
            dropped += len(want_states - reached)
        assert len(cases) == len(reference_pairs(workspace)) + 2 * 200
        assert dropped > 0

    def test_two_builds_per_lookahead_transducer(self, monkeypatch, worked_pair):
        inputs = []
        original = machines._trim_lookahead

        def spy(base, la):
            inputs.append((base, la))
            return original(base, la)

        monkeypatch.setattr(machines, "_trim_lookahead", spy)
        m, _ = build_m(*worked_pair)
        monkeypatch.undo()

        builds = []
        init = machines.Transducer.__init__

        def counting(self, *args, **kwargs):
            builds.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(machines.Transducer, "__init__", counting)
        for base, la in inputs + [(m.base, m.la)]:
            builds.clear()
            LookaheadTransducer(base, la)
            assert len(builds) == 2


class TestMixedAnnotationsAtSharedNode:
    """Copying second component whose duplicated instances can pick different
    rules of the same restricted state at one node: their look-ahead demands
    differ, so per-node single-state relabelings under-approximate unless the
    annotation sets are mergeable.  Regression for the eager oracle and the
    decomposition saturation."""

    @pytest.fixture()
    def pair(self):
        text = """
        transducer mix_t1 {
          input { c:1, g:1, e:0 }
          output { b:1, h:1, p:0, r:0 }
          initial q1
          rules {
            q1(c(x1)) -> b(w(x1));
            w(g(x1)) -> h(w1(x1)) | h(w2(x1));
            w1(e) -> p;
            w2(e) -> r;
          }
        }
        transducer mix_t2 {
          input { b:1, h:1, p:0, r:0 }
          output { f:2, hh:1, pa:0, pb:0, ra:0, rb:0 }
          initial q2
          rules {
            q2(b(x1)) -> f(qa(x1), qb(x1));
            qa(h(x1)) -> hh(qa(x1));
            qb(h(x1)) -> hh(qb(x1));
            qa(p) -> pa;
            qa(r) -> ra;
            qb(p) -> pb;
            qb(r) -> rb;
          }
        }
        """
        ws = parse_workspace(text)
        return ws.machines["mix_t1"], ws.machines["mix_t2"]

    def test_mixed_instances_fire_independently(self, pair):
        from .oracles import translate_la_eager

        m, _ = build_m(*pair)
        s = t("c(g(e))")
        got = {x.text for x in m.translate_la(s)}
        assert got == {
            "f(hh(pa),hh(pb))",
            "f(hh(pa),hh(rb))",
            "f(hh(ra),hh(pb))",
            "f(hh(ra),hh(rb))",
        }
        assert translate_la_eager(m, s) == m.translate_la(s)
        chain = chain_outputs(CompositionChain(pair), s)
        assert {x.text for x in chain} == {"f(hh(pa),hh(pb))", "f(hh(ra),hh(rb))"}
        assert chain <= m.translate_la(s)

    def test_decomposition_contract_despite_merged_runs(self, pair):
        m, _ = build_m(*pair)
        relabeling, reader = decompose_la(m)
        for s in enumerate_trees(m.input_alphabet, 5):
            composed = set()
            for mid in relabeling.translate(s):
                composed |= reader.translate(mid)
            assert frozenset(composed) == m.translate_la(s), s.text

    def test_pair_properties(self, pair):
        pair_properties.check_pair(*pair, size=5)


class TestFixturePairProperties:
    def test_copying(self, copy_pair):
        pair_properties.check_pair(*copy_pair, size=5)
        pair_properties.singleton_outputs_force_equal_second_stage(*copy_pair, size=5)

    def test_deleting(self, del_pair):
        pair_properties.check_pair(*del_pair, size=5)
        pair_properties.singleton_outputs_force_equal_second_stage(*del_pair, size=5)

    def test_worked(self, worked_pair):
        pair_properties.check_pair(*worked_pair, size=5)
        pair_properties.singleton_outputs_force_equal_second_stage(*worked_pair, size=5)


class TestMachineKinds:
    def test_constructions_name_the_kind_they_expect(self, workspace):
        plain, la = workspace.machines["quadratic"], workspace.machines["quadratic_la"]
        calls = [
            (lambda: domain_automaton(la), "domain_automaton needs a Transducer, not LookaheadTransducer"),
            (lambda: decompose_la(plain), "decompose_la needs a LookaheadTransducer, not Transducer"),
            (lambda: build_m(la, plain), "build_m needs a Transducer, not LookaheadTransducer"),
            (lambda: build_m(plain, la), "build_m needs a Transducer, not LookaheadTransducer"),
            (lambda: p_construction(la, plain), "p_construction needs a Transducer, not LookaheadTransducer"),
            (lambda: build_hat_t1(plain, la), "domain_automaton needs a Transducer, not LookaheadTransducer"),
            (lambda: compose_linear_nondeleting(plain, la), "compose_linear_nondeleting needs a Transducer, not"),
        ]
        for call, message in calls:
            with pytest.raises(ValidationError, match="^" + re.escape(message)):
                call()
