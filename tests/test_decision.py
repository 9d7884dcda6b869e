import gc
import pickle
from collections import Counter
import tracemalloc
import types

import pytest

from ttc import (
    CompositionChain,
    LookaheadTransducer,
    ResourceLimit,
    Transducer,
    ValidationError,
    build_m,
    chain_outputs,
    check_functional_bounded,
    decide_functionality,
    enumerate_trees,
    p_construction,
    parse_workspace,
    reduce_chain,
    trace_derivation,
)
from ttc import decision, machines
from ttc.decision import FUNCTIONAL, NOT_FUNCTIONAL, derivations
from ttc.generate import random_chain3, random_pair
from ttc.trees import Tree, parse_tree

from .oracles import (
    all_trees,
    first_counterexample,
    identity_automaton,
    staged_compose,
    translate_la_eager,
    wrap_trivial_lookahead,
)

t = parse_tree


def rule_tags(trace):
    """The rule numbers a trace applies, step by step."""
    return tuple(step.rule_index for step in trace.steps)


class TestChainOutputs:
    def test_copying(self, copy_chain):
        assert chain_outputs(copy_chain, t("a(e)")) == frozenset((t("f(e,e)"),))

    def test_copying_is_a_single_pair(self, copy_chain):
        for s in enumerate_trees(copy_chain.stages[0].input_alphabet, 5):
            outs = chain_outputs(copy_chain, s)
            assert outs == (frozenset((t("f(e,e)"),)) if s == t("a(e)") else frozenset())

    def test_deleting_empty(self, del_chain):
        assert chain_outputs(del_chain, t("a(e,e)")) == frozenset()

    def test_worked(self, worked_chain):
        assert chain_outputs(worked_chain, t("f(e,d)")) == frozenset((t("d"),))
        assert chain_outputs(worked_chain, t("f(e,e)")) == frozenset((t("f(e,e)"),))

    def test_lookahead_stage_is_rejected(self, workspace):
        quadratic_la = workspace.machines["quadratic_la"]
        with pytest.raises(ValidationError, match="is not a plain transducer"):
            CompositionChain((quadratic_la,))
        with pytest.raises(ValidationError, match="is not a plain transducer"):
            CompositionChain((workspace.machines["quadratic"], quadratic_la))

    def test_neither_chain_nor_machine_is_rejected(self, workspace):
        for other in ("quadratic", workspace.machines["quadratic_la"]):
            with pytest.raises(ValidationError, match="is not a plain transducer"):
                chain_outputs(other, t("e"))

    def test_cap_bounds_the_composed_set(self):
        # s1 gives 8 trees on a(a(a(e))) and s2 gives 8 on each of them, all
        # within the cap; together they are all 27 words over {a, b, c}
        text = """
        transducer s1 {
          input { a:1, e:0 }
          output { a:1, b:1, e:0 }
          initial q
          rules { q(a(x1)) -> a(q(x1)) | b(q(x1)); q(e) -> e; }
        }
        transducer s2 {
          input { a:1, b:1, e:0 }
          output { a:1, b:1, c:1, e:0 }
          initial u
          rules { u(a(x1)) -> a(u(x1)) | c(u(x1)); u(b(x1)) -> b(u(x1)) | c(u(x1)); u(e) -> e; }
        }
        chain branching { s1, s2 }
        """
        chain = parse_workspace(text).chains["branching"]
        s = t("a(a(a(e)))")
        assert len(chain_outputs(chain, s, cap=27)) == 27
        with pytest.raises(ResourceLimit, match="output set exceeds cap 10$"):
            chain_outputs(chain, s, cap=10)


class TestCheckFunctionalBounded:
    def test_neither_chain_nor_machine_is_rejected(self):
        with pytest.raises(ValidationError, match="is not a plain transducer"):
            check_functional_bounded("quadratic", 3)

    def test_naive_copying_product_not_functional(self, copy_pair):
        naive, _ = p_construction(*copy_pair)
        verdict = check_functional_bounded(naive, 2)
        assert verdict.status == NOT_FUNCTIONAL
        cx = verdict.counterexample
        assert cx.input == t("a(e)")
        assert set(cx.outputs) == {t("f(e,e)"), t("f(e,e')")}

    def test_copying_chain_functional(self, copy_chain):
        verdict = check_functional_bounded(copy_chain, 4)
        assert verdict.status == FUNCTIONAL
        assert verdict.bound == 4

    def test_worked_m_functional(self, worked_pair):
        m, _ = build_m(*worked_pair)
        verdict = check_functional_bounded(m, 5)
        assert verdict.status == FUNCTIONAL

    def test_counterexample_replays(self, copy_pair):
        naive, _ = p_construction(*copy_pair)
        verdict = check_functional_bounded(naive, 3)
        outs = naive.translate(verdict.counterexample.input)
        assert set(verdict.counterexample.outputs) <= outs
        assert len(set(verdict.counterexample.outputs)) == 2

    def test_not_functional_is_monotone_in_bound(self, copy_pair):
        naive, _ = p_construction(*copy_pair)
        for bound in (2, 3, 4, 5):
            assert check_functional_bounded(naive, bound).status == NOT_FUNCTIONAL

    def test_stats_present(self, copy_chain):
        verdict = check_functional_bounded(copy_chain, 3)
        assert verdict.stats["inputs_checked"] >= 1
        assert verdict.stats["outputs_computed"] >= 1
        assert verdict.stats["memo_entries"] >= 1
        first = copy_chain.stages[0]
        assert verdict.stats["inputs_enumerated"] == len(first.enumerate_domain(first.initial, 3))
        assert verdict.stats["max_size_reached"] == 3

    def test_stops_at_the_first_size_with_a_counterexample(self, doubled_rotation):
        m, _ = build_m(*doubled_rotation(2))
        verdict = check_functional_bounded(m, 5)
        assert verdict.status == NOT_FUNCTIONAL
        assert verdict.counterexample.input == t("d")
        assert verdict.stats["max_size_reached"] == 1
        assert verdict.stats["inputs_enumerated"] == len(m.enumerate_domain(1))

    def test_matches_full_enumeration(self):
        for seed in range(200):
            t1, t2 = random_pair(seed)
            verdict, reports = decide_functionality(CompositionChain((t1, t2)), 6)
            domain = [s for s in all_trees(t1.input_alphabet, 6) if staged_compose((t1, t2), s)]
            assert reports[-1].machine.enumerate_domain(6) == domain, seed
            cex, outputs, checked = first_counterexample((t1, t2), 6)
            assert verdict.status == (FUNCTIONAL if cex is None else NOT_FUNCTIONAL), seed
            if cex is not None:
                assert verdict.counterexample.input == cex, seed
                assert verdict.counterexample.outputs == outputs, seed
            assert verdict.stats["inputs_checked"] == checked, seed


class TestBoundsAndCaps:
    """An output cap is None or an int >= 1, a size bound an int >= 1;
    anything else is a ValidationError, raised before any work."""

    @pytest.mark.parametrize("cap", [0, -5, 2.5, True, "3"])
    def test_bad_cap(self, cap, quadratic, copy_chain, worked_pair):
        m, _ = build_m(*worked_pair)
        s = t("a(e)")
        calls = [
            lambda: quadratic.translate(s, cap=cap),
            lambda: quadratic.evaluate(quadratic.initial, s, cap=cap),
            lambda: m.translate_la(t("f(e,d)"), cap=cap),
            lambda: chain_outputs(copy_chain, s, cap=cap),
            lambda: check_functional_bounded(quadratic, 3, output_cap=cap),
            lambda: decide_functionality(copy_chain, 3, output_cap=cap),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="cap must be None or an int >= 1, not"):
                call()

    def test_no_cap_and_the_least_cap(self, quadratic, copy_chain):
        s = t("a(e)")
        assert quadratic.translate(s, cap=1) == quadratic.translate(s, cap=None) == {t("f(e,e)")}
        assert chain_outputs(copy_chain, s, cap=None) == {t("f(e,e)")}
        assert check_functional_bounded(quadratic, 3, output_cap=None).functional

    @pytest.mark.parametrize("size", [0, -1, 2.5, None, True, "3"])
    def test_bad_max_size(self, size, quadratic, worked_pair, monkeypatch):
        def no_build(*args):
            raise AssertionError("built before the bound was checked")

        monkeypatch.setattr(decision, "build_m", no_build)
        monkeypatch.setattr(decision, "reduce_chain", no_build)
        calls = [
            lambda: check_functional_bounded(quadratic, size),
            lambda: decide_functionality(CompositionChain(worked_pair), size),
            lambda: decide_functionality(CompositionChain((*worked_pair, worked_pair[1])), size),
            lambda: quadratic.enumerate_domain(quadratic.initial, size),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="max_size must be an int >= 1, not"):
                call()


class TestCheckMemo:
    """A check keeps one memo per stage across all of its inputs."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """Records (input, outputs) for every input a check translates, and
        (input, None) for every input whose one output it counts unbuilt."""
        seen = []
        outputs, single_output = decision._outputs, decision._single_output

        def spy(stages, s, cap, memos, labels, classes):
            outs = outputs(stages, s, cap, memos, labels, classes)
            seen.append((s, frozenset(outs)))
            return outs

        def spy_one(base, la, q, s, memo, table, classes):
            one = single_output(base, la, q, s, memo, table, classes)
            if one:
                seen.append((s, None))
            return one

        monkeypatch.setattr(decision, "_outputs", spy)
        monkeypatch.setattr(decision, "_single_output", spy_one)
        return seen

    @staticmethod
    def agree(checked, verdict, oracle, tag):
        """Every checked input was recorded, and each agrees with the oracle:
        on all outputs where they were built, on one where it was counted."""
        assert len(checked) == verdict.stats["inputs_checked"], tag
        for s, outs in checked:
            expected = oracle(s)
            assert len(expected) == 1 if outs is None else outs == expected, (tag, s.text)

    def test_m_outputs_match_eager_oracle(self, checked, worked_pair, copy_pair):
        pairs = [worked_pair, copy_pair] + [random_pair(seed) for seed in range(40)]
        for pair in pairs:
            m, _ = build_m(*pair)
            checked.clear()
            verdict = check_functional_bounded(m, 5)
            self.agree(checked, verdict, lambda s: translate_la_eager(m, s), m.name)

    def test_chain_outputs_match_staged_rewriting(self, checked):
        for seed in range(20):
            chain = random_chain3(seed)
            # a whole chain, and each stage as a one-stage target
            for stages in (chain.stages, *((stage,) for stage in chain.stages)):
                checked.clear()
                verdict = check_functional_bounded(CompositionChain(stages), 4)
                self.agree(checked, verdict, lambda s: staged_compose(stages, s), seed)

    def test_resource_limit_does_not_poison_the_next_check(self, checked):
        # e has one output; a(e) has two, one more than the cap of 1
        text = """
        transducer late {
          input { a:1, e:0 }
          output { e:0, e2:0 }
          initial q0
          rules { q0(e) -> e; q0(a(x1)) -> q1(x1); q1(e) -> e | e2; q1(a(x1)) -> q1(x1); }
        }
        """
        machine = parse_workspace(text).machines["late"]
        fresh = parse_workspace(text).machines["late"]
        for target, clean in ((machine, fresh), (wrap_trivial_lookahead(machine), wrap_trivial_lookahead(fresh))):
            checked.clear()
            with pytest.raises(ResourceLimit):
                check_functional_bounded(target, 4, output_cap=1)
            assert [s.text for s, _ in checked] == ["e"]
            after = check_functional_bounded(target, 4)
            assert after == check_functional_bounded(clean, 4)
            assert after.counterexample.input == t("a(e)")

    def test_check_leaves_machines_unchanged(self, worked_pair, copy_chain):
        m, _ = build_m(*worked_pair)
        machines = [m, m.base, m.la, *copy_chain.stages]
        before = [pickle.dumps(vars(x)) for x in machines]
        check_functional_bounded(m, 6)
        check_functional_bounded(copy_chain, 4)
        assert [pickle.dumps(vars(x)) for x in machines] == before

    def test_no_closures_left_per_input(self, worked_pair):
        m, _ = build_m(*worked_pair)

        def functions_in_garbage(bound):
            gc.collect()
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                check_functional_bounded(m, bound)
                gc.collect()
                return sum(isinstance(x, types.FunctionType) for x in gc.garbage)
            finally:
                gc.set_debug(0)
                gc.garbage.clear()

        assert functions_in_garbage(9) == functions_in_garbage(5)

    def test_check_retains_no_memory(self, worked_pair):
        m, _ = build_m(*worked_pair)
        check_functional_bounded(m, 3)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            check_functional_bounded(m, 10)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # a memo kept on the machine held about 0.06 MB here
        assert retained < 4096

    def test_early_stop_frees_the_enumeration(self, doubled_rotation, copy_pair):
        m, _ = build_m(*doubled_rotation(2))
        naive, _ = p_construction(*copy_pair)
        for target in (m, naive):
            check_functional_bounded(target, 6)
            gc.collect()
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                verdict = check_functional_bounded(target, 6)
                gc.collect()
                functions = sum(isinstance(x, types.FunctionType) for x in gc.garbage)
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
            assert verdict.stats["max_size_reached"] < 6
            assert functions == 0
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                check_functional_bounded(target, 6)
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert retained < 4096


class TestEvaluatorCalls:
    """Counts, never the clock: memo and table hits are answered without a call."""

    def test_worked_pair_at_bound_11(self, worked_pair, monkeypatch):
        m, _ = build_m(*worked_pair)
        single, calls, labelled, builds = [], [], [], [0]
        evaluate, label, init = machines._evaluate, machines._label, Tree.__init__
        single_output = machines._single_output

        def spy_single(base, la, q, s, memo, table, classes):
            one = single_output(base, la, q, s, memo, table, classes)
            if one:
                single.append(s.text)
            return one

        def spy_evaluate(base, q, s, cap, memo, labels, classes):
            calls.append(("evaluate", q.name, s.text))
            return evaluate(base, q, s, cap, memo, labels, classes)

        def spy_label(base, la, s, memo, table, classes):
            labelled.append(s.text)
            return label(base, la, s, memo, table, classes)

        def spy_init(self, label, children=()):
            builds[0] += 1
            init(self, label, children)

        monkeypatch.setattr(decision, "_evaluate", spy_evaluate)
        monkeypatch.setattr(decision, "_single_output", spy_single)
        monkeypatch.setattr(machines, "_evaluate", spy_evaluate)
        monkeypatch.setattr(machines, "_label", spy_label)
        monkeypatch.setattr(Tree, "__init__", spy_init)
        verdict = check_functional_bounded(m, 11)
        assert verdict.status == FUNCTIONAL
        # every input is checked once, and its one output counted unbuilt
        assert len(single) == len(set(single)) == verdict.stats["inputs_checked"] == 2168
        assert verdict.stats["single_output_inputs"] == 2168
        # nothing is evaluated: the classes of 26 (symbol, child classes)
        # keys decide every input
        assert calls == [] and verdict.stats["memo_entries"] == 0
        assert (verdict.stats["label_classes"], verdict.stats["label_transitions"]) == (5, 26)
        # each subtree is labelled at most once as a child, and once as an input
        twice = [text for text, n in Counter(labelled).items() if n > 1]
        assert max(Counter(labelled).values()) == 2 and set(twice) <= set(single)
        assert builds[0] <= 3646  # the enumeration's inputs and their subtrees


class TestSingleOutputPath:
    """A one-stage check counts an input's one output, unbuilt, only when the
    class of the input puts the initial state in `one`: one rule fires at the
    root and each of its calls is in `one` of its child's class.  Every other
    input has all its outputs built."""

    TEXT = """
    transducer twice {
      input { a:1, e:0 }
      output { e:0 }
      initial q0
      rules { q0(a(x1)) -> e; q0(a(x1)) -> q1(x1); q1(e) -> e; }
    }
    transducer branch {
      input { a:1, e:0 }
      output { g:1, e:0, e2:0 }
      initial q0
      rules { q0(e) -> e; q0(a(x1)) -> g(q1(x1)); q1(e) -> e | e2; q1(a(x1)) -> q1(x1); }
    }
    """

    @pytest.fixture
    def targets(self):
        machines = parse_workspace(self.TEXT).machines
        return {name: (m, wrap_trivial_lookahead(m)) for name, m in machines.items()}

    @pytest.fixture
    def paths(self, monkeypatch):
        """Records ("one", input) for each input `_single_output` is asked
        about, then ("all", input) for each whose outputs are built."""
        seen = []
        outputs, single_output = decision._outputs, decision._single_output

        def spy(stages, s, cap, memos, labels, classes):
            seen.append(("all", s.text))
            return outputs(stages, s, cap, memos, labels, classes)

        def spy_one(base, la, q, s, memo, table, classes):
            seen.append(("one", s.text))
            return single_output(base, la, q, s, memo, table, classes)

        monkeypatch.setattr(decision, "_outputs", spy)
        monkeypatch.setattr(decision, "_single_output", spy_one)
        return seen

    def test_two_firing_rules_with_equal_outputs(self, targets, paths):
        for target in targets["twice"]:
            paths.clear()
            verdict = check_functional_bounded(target, 4)
            assert verdict.status == FUNCTIONAL
            assert verdict.stats["single_output_inputs"] == 0
            assert verdict.stats["outputs_computed"] == verdict.stats["inputs_checked"] == 3
            assert [p for p, _ in paths] == ["one", "all"] * 3

    def test_a_call_with_two_outputs(self, targets, paths):
        for target in targets["branch"]:
            paths.clear()
            verdict = check_functional_bounded(target, 4)
            assert verdict.status == NOT_FUNCTIONAL
            assert verdict.counterexample.input == t("a(e)")
            assert verdict.counterexample.outputs == (t("g(e)"), t("g(e2)"))
            assert verdict.stats["single_output_inputs"] == 1
            assert verdict.stats["outputs_computed"] == 3
            assert paths == [("one", "e"), ("one", "a(e)"), ("all", "a(e)")]

    def test_cap_is_enforced_where_outputs_are_built(self, targets, paths):
        # the classes build nothing: a(e) is not single, and building its
        # outputs meets q1(e), whose two outputs exceed the cap
        for target in targets["branch"]:
            paths.clear()
            with pytest.raises(ResourceLimit, match="output set exceeds cap 1$"):
                check_functional_bounded(target, 4, output_cap=1)
            assert paths == [("one", "e"), ("one", "a(e)"), ("all", "a(e)")]


class TestLookaheadGuards:
    """Look-ahead targets whose inputs take the built path: the plain `twice`
    behind a universal look-ahead, and the M of `random_pair(5)`, which
    builds the outputs of 12 of its 21 inputs at bound 6."""

    @pytest.fixture
    def targets(self):
        twice = parse_workspace(TestSingleOutputPath.TEXT).machines["twice"]
        m, _ = build_m(*random_pair(5))
        return [(wrap_trivial_lookahead(twice), 4), (m, 6)]

    def test_guards_read_the_check_label_memo(self, targets, monkeypatch):
        evaluate, label, single_output = machines._evaluate, machines._label, machines._single_output
        for target, bound in targets:
            memos, labelled, guards, inside = [], [], [], [0]

            def spy_single(base, la, q, s, memo, table, classes):
                memos.append(memo)
                labelled.append(("input", s.text))
                return single_output(base, la, q, s, memo, table, classes)

            def spy_label(base, la, s, memo, table, classes):
                if labelled[-1] != ("input", s.text):
                    labelled.append(("child", s.text))
                assert not inside[0], "labelled during evaluation: %s" % s.text
                return label(base, la, s, memo, table, classes)

            def spy_evaluate(base, q, s, cap, memo, labels, classes):
                assert labels is memos[0]
                for rule in base.rules_for(q, s.label):
                    if rule.lookahead is not None:
                        guards.extend(c.text in labels for c in s.children)
                inside[0] += 1
                try:
                    return evaluate(base, q, s, cap, memo, labels, classes)
                finally:
                    inside[0] -= 1

            monkeypatch.setattr(decision, "_single_output", spy_single)
            monkeypatch.setattr(machines, "_label", spy_label)
            monkeypatch.setattr(decision, "_evaluate", spy_evaluate)
            monkeypatch.setattr(machines, "_evaluate", spy_evaluate)
            verdict = check_functional_bounded(target, bound)
            assert verdict.status == FUNCTIONAL, target.name
            assert verdict.stats["single_output_inputs"] < verdict.stats["inputs_checked"], target.name
            # one label memo for the whole check, and every guard found in it
            assert all(memo is memos[0] for memo in memos)
            assert guards and all(guards), target.name
            # each input labelled once, and each subtree once below an input
            for kind in ("input", "child"):
                texts = [text for k, text in labelled if k == kind]
                assert len(texts) == len(set(texts)), (target.name, kind)
            assert sum(k == "input" for k, _ in labelled) == verdict.stats["inputs_checked"]

    def test_check_retains_no_memory(self, targets):
        for target, bound in targets:
            check_functional_bounded(target, bound)
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                check_functional_bounded(target, bound)
                gc.collect()
                retained = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert retained < 4096, target.name


class TestDecideFunctionality:
    def test_copying_pair(self, copy_chain):
        verdict, reports = decide_functionality(copy_chain, 4)
        assert verdict.status == FUNCTIONAL
        assert check_functional_bounded(copy_chain, 4).status == verdict.status
        assert reports

    def test_deleting_pair_vacuously_functional(self, del_chain):
        verdict, _ = decide_functionality(del_chain, 4)
        assert verdict.status == FUNCTIONAL

    def test_bare_transducer_is_a_one_stage_chain(self, workspace):
        quadratic = workspace.machines["quadratic"]
        for bound in (3, 5):
            verdict, reports = decide_functionality(quadratic, bound)
            assert reports == []
            assert verdict == decide_functionality(CompositionChain((quadratic,)), bound)[0]
        for other in (workspace.machines["quadratic_la"], "quadratic"):
            with pytest.raises(ValidationError, match="is not a plain transducer"):
                decide_functionality(other, 3)

    def test_single_stage_chain(self, copy_pair):
        naive, _ = p_construction(*copy_pair)
        verdict, reports = decide_functionality(CompositionChain((naive,)), 3)
        assert verdict.status == NOT_FUNCTIONAL
        assert reports == []

    def test_single_stage_matches_the_wrapped_check(self, workspace, monkeypatch):
        """A one-stage chain is checked as it is: verdict, counterexample and
        stats, but for the subtree-class counts, equal the check of the
        machine behind a universal look-ahead, and no look-ahead transducer
        is built."""
        machines = [m for m in workspace.machines.values() if isinstance(m, Transducer)]
        for seed in range(200):
            machines += random_pair(seed)
        assert len(machines) == 409
        wrapped = [(m, wrap_trivial_lookahead(m)) for m in machines]
        built = []
        init = LookaheadTransducer.__init__

        def spy(self, base, la):
            built.append(base.name)
            init(self, base, la)

        monkeypatch.setattr(LookaheadTransducer, "__init__", spy)
        for machine, reference in wrapped:
            for bound in (3, 5):
                verdict, reports = decide_functionality(CompositionChain((machine,)), bound)
                assert not built and reports == []
                expected = check_functional_bounded(reference, bound)
                # the trimmed base of the reference may have fewer states,
                # and so other subtree classes
                for v in (verdict, expected):
                    del v.stats["label_classes"], v.stats["label_transitions"]
                assert verdict == expected, (machine.name, bound)

    def test_three_stage_with_extra_rule(self, copy_pair, copy_t2_extra):
        t1, _ = copy_pair
        ident = identity_automaton(t1.input_alphabet, name="id0")
        chain = CompositionChain((ident, t1, copy_t2_extra))
        verdict, _ = decide_functionality(chain, 4)
        direct = check_functional_bounded(chain, 4)
        assert verdict.status == direct.status
        if verdict.status == NOT_FUNCTIONAL:
            assert verdict.counterexample.input == direct.counterexample.input

    def test_reduction_stability(self, worked_pair, del_pair):
        for pair in (worked_pair, del_pair):
            ident = identity_automaton(pair[0].input_alphabet, name="id0")
            chain = CompositionChain((ident, *pair))
            reduced, _ = reduce_chain(chain)
            before = check_functional_bounded(chain, 4)
            after = check_functional_bounded(reduced, 4)
            assert before.status == after.status

    def test_four_stage_chain(self, worked_pair):
        ident = identity_automaton(worked_pair[0].input_alphabet, name="id0")
        ident2 = identity_automaton(worked_pair[0].input_alphabet, name="id1")
        chain = CompositionChain((ident, ident2, *worked_pair))
        verdict, reports = decide_functionality(chain, 4)
        direct = check_functional_bounded(chain, 4)
        assert verdict.status == direct.status == FUNCTIONAL
        # two reduction rounds plus the final pair: three construction groups
        assert len([r for r in reports if r.label == "look-ahead-transducer"]) == 3


class TestTrace:
    def test_quadratic_steps_and_final(self, quadratic):
        trace = trace_derivation(quadratic, t("a(a(e))"))
        assert len(trace.steps) == 6
        assert trace.complete
        assert trace.final == t("f(a(e),f(e,e))")
        # leftmost-outermost default schedule
        assert rule_tags(trace) == (1, 3, 4, 1, 4, 2)

    def test_six_step_rule_sequence_branch(self, quadratic):
        # an alternative schedule applies the rules in the order 1,1,4,3,4,2;
        # some branch of the enumeration reproduces it exactly
        target = (1, 1, 4, 3, 4, 2)
        for steps, final in derivations(quadratic, t("a(a(e))")):
            if tuple(s.rule_index for s in steps) == target:
                assert final == t("f(a(e),f(e,e))")
                break
        else:
            pytest.fail("no branch reproduces the rule sequence 1,1,4,3,4,2")

    def test_branch_selection(self, quadratic):
        t0 = trace_derivation(quadratic, t("a(a(e))"), branch=0)
        t1 = trace_derivation(quadratic, t("a(a(e))"), branch=1)
        assert rule_tags(t0) != rule_tags(t1) or t0.steps != t1.steps
        assert t1.final == t0.final

    def test_single_step(self, quadratic):
        trace = trace_derivation(quadratic, t("e"))
        assert len(trace.steps) == 1
        assert rule_tags(trace) == (2,)
        assert trace.final == t("e")

    def test_stuck_form(self, del_pair):
        t1, _ = del_pair
        trace = trace_derivation(t1, t("a(e,e)"))
        assert not trace.complete
        assert not trace.final.is_ground()

    def test_final_is_a_translation_member(self, copy_pair):
        t1, _ = copy_pair
        for branch in range(3):
            trace = trace_derivation(t1, t("a(e)"), branch=branch)
            if trace.complete:
                assert trace.final in t1.translate(t("a(e)"))
