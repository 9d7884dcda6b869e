import gc
import hashlib
import inspect
import pickle
import time
import tracemalloc
import types
from itertools import islice

import pytest

from ttc import (
    AlphabetMismatch,
    CompositionChain,
    LookaheadTransducer,
    ResourceLimit,
    Transducer,
    ValidationError,
    build_hat_t1,
    build_m,
    chain_outputs,
    check_functional_bounded,
    decide_functionality,
    decompose_la,
    p_construction,
    parse_workspace,
    reduce_chain,
    trace_derivation,
)
from ttc import constructions, decision, machines
from ttc.constructions import domain_automaton
from ttc.decision import FUNCTIONAL, NOT_FUNCTIONAL, derivations
from ttc.generate import random_chain3, random_pair
from ttc.render import serialize_machine
from ttc.trees import Tree, check_ground_over, parse_tree

from .conftest import benchmark_modules, domain_of, rotation_chains_text
from .oracles import (
    all_trees,
    dom_member,
    first_counterexample,
    identity_automaton,
    reference_check,
    reference_child_states,
    rewrite_translate,
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
        for s in all_trees(copy_chain.stages[0].input_alphabet, 5):
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

    def test_cap_bounds_the_composed_set(self, monkeypatch):
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
        monkeypatch.setattr(decision, "DEFAULT_OUTPUT_CAP", 27)
        assert len(chain_outputs(chain, s)) == 27
        monkeypatch.setattr(decision, "DEFAULT_OUTPUT_CAP", 10)
        with pytest.raises(ResourceLimit, match="output set exceeds cap 10$"):
            chain_outputs(chain, s)


# t2 has no rule on a: the chain's domain is b alone, while t1's is a and b
DROPPING_CHAIN = """
transducer t1 { input { a:0, b:0 } output { a:0, b:0, c:0 } initial q rules { q(a) -> a; q(b) -> b | c; } }
transducer t2 { input { a:0, b:0, c:0 } output { b:0, c:0 } initial p rules { p(b) -> b; p(c) -> c; } }
chain dropping { t1, t2 }
"""


class TestCheckFunctionalBounded:
    def test_a_chain_counts_only_its_own_domain(self):
        """The chain enumerates a and b, the domain of its first stage, but
        checks only b, as M, whose domain is the chain's, does."""
        chain = parse_workspace(DROPPING_CHAIN).chains["dropping"]
        direct = check_functional_bounded(chain, 3)
        via_m = check_functional_bounded(build_m(*chain.stages)[0], 3)
        for verdict in (direct, via_m):
            assert verdict.status == NOT_FUNCTIONAL
            assert verdict.counterexample == decision.Counterexample(t("b"), (t("b"), t("c")))
            assert (verdict.stats["inputs_checked"], verdict.stats["max_size_reached"]) == (1, 1)
        assert (direct.stats["inputs_enumerated"], via_m.stats["inputs_enumerated"]) == (2, 1)

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
        assert verdict.stats["inputs_enumerated"] == len(domain_of(first, first.initial, 3))
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
    """An output cap given to a translation is an int >= 1, with no uncapped
    mode, and a size bound an int >= 1; anything else is a ValidationError,
    raised before any work.  Chains and checks read the one constant cap."""

    @pytest.mark.parametrize("cap", [0, -5, 2.5, True, "3", None])
    def test_bad_cap(self, cap, quadratic, worked_pair):
        m, _ = build_m(*worked_pair)
        calls = [
            lambda: quadratic.translate(t("a(e)"), cap=cap),
            lambda: m.translate_la(t("f(e,d)"), cap=cap),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="^cap must be an int >= 1, not"):
                call()

    def test_the_cap_is_a_constant(self):
        for call in (chain_outputs, check_functional_bounded, decide_functionality):
            assert not {"cap", "output_cap"} & set(inspect.signature(call).parameters), call.__name__
        assert decision.DEFAULT_OUTPUT_CAP == machines.DEFAULT_OUTPUT_CAP == 10**6

    def test_the_least_cap(self, quadratic, monkeypatch):
        s = t("a(e)")
        assert quadratic.translate(s, cap=1) == quadratic.translate(s) == {t("f(e,e)")}
        monkeypatch.setattr(decision, "DEFAULT_OUTPUT_CAP", 1)
        assert check_functional_bounded(quadratic, 3).functional

    @pytest.mark.parametrize("size", [0, -1, 2.5, None, True, "3"])
    def test_bad_max_size(self, size, quadratic, worked_pair, monkeypatch):
        def no_build(*args):
            raise AssertionError("built before the bound was checked")

        monkeypatch.setattr(decision, "_check_step", no_build)
        calls = [
            lambda: check_functional_bounded(quadratic, size),
            lambda: decide_functionality(CompositionChain(worked_pair), size),
            lambda: decide_functionality(CompositionChain((*worked_pair, worked_pair[1])), size),
            lambda: domain_of(quadratic, quadratic.initial, size),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="max_size must be an int >= 1, not"):
                call()


class TestCheckMemo:
    """A check keeps one memo per stage across all of its inputs."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """Records (input, outputs) for every input a check translates, and
        (input, None) for every input whose class it reads and that it then
        does not translate, so counts unbuilt."""
        seen = []
        outputs, label = decision._outputs, decision._label

        def spy(owners, s, cap):
            if seen and seen[-1] == (s, None):
                seen.pop()
            outs = outputs(owners, s, cap)
            seen.append((s, frozenset(outs)))
            return outs

        def spy_label(cl, s):
            if cl.counts:  # the check's table, which counted the domain; an automaton stage's counts nothing
                seen.append((s, None))
            return label(cl, s)

        monkeypatch.setattr(decision, "_outputs", spy)
        monkeypatch.setattr(decision, "_label", spy_label)
        return seen

    @staticmethod
    def agree(checked, target, bound, oracle, tag):
        """The check records exactly the inputs that the reference check says
        it enumerates (none of a one-stage size counted by class), and each
        agrees with the oracle: on all outputs where they were built, on one
        where it was counted.  Every other input is one the check counts
        by class."""
        enumerated = reference_check(target, bound)[1]
        checked.clear()
        stats = check_functional_bounded(target, bound).stats
        assert [s for s, _ in checked] == enumerated, tag
        # a chain's input that a later stage drops is translated, not checked
        assert sum(bool(outs) for _, outs in checked if outs is not None) == stats["inputs_checked"] - stats["single_output_inputs"], tag
        for s, outs in checked:
            expected = oracle(s)
            assert len(expected) == 1 if outs is None else outs == expected, (tag, s.text)

    def test_m_outputs_match_eager_oracle(self, checked, worked_pair, copy_pair):
        pairs = [worked_pair, copy_pair] + [random_pair(seed) for seed in range(40)]
        enumerated = 0
        for pair in pairs:
            m, _ = build_m(*pair)
            self.agree(checked, m, 5, lambda s: translate_la_eager(m, s), m.name)
            enumerated += len(checked)
        assert enumerated == 30  # of 112 inputs: the other 82 are counted by class

    def test_chain_outputs_match_staged_rewriting(self, checked):
        for seed in range(20):
            chain = random_chain3(seed)
            # a whole chain, and each stage as a one-stage target
            for stages in (chain.stages, *((stage,) for stage in chain.stages)):
                self.agree(checked, CompositionChain(stages), 4, lambda s: staged_compose(stages, s), seed)

    def test_resource_limit_does_not_poison_the_next_check(self, checked, monkeypatch):
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
            monkeypatch.setattr(decision, "DEFAULT_OUTPUT_CAP", 1)
            with pytest.raises(ResourceLimit):
                check_functional_bounded(target, 4)
            # e, the one input of size 1, is counted by class, unbuilt
            assert [s.text for s, _ in checked] == []
            monkeypatch.setattr(decision, "DEFAULT_OUTPUT_CAP", machines.DEFAULT_OUTPUT_CAP)
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

    def test_a_check_that_raises_keeps_no_memo(self, worked_chain, worked_pair, monkeypatch):
        """An exception's traceback keeps the check's frame alive: every
        container of every owner among its locals is empty all the same.
        At cap 1 the worked chain raises with memo entries in both stages,
        and ex4_t1 with labels too."""
        monkeypatch.setattr(decision, "DEFAULT_OUTPUT_CAP", 1)
        for target in (worked_chain, worked_pair[0]):
            with pytest.raises(ResourceLimit) as caught:
                check_functional_bounded(target, 5)
            tb = caught.value.__traceback__
            while tb.tb_frame.f_code is not decision._check.__code__:
                tb = tb.tb_next
            found = list(tb.tb_frame.f_locals.values())
            found += [x for v in found if isinstance(v, (list, tuple)) for x in v]
            owners = [v for v in found if isinstance(v, machines._Classes)]
            assert owners, target.name
            for cl in owners:
                for slot in machines._Classes.__slots__:
                    value = getattr(cl, slot)
                    if isinstance(value, (dict, list)):
                        assert not value, (target.name, slot)


class TestEvaluatorCalls:
    """Counts, never the clock: memo and table hits are answered without a call."""

    def test_worked_pair_at_bound_11(self, worked_pair, monkeypatch):
        m, _ = build_m(*worked_pair)
        calls, labelled, builds = [], [], [0]
        evaluate, label, init = machines._evaluate, machines._label, Tree.__init__
        class_trees = machines._class_trees

        def spy_evaluate(cl, q, s, cap):
            calls.append(("evaluate", q.name, s.text))
            return evaluate(cl, q, s, cap)

        def spy_class_trees(cl, c, n):
            calls.append(("class_trees", c, n))
            return class_trees(cl, c, n)

        def spy_label(cl, s):
            labelled.append(s.text)
            return label(cl, s)

        def spy_init(self, label, children=()):
            builds[0] += 1
            init(self, label, children)

        for module in (decision, machines):
            monkeypatch.setattr(module, "_evaluate", spy_evaluate)
            monkeypatch.setattr(module, "_label", spy_label)
        monkeypatch.setattr(machines, "_class_trees", spy_class_trees)
        monkeypatch.setattr(Tree, "__init__", spy_init)
        verdict = check_functional_bounded(m, 11)
        assert verdict.status == FUNCTIONAL
        # every size is counted by class, and every input has one output
        assert verdict.stats["inputs_checked"] == verdict.stats["single_output_inputs"] == 2168
        # nothing is enumerated, labelled, evaluated or built: the classes
        # of 27 (symbol, child classes) keys count every size
        assert calls == [] and labelled == [] and verdict.stats["memo_entries"] == 0
        assert (verdict.stats["label_classes"], verdict.stats["label_transitions"]) == (5, 27)
        assert builds[0] == 0

    def test_a_target_that_falls_back_at_every_size(self, monkeypatch):
        # M of seed 5 has an input without a single output at every size
        # from 3 on, so each of those sizes is built from the class table;
        # its one input of size 1 is counted, and size 2 has none
        m, _ = build_m(*random_pair(5))
        generated, domain_sizes, domain_trees = [], machines._domain_sizes, machines._domain_trees

        def spy_domain_sizes(*args):
            for domain in domain_sizes(*args):
                generated.append(None)
                yield domain

        def spy_domain_trees(*args):
            generated[-1] = domain_trees(*args)
            return generated[-1]

        monkeypatch.setattr(decision, "_domain_sizes", spy_domain_sizes)
        monkeypatch.setattr(decision, "_domain_trees", spy_domain_trees)
        verdict = check_functional_bounded(m, 6)
        expected, enumerated = reference_check(m, 6)
        assert verdict.status == expected.status == FUNCTIONAL
        assert [None if layer is None else len(layer) for layer in generated] == [None, None, 1, 2, 5, 12]
        assert [s for layer in generated for s in layer or ()] == enumerated


class TestSingleOutputPath:
    """A one-stage check counts an input's one output, unbuilt, only when the
    class of the input puts the initial state in `one`: one rule fires at the
    root and each of its calls is in `one` of its child's class.  A size
    whose inputs all do is counted by class, with no input asked about;
    every other input has all its outputs built."""

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
        """Records ("one", input) for each input whose class the check
        reads, then ("all", input) for each whose outputs are built."""
        seen = []
        outputs, label = decision._outputs, decision._label

        def spy(owners, s, cap):
            seen.append(("all", s.text))
            return outputs(owners, s, cap)

        def spy_one(cl, s):
            seen.append(("one", s.text))
            return label(cl, s)

        monkeypatch.setattr(decision, "_outputs", spy)
        monkeypatch.setattr(decision, "_label", spy_one)
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
            # e, the one input of size 1, is counted by class
            assert paths == [("one", "a(e)"), ("all", "a(e)")]

    def test_cap_is_enforced_where_outputs_are_built(self, targets, paths, monkeypatch):
        # the classes build nothing: a(e) is not single, and building its
        # outputs meets q1(e), whose two outputs exceed the cap
        monkeypatch.setattr(decision, "DEFAULT_OUTPUT_CAP", 1)
        for target in targets["branch"]:
            paths.clear()
            with pytest.raises(ResourceLimit, match="output set exceeds cap 1$"):
                check_functional_bounded(target, 4)
            assert paths == [("one", "a(e)"), ("all", "a(e)")]


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
        evaluate, label = machines._evaluate, machines._label
        # the inputs each check enumerates: M counts its one input of size 1
        # by class, of 21 inputs in all
        for (target, bound), enumerated in zip(targets, (3, 20)):
            tables, labelled, guards, inside = [], [], [], [0]

            def spy_input(cl, s):
                tables.append(cl)
                labelled.append(("input", s.text))
                assert not inside[0], "labelled during evaluation: %s" % s.text
                return label(cl, s)

            def spy_label(cl, s):
                labelled.append(("child", s.text))
                assert not inside[0], "labelled during evaluation: %s" % s.text
                return label(cl, s)

            def spy_evaluate(cl, q, s, cap):
                assert cl is tables[0]
                for rule in cl.base.rules_for(q, s.label):
                    if rule.lookahead is not None:
                        guards.extend(c.text in cl.labels for c in s.children)
                inside[0] += 1
                try:
                    return evaluate(cl, q, s, cap)
                finally:
                    inside[0] -= 1

            monkeypatch.setattr(decision, "_label", spy_input)
            monkeypatch.setattr(machines, "_label", spy_label)
            monkeypatch.setattr(decision, "_evaluate", spy_evaluate)
            monkeypatch.setattr(machines, "_evaluate", spy_evaluate)
            verdict = check_functional_bounded(target, bound)
            assert verdict.status == FUNCTIONAL, target.name
            assert verdict.stats["single_output_inputs"] < verdict.stats["inputs_checked"], target.name
            # one class table for the whole check, and every guard found in its label memo
            assert all(cl is tables[0] for cl in tables)
            assert guards and all(guards), target.name
            # each input labelled once, and each subtree once below an input
            for kind in ("input", "child"):
                texts = [text for k, text in labelled if k == kind]
                assert len(texts) == len(set(texts)), (target.name, kind)
            assert sum(k == "input" for k, _ in labelled) == enumerated, target.name

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


@pytest.fixture(scope="module")
def keep_corpus(workspace):
    """(target, bound) pairs whose verdicts and counted stats the class count
    must keep: M of `random_pair` 0-299 at bound 6 and their stages at 5,
    `random_chain3` 0-99 at 5, and the fixture chains and their M at 3, 5
    and 7."""
    corpus = []
    for seed in range(300):
        t1, t2 = random_pair(seed)
        corpus += [(build_m(t1, t2)[0], 6), (t1, 5), (t2, 5)]
    corpus += [(random_chain3(seed), 5) for seed in range(100)]
    for chain in workspace.chains.values():
        m, _ = build_m(*chain.stages)
        corpus += [(target, bound) for target in (chain, m) for bound in (3, 5, 7)]
    return corpus


class TestClassCounts:
    """A one-stage check counts the trees of each size by subtree class."""

    def test_counts_equal_the_enumeration(self, keep_corpus):
        counted = states = 0
        for target, bound in keep_corpus:
            if isinstance(target, LookaheadTransducer):
                base, la = target.base, target.la
            elif isinstance(target, Transducer):
                base, la = target, None
            else:
                continue
            trees = all_trees(base.input_alphabet, bound)
            domain = [s for s in trees if dom_member(target, base.initial, s)]
            cl = machines._Classes(base, la)
            layers = machines._class_counts(cl, bound)
            for n, count in enumerate(layers, start=1):
                # every tree has one class, and the domain is the classes whose
                # `some` holds the initial state
                assert sum(count.values()) == sum(s.size == n for s in trees), (target.name, n)
                in_domain = sum(s.size == n for s in domain)
                assert sum(c for k, c in count.items() if base.initial.name in cl.classes[k][2]) == in_domain, (target.name, n)
            assert len(cl.counts) == bound  # the owner holds every size
            counted += len(domain)
            if la is not None:
                assert target.enumerate_domain(bound) == domain, target.name
                continue
            # the class table enumerates dom(q) for every state, not only the initial one
            for q in sorted(base.states):
                expected = domain if q == base.initial else [s for s in trees if dom_member(target, q, s)]
                assert domain_of(target, q, bound) == expected, (target.name, q.name)
                states += 1
        assert counted == 2494  # domain inputs of the one-stage targets: not vacuous
        assert states == 1191  # every state of the 600 plain stages

    def test_verdicts_and_stats_equal_the_reference(self, keep_corpus):
        for target, bound in keep_corpus:
            verdict = check_functional_bounded(target, bound)
            expected, _ = reference_check(target, bound)
            got = {key: verdict.stats[key] for key in expected.stats}
            assert (verdict.status, verdict.counterexample, got) == (expected.status, expected.counterexample, expected.stats), bound


def peak_mb(call):
    """The tracemalloc peak of one call above the memory in use before it, in
    MB of 2**20 bytes: what the call allocates, whatever the allocator does."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        tracemalloc.stop()


class TestMemoryGuards:
    def test_automaton_stage_of_the_quadratic_chain(self, workspace):
        chain = CompositionChain((workspace.machines["quadratic"], workspace.machines["quad_out_id"]))
        tree = t("a(" * 160 + "e" + ")" * 160)
        # 4.334 MB while the automaton stage rebuilt every tree it read;
        # 2.189 MB passing it through
        assert peak_mb(lambda: chain_outputs(chain, tree)) < 3

    def test_worked_pair_at_bound_11(self, worked_pair):
        m, _ = build_m(*worked_pair)
        # 0.852 MB while every input was enumerated; 0.014 MB counting by class
        assert peak_mb(lambda: check_functional_bounded(m, 11)) < 0.2


class TestAutomatonStages:
    """A plain automaton stage relabels in place: it passes each tree through,
    unbuilt, iff its initial state accepts it."""

    TEXT = """
    transducer grow {
      input { a:1, e:0 }
      output { a:1, e:0 }
      initial q
      rules { q(a(x1)) -> a(q(x1)) | e; q(e) -> e; }
    }
    transducer leaf {
      input { a:1, e:0 }
      output { a:1, e:0 }
      initial u
      rules { u(e) -> e; }
    }
    """

    @pytest.fixture
    def stages(self):
        return parse_workspace(self.TEXT).machines

    def test_domain_automaton_keeps_the_domain(self):
        for seed in range(200):
            t1, t2 = random_pair(seed)
            dom = domain_automaton(t2)
            assert dom.automaton, seed
            for s in all_trees(t1.input_alphabet, 5):
                kept = {o for o in staged_compose((t1,), s) if dom_member(t2, t2.initial, o)}
                assert chain_outputs(CompositionChain((t1, dom)), s) == kept, (seed, s.text)
                through = chain_outputs(CompositionChain((t1, dom, t2)), s)
                assert through == chain_outputs(CompositionChain((t1, t2)), s), (seed, s.text)

    def test_checks_through_a_domain_automaton(self):
        for seed in range(200):
            t1, t2 = random_pair(seed)
            verdict = check_functional_bounded(CompositionChain((t1, domain_automaton(t2), t2)), 5)
            expected = check_functional_bounded(CompositionChain((t1, t2)), 5)
            # the automaton's memo holds subtree classes, not outputs
            del verdict.stats["memo_entries"], expected.stats["memo_entries"]
            assert verdict == expected, seed

    def test_rejects_and_keeps(self, stages):
        grow, leaf = stages["grow"], stages["leaf"]
        assert chain_outputs(CompositionChain((grow, leaf)), t("a(a(e))")) == {t("e")}
        assert chain_outputs(CompositionChain((grow,)), t("a(a(e))")) == {t("e"), t("a(e)"), t("a(a(e))")}
        # as the first stage, and rejecting the input
        assert chain_outputs(leaf, t("a(e)")) == frozenset()
        assert chain_outputs(CompositionChain((leaf, grow)), t("a(e)")) == frozenset()
        s = t("e")
        (out,) = chain_outputs(CompositionChain((leaf, leaf)), s)
        assert out is s

    def test_cap(self, stages, monkeypatch):
        chain = CompositionChain((stages["grow"], stages["leaf"]))
        s = t("a(a(e))")
        monkeypatch.setattr(decision, "DEFAULT_OUTPUT_CAP", 3)
        assert chain_outputs(chain, s) == {t("e")}
        monkeypatch.setattr(decision, "DEFAULT_OUTPUT_CAP", 2)
        with pytest.raises(ResourceLimit, match="output set exceeds cap 2$"):
            chain_outputs(chain, s)

    def test_builds_no_tree(self, workspace, monkeypatch):
        quadratic, identity = workspace.machines["quadratic"], workspace.machines["quad_out_id"]
        s = t("a(a(a(e)))")
        assert not quadratic.automaton and identity.automaton
        builds = [0]
        init = Tree.__init__

        def spy_init(self, label, children=()):
            builds[0] += 1
            init(self, label, children)

        monkeypatch.setattr(Tree, "__init__", spy_init)
        got = []
        for stages in ((quadratic,), (quadratic, identity), (quadratic, identity, identity)):
            builds[0] = 0
            got.append((chain_outputs(CompositionChain(stages), s), builds[0]))
        assert got[0] == got[1] == got[2]
        assert got[0][1] > 0

    def test_a_check_makes_one_owner_per_stage(self, stages, worked_pair, monkeypatch):
        """An automaton first stage passes its inputs through by the class
        table that counts the domain: no second table."""
        made = []

        class Counted(machines._Classes):
            __slots__ = ()

            def __init__(self, base, *rest):
                made.append(base.name)
                super().__init__(base, *rest)

        monkeypatch.setattr(decision, "_Classes", Counted)
        grow, leaf = stages["grow"], stages["leaf"]
        m, _ = build_m(*worked_pair)
        targets = [
            (CompositionChain((leaf, grow)), ["leaf", "grow"]),
            (CompositionChain((grow, leaf, grow)), ["grow", "leaf", "grow"]),
            (grow, ["grow"]),
            (m, [m.base.name]),
        ]
        for target, names in targets:
            made.clear()
            check_functional_bounded(target, 4)
            assert made == names, names


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


@pytest.mark.usefixtures("no_probe")
class TestDroppedLookahead:
    """A reduction step of the check whose guards name only hat states that
    accept every tree keeps M's base without its look-ahead, and builds no
    power-set automaton, relabeling, reader or fused stage.  The check of a
    chain on itself is off: it refutes most of these chains before any
    step."""

    def test_universal_states_accept_every_tree(self, workspace):
        pairs = [random_pair(seed) for seed in range(300)] + [c.stages for c in workspace.chains.values()]
        certified = 0
        for t1, t2 in pairs:
            hat = build_hat_t1(t1, t2)
            universal = machines.universal_states(hat)
            trees = all_trees(hat.input_alphabet, 6)
            for q in hat.states:
                if q.name in universal:
                    certified += 1
                    for s in trees:
                        assert rewrite_translate(hat, s, q), (hat.name, q.name, s.text)
        assert certified == 140

    def test_the_shortcut_keeps_every_verdict(self, workspace, monkeypatch):
        """Status, inputs checked, counterexample and outputs are those of
        the paper's reduction, on `random_chain3` 0-99, the fixture pairs
        behind an identity automaton and the benchmark's rotation members."""
        _, bench = benchmark_modules()
        targets = [(random_chain3(seed), 5) for seed in range(100)]
        for chain in workspace.chains.values():
            ident = identity_automaton(chain.stages[0].input_alphabet, name="id0")
            targets += [(CompositionChain((ident, *chain.stages)), bound) for bound in (3, 5)]
        for seed in (1, 2, 3):
            targets += [(parse_workspace(ws.text).chains[ws.chain], ws.bound) for ws in bench.rotation(seed)]

        def results():
            got, dropped = [], 0
            for chain, bound in targets:
                verdict, reports = decide_functionality(chain, bound)
                cex = verdict.counterexample
                got.append((verdict.status, verdict.stats["inputs_checked"], cex and cex.input, cex and cex.outputs))
                dropped += [r.label for r in reports].count("look-ahead-dropped")
            return got, dropped

        shortcut, dropped = results()
        monkeypatch.setattr(constructions, "_lookahead_vacuous", lambda hat, base: False)
        paper, none_dropped = results()
        assert shortcut == paper
        assert (dropped, none_dropped) == (95, 0)

    DELETING = """
    transducer t1 {
      input { a:2, e:0 }
      output { f:2, e:0 }
      initial q
      rules {
        q(a(x1,x2)) -> f(r(x1),r(x2)) | f(r(x1),s(x2));
        q(e) -> e;
        r(a(x1,x2)) -> f(r(x1),r(x2)); r(e) -> e;
        s(a(x1,x2)) -> f(s(x1),s(x2)); s(e) -> e;
      }
    }
    transducer t2 { input { f:2, e:0 } output { g:1, e:0 } initial p rules { p(f(x1,x2)) -> g(p(x1)); p(e) -> e; } }
    transducer id { input { a:2, e:0 } output { a:2, e:0 } initial u rules { u(a(x1,x2)) -> a(u(x1),u(x2)); u(e) -> e; } }
    chain three { id, t1, t2 }
    """

    def test_the_dropped_lookahead_is_reported(self):
        """t2 deletes what t1 puts under x2 by r or by s, which accept
        every tree: two base rules that differ only in their annotations
        become one plain rule."""
        chain = parse_workspace(self.DELETING).chains["three"]
        verdict, reports = decide_functionality(chain, 5)
        assert verdict.status == FUNCTIONAL
        assert [r.label for r in reports] == [
            "domain-automaton",
            "restricted-first",
            "triple-product",
            "look-ahead-transducer",
            "look-ahead-dropped",
            "domain-automaton",
            "restricted-first",
            "triple-product",
            "look-ahead-transducer",
        ]
        m, dropped = reports[3].machine, reports[4]
        plain = dropped.machine
        assert m.la is reports[1].machine  # M over hat
        assert type(plain) is Transducer and plain.name == m.name
        assert dropped.states_before == len(m.base.states) + len(m.la.states)
        assert dropped.states_after == len(plain.states) == len(m.base.states)
        keys = [(r.state.name, r.symbol, r.rhs.text) for r in plain.rules]
        assert len(keys) == len(set(keys)) == len(m.base.rules) - 1
        assert set(keys) == {(r.state.name, r.symbol, r.rhs.text) for r in m.base.rules}
        assert all(r.lookahead is None and r.child_states == reference_child_states(r) for r in plain.rules)
        for s in all_trees(plain.input_alphabet, 5):
            assert plain.translate(s) == m.translate_la(s), s.text
        # the final pair is the first stage and the plain base
        assert reports[-1].machine.base.name == "M(%s,%s)" % (chain.stages[0].name, plain.name)

    @pytest.mark.parametrize("seed", [11, 23])
    def test_a_step_that_keeps_its_lookahead_fuses(self, seed):
        """Of `random_chain3` 0-99, only 11, 23, 28, 47, 50, 79, 84 and 89
        have a reduction whose look-ahead can fail: the check reports
        `build_m`'s five steps for the last pair, then the final pair of
        `reduce_chain`'s fused relabeling and reader."""
        chain = random_chain3(seed)
        verdict, reports = decide_functionality(chain, 5)
        assert [r.label for r in reports] == [
            "domain-automaton",
            "restricted-first",
            "triple-product",
            "look-ahead-automaton",
            "look-ahead-transducer",
            "domain-automaton",
            "restricted-first",
            "triple-product",
            "look-ahead-transducer",
        ]
        fused, reader = reduce_chain(chain)[0].stages
        assert reports[-1].machine.base.name == "M(%s,%s)" % (fused.name, reader.name)
        direct = check_functional_bounded(chain, 5)
        assert verdict.status == direct.status == NOT_FUNCTIONAL
        assert verdict.counterexample == direct.counterexample

    def test_long_rotation_chains(self):
        """T1;T1;T1;T2_2 reaches a verdict; each of its reductions drops its
        look-ahead.  Longer chains end in ResourceLimit, within 1 s."""
        chains = parse_workspace(rotation_chains_text([3, 4, 5])).chains
        verdict, reports = decide_functionality(chains["t1x3"], 3)
        assert verdict.status == NOT_FUNCTIONAL
        assert verdict.counterexample.input == t("d")
        assert [r.label for r in reports].count("look-ahead-dropped") == 2
        for k in (4, 5):
            start = time.perf_counter()
            with pytest.raises(ResourceLimit):
                decide_functionality(chains["t1x%d" % k], 3)
            assert time.perf_counter() - start < 1.0, k


def forking_chain(d: int) -> CompositionChain:
    """The d-chain: t1 writes a^d(e) on g, and t2 turns each a into b or c,
    so g has 2^d outputs."""
    text = """
    transducer deep { input { g:0 } output { a:1, e:0 } initial q rules { q(g) -> %s; } }
    transducer fork {
      input { a:1, e:0 }
      output { b:1, c:1, e:0 }
      initial p
      rules { p(a(x1)) -> b(p(x1)) | c(p(x1)); p(e) -> e; }
    }
    chain forking { deep, fork }
    """ % ("a(" * d + "e" + ")" * d)
    return parse_workspace(text).chains["forking"]


class TestRefutationOnTheChain:
    """`decide_functionality` checks a chain of two or more stages on
    itself, up to PROBE_SIZE and under PROBE_CAP, before any construction
    (`decision._refute`).  A counterexample there is the verdict, reported
    by one `chain-refuted` report whose machine is M, built on first read."""

    @staticmethod
    def targets(workspace):
        """`random_pair` 0-299 at 6, `random_chain3` 0-99 at 5, the fixture
        chains at 3 and 5, the benchmark's rotation members of seeds 1-3 and
        the dropping chain."""
        _, bench = benchmark_modules()
        targets = [(CompositionChain(random_pair(seed)), 6) for seed in range(300)]
        targets += [(random_chain3(seed), 5) for seed in range(100)]
        targets += [(chain, bound) for chain in workspace.chains.values() for bound in (3, 5)]
        for seed in (1, 2, 3):
            targets += [(parse_workspace(ws.text).chains[ws.chain], ws.bound) for ws in bench.rotation(seed)]
        targets.append((parse_workspace(DROPPING_CHAIN).chains["dropping"], 3))
        return targets

    def test_the_probe_keeps_every_verdict(self, workspace, monkeypatch):
        """Status, bound, inputs checked, size reached, counterexample input
        and both outputs are those of the check through M."""
        targets = self.targets(workspace)

        def results():
            got, refuted = [], []
            for i, (chain, bound) in enumerate(targets):
                verdict, reports = decide_functionality(chain, bound)
                cex = verdict.counterexample
                stats = verdict.stats["inputs_checked"], verdict.stats["max_size_reached"]
                got.append((verdict.status, verdict.bound, stats, cex and cex.input, cex and cex.outputs))
                if reports[0].label == "chain-refuted":
                    assert [r.label for r in reports] == ["chain-refuted"]
                    refuted.append(i)
            return got, refuted

        probed, refuted = results()
        monkeypatch.setattr(decision, "_refute", lambda chain, max_size: None)
        through_m, none_refuted = results()
        assert probed == through_m
        # 62 pairs, 15 chains, the 9 rotation members and the dropping chain
        groups = [sum(lo <= i < hi for i in refuted) for lo, hi in ((0, 300), (300, 400), (400, len(targets)))]
        assert (groups, none_refuted) == ([62, 15, 10], [])

    def test_long_rotation_chains_are_refuted_on_d(self, monkeypatch):
        """T1^3;T2_2 to T1^5;T2_2 fail on d, the first input of size 1,
        and no step of the check runs: T1^4 and T1^5, whose domain
        automata outgrow their cap through M, get their verdict too."""
        steps = []
        monkeypatch.setattr(decision, "_check_step", lambda chain, reports: steps.append(chain))
        chains = parse_workspace(rotation_chains_text([3, 4, 5])).chains
        for k in (3, 4, 5):
            start = time.perf_counter()
            verdict, reports = decide_functionality(chains["t1x%d" % k], 3)
            assert time.perf_counter() - start < 0.1, k
            assert (verdict.status, verdict.bound) == (NOT_FUNCTIONAL, 3)
            assert verdict.counterexample == decision.Counterexample(t("d"), (t("d"), t("e")))
            assert (verdict.stats["inputs_checked"], verdict.stats["max_size_reached"]) == (1, 1)
            (report,) = reports
            assert (report.label, report.name) == ("chain-refuted", ";".join(["t1"] * k + ["t2"]))
            assert {key: report.stats[key] for key in ("max_size_reached", "inputs_checked", "outputs_computed")} == {
                "max_size_reached": 1,
                "inputs_checked": 1,
                "outputs_computed": 2,
            }
        assert steps == []

    def test_the_report_builds_m_on_first_read(self, monkeypatch):
        """The report's machine is the M of the check through M, built by
        the same steps when it is first read, and kept."""
        chain = parse_workspace(rotation_chains_text([2])).chains["t1x2"]
        verdict, (report,) = decide_functionality(chain, 3)
        steps = []
        step = decision._check_step
        monkeypatch.setattr(decision, "_check_step", lambda chain, reports: steps.append(len(chain)) or step(chain, reports))
        m = report.machine
        assert steps == [3, 2] and report.machine is m
        monkeypatch.setattr(decision, "_refute", lambda chain, max_size: None)
        expected_verdict, reports = decide_functionality(chain, 3)
        expected = reports[-1].machine
        assert m.name == expected.name == "M(t1,M(t1,t2))"
        for got, want in ((m.base, expected.base), (m.la, expected.la)):
            assert (got.name, got.states, got.rules) == (want.name, want.states, want.rules)
        assert expected_verdict.counterexample == verdict.counterexample

    def test_the_probe_cap_admits_2_to_the_12_outputs(self):
        """The d-chain is refuted on g at d = 12; at d = 13, g has more
        outputs than PROBE_CAP, and the probe gives no verdict."""
        assert decision.PROBE_CAP == 2**12
        start = time.perf_counter()
        verdict, (report,) = decision._refute(forking_chain(12), 3)
        assert verdict.counterexample.input == t("g")
        assert verdict.counterexample.outputs == (t("b(" * 12 + "e" + ")" * 12), t("b(" * 11 + "c(e)" + ")" * 11))
        assert report.stats["outputs_computed"] == 2**12
        assert decision._refute(forking_chain(13), 3) is None
        assert time.perf_counter() - start < 1.0


@pytest.fixture(scope="module")
def final_pairs(workspace):
    """(t1, t2, bound): `random_pair` 0-299 at 6, the final pair of the
    reduced `random_chain3` 0-99 at 5, and the fixture chains at 3, 5 and
    7."""
    pairs = [(*random_pair(seed), 6) for seed in range(300)]
    pairs += [(*reduce_chain(random_chain3(seed))[0].stages, 5) for seed in range(100)]
    for chain in workspace.chains.values():
        pairs += [(*chain.stages, bound) for bound in (3, 5, 7)]
    return pairs


class TestMOverHat:
    """The final pair's M reads its guards through hat's own domain sets
    (`constructions._check_step`), `build_m`'s M through the power-set look-ahead
    automaton, trimmed: the same translation, domain, verdict and stats."""

    def test_agrees_with_build_m(self, final_pairs, no_probe):
        # without the check on the chain, which refutes pairs before M
        not_functional = domains = trees = 0
        for t1, t2, bound in final_pairs:
            m, _ = build_m(t1, t2)
            verdict, reports = decide_functionality(CompositionChain((t1, t2)), bound)
            over_hat = reports[-1].machine
            assert over_hat.la is reports[1].machine, t1.name  # hat itself
            expected = check_functional_bounded(m, bound)
            # the untrimmed base may have more states, and so other subtree classes
            for v in (verdict, expected):
                del v.stats["label_classes"], v.stats["label_transitions"]
            assert verdict == expected, (t1.name, bound)
            domain = m.enumerate_domain(bound)
            assert over_hat.enumerate_domain(bound) == domain, (t1.name, bound)
            for s in all_trees(t1.input_alphabet, 5):
                assert over_hat.translate_la(s) == m.translate_la(s), (t1.name, s.text)
                trees += 1
            not_functional += verdict.status == NOT_FUNCTIONAL
            domains += len(domain)
        # not vacuous
        assert (len(final_pairs), not_functional, domains, trees) == (409, 79, 1119, 2729)

    def test_listing_and_decomposition_need_build_m(self, worked_pair):
        # hat is no automaton: its rules cannot be read as a relabeling
        over_hat = decide_functionality(CompositionChain(worked_pair), 3)[1][-1].machine
        with pytest.raises(ValidationError, match="decompose_la needs a look-ahead automaton"):
            decompose_la(over_hat)
        with pytest.raises(ValidationError, match="only a look-ahead automaton has a listing"):
            serialize_machine(over_hat)

    def test_two_stage_builds_no_power_set(self, workspace, monkeypatch):
        automata, trims = [], []
        domain, trim = constructions.domain_automaton, machines._trim_lookahead

        def spy_domain(t, *args, **kwargs):
            automata.append(t.name)
            return domain(t, *args, **kwargs)

        def spy_trim(base, la):
            trims.append(base.name)
            return trim(base, la)

        monkeypatch.setattr(constructions, "domain_automaton", spy_domain)
        monkeypatch.setattr(machines, "_trim_lookahead", spy_trim)
        for chain in workspace.chains.values():
            automata.clear()
            verdict, reports = decide_functionality(chain, 5)
            assert automata == [chain.stages[1].name] and trims == [], chain.stages[0].name
            labels = ["domain-automaton", "restricted-first", "triple-product", "look-ahead-transducer"]
            assert [r.label for r in reports] == labels
            assert reports[-1].states_before == reports[-1].states_after
        # build_m builds the power-set automaton and trims once
        automata.clear()
        build_m(*chain.stages)
        assert automata == [chain.stages[1].name, "hat(%s)" % chain.stages[0].name]
        assert len(trims) == 1


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
        with pytest.raises(AlphabetMismatch, match="is not ground"):
            check_ground_over(trace.final, t1.output_alphabet)

    def test_first_branches_of_every_fixture_machine_are_pinned(self, workspace):
        """The first 200 branches of every plain fixture machine on every
        input up to size 6: each step's address, rule and form, each final
        form, and whether branch 0 is complete, as one digest."""
        digest = hashlib.sha256()
        branches = 0
        for name, machine in sorted(workspace.machines.items()):
            if not isinstance(machine, Transducer):
                continue
            for tree in all_trees(machine.input_alphabet, 6):
                for steps, final in islice(derivations(machine, tree), 200):
                    steps = [(s.node.path, s.rule_index, s.form.text) for s in steps]
                    digest.update(repr((name, tree.text, steps, final.text)).encode())
                    branches += 1
                digest.update(repr(trace_derivation(machine, tree).complete).encode())
        assert branches == 1919
        assert digest.hexdigest() == "8a833baf8eff7634dc66bdf9ca36df98dccea947f8c28267d712477e04cbe222"

    def test_final_is_a_translation_member(self, copy_pair):
        t1, _ = copy_pair
        for branch in range(3):
            trace = trace_derivation(t1, t("a(e)"), branch=branch)
            if trace.complete:
                assert trace.final in t1.translate(t("a(e)"))
