import hashlib
import json
import pathlib
import re
import sys
import time

import pytest

from ttc import ResourceLimit, Transducer, decide_functionality, decision, parse_tree, parse_workspace, trace_derivation
from ttc.cli import main
from ttc.render import trace_dot, trace_text, verdict_json

from .conftest import rotation_chains_text
from .test_surface import CLI_CALLS

DATA = pathlib.Path(__file__).parent / "data"
FIXTURES = str(DATA / "fixtures.ttc")

NAIVE_N = """
transducer naive_n {
  input { a:1, e:0 }
  output { f:2, e:0, e':0 }
  initial p
  rules {
    p(a(x1)) -> f(p'(x1), p''(x1));
    p'(e) -> e;
    p''(e) -> e | e';
  }
}
"""


@pytest.fixture
def naive_file(tmp_path):
    path = tmp_path / "naive.ttc"
    path.write_text(NAIVE_N, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


class TestCheck:
    def test_functional_chain_json(self, capsys, copy_chain):
        status, out, _ = run_cli(
            capsys, "-w", FIXTURES, "check", "--chain", "copying", "--max-size", "4", "--format", "json"
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["status"] == "functional-up-to-bound"
        assert doc["bound"] == 4
        assert doc["counterexample"] is None
        del doc["reports"]
        assert doc == verdict_json(decide_functionality(copy_chain, 4)[0])

    def test_not_functional_exit_code(self, capsys, naive_file):
        status, out, _ = run_cli(capsys, "-w", naive_file, "check", "--machine", "naive_n", "--format", "json")
        assert status == 1
        doc = json.loads(out)
        assert doc["status"] == "not-functional"
        assert doc["counterexample"]["input"] == "a(e)"
        assert sorted(doc["counterexample"]["outputs"]) == ["f(e,e')", "f(e,e)"]

    def test_text_format(self, capsys):
        status, out, _ = run_cli(capsys, "-w", FIXTURES, "check", "--chain", "deleting")
        assert status == 0
        assert "functional-up-to-bound" in out

    def test_lookahead_machine_target(self, capsys):
        status, out, _ = run_cli(
            capsys, "-w", FIXTURES, "check", "--machine", "quadratic_la", "--max-size", "3"
        )
        assert status == 0
        assert "functional-up-to-bound" in out

    def test_one_stage_chain_is_the_machine(self, capsys, tmp_path, workspace):
        names = [n for n, m in workspace.machines.items() if isinstance(m, Transducer)]
        chains = tmp_path / "chains.ttc"
        chains.write_text("".join("chain one_%s { %s }\n" % (n, n) for n in names), encoding="utf-8")
        statuses = set()
        for name in names:
            for fmt in ("json", "text"):
                common = ("-w", FIXTURES, "-w", str(chains), "check", "--max-size", "4", "--format", fmt)
                by_machine = run_cli(capsys, *common, "--machine", name)
                assert run_cli(capsys, *common, "--chain", "one_" + name) == by_machine, (name, fmt)
                statuses.add(by_machine[0])
        assert statuses == {0, 1}

    def test_long_rotation_chains(self, capsys, tmp_path, no_probe):
        """Without the check of a chain on itself, T1;T1;T1;T2_2 reaches a
        verdict, and its reports show the two reductions that dropped their
        look-ahead; T1^4;T2_2 and T1^5;T2_2 end in an error within 1 s that
        names the automaton that outgrew its cap and the user's stages that
        the step was folding: the pair at chain length 2 and 3."""
        path = tmp_path / "rotation.ttc"
        path.write_text(rotation_chains_text([3, 4, 5]), encoding="utf-8")
        common = ("-w", str(path), "check", "--max-size", "3", "--chain")
        status, out, _ = run_cli(capsys, *common, "t1x3")
        assert status == 1
        assert "not-functional (bound 3)" in out and "counterexample input: d" in out
        assert [line.split(":")[0] for line in out.splitlines()].count("look-ahead-dropped") == 2
        status, out, _ = run_cli(capsys, *common, "t1x3", "--format", "json")
        doc = json.loads(out)
        assert doc["counterexample"]["input"] == "d"
        assert [r["label"] for r in doc["reports"]].count("look-ahead-dropped") == 2
        for k, first in ((4, 1), (5, 2)):
            start = time.perf_counter()
            status, out, err = run_cli(capsys, *common, "t1x%d" % k)
            assert time.perf_counter() - start < 1.0, k
            assert status == 2 and out == ""
            assert err.splitlines() == [
                "error: reducing stages %d-%d of %d: dom(M(t1,M(t1,M(t1,t2)))): domain automaton exceeds 60000 rules"
                % (first, k + 1, k + 1)
            ]

    def test_long_rotation_chains_are_refuted_on_the_chain(self, capsys, tmp_path, monkeypatch):
        """T1^3;T2_2 to T1^5;T2_2 are refuted on d, their first input, with
        one chain-refuted report in text and JSON, and no construction."""
        steps = []
        monkeypatch.setattr(decision, "_check_step", lambda chain, reports: steps.append(chain))
        path = tmp_path / "rotation.ttc"
        path.write_text(rotation_chains_text([3, 4, 5]), encoding="utf-8")
        common = ("-w", str(path), "check", "--max-size", "3", "--chain")
        for k in (3, 4, 5):
            name = ";".join(["t1"] * k + ["t2"])
            status, out, _ = run_cli(capsys, *common, "t1x%d" % k)
            assert status == 1
            lines = out.splitlines()
            assert lines[0].startswith("chain-refuted: %s, states %d -> %d (" % (name, k + 2, k + 2))
            assert lines[1:] == [
                "not-functional (bound 3)",
                "counterexample input: d",
                "  output: d",
                "  output: e",
                "inputs checked: 1, outputs computed: 2",
            ]
            status, out, _ = run_cli(capsys, *common, "t1x%d" % k, "--format", "json")
            assert status == 1
            doc = json.loads(out)
            assert (doc["status"], doc["bound"], doc["counterexample"]) == ("not-functional", 3, {"input": "d", "outputs": ["d", "e"]})
            (report,) = doc["reports"]
            assert report["label"] == "chain-refuted" and report["machine"] == name
            assert report["provenance"] == {} and report["states_before"] == report["states_after"] == k + 2
            del report["stats"]["elapsed_ms"]
            assert report["stats"] == {"max_size_reached": 1, "inputs_checked": 1, "outputs_computed": 2}
        assert steps == []

    def test_a_refuted_chain_builds_its_machine_only_when_read(self, capsys, tmp_path, monkeypatch):
        """The M of T1^4;T2_2 outgrows a cap: reading the chain-refuted
        report's machine raises it, with the step, while `ttc check` in each
        format gives the chain's verdict without reading it."""
        path = tmp_path / "rotation.ttc"
        path.write_text(rotation_chains_text([4]), encoding="utf-8")
        verdict, (report,) = decide_functionality(parse_workspace(path.read_text()).chains["t1x4"], 3)
        assert not verdict.functional and report.label == "chain-refuted"
        with pytest.raises(ResourceLimit) as exc:
            report.machine
        assert str(exc.value) == (
            "reducing stages 1-5 of 5: dom(M(t1,M(t1,M(t1,t2)))): domain automaton exceeds 60000 rules"
        )
        reads = []
        monkeypatch.setattr(decision._ChainRefuted, "machine", property(reads.append))
        for fmt in ("text", "json", "dot"):
            status, _, _ = run_cli(capsys, "-w", str(path), "check", "--max-size", "3", "--chain", "t1x4", "--format", fmt)
            assert status == 1, fmt
        assert reads == []

    def test_chain_names_a_lookahead_machine(self, capsys):
        status, _, err = run_cli(capsys, "-w", FIXTURES, "check", "--chain", "quadratic_la")
        assert status == 2
        assert err.splitlines() == ["error: 'quadratic_la' is a look-ahead transducer, not a chain: use --machine"]

    def test_machine_names_a_chain(self, capsys):
        status, _, err = run_cli(capsys, "-w", FIXTURES, "check", "--machine", "worked")
        assert status == 2
        assert err.splitlines() == ["error: 'worked' is a chain, not a machine"]


class TestOptions:
    """A command accepts only the options and formats it reads, and needs
    the one target it reads: run and check exactly one of --machine and
    --chain."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["domaut", "--machine", "quadratic", "--max-size", "3"],
            ["run", "--machine", "quadratic", "--input", "e", "--format", "dot"],
            ["run", "--machine", "quadratic", "--chain", "copying", "--input", "e"],
            ["check", "--machine", "quadratic", "--chain", "copying"],
            ["run", "--input", "e"],
            ["check"],
            ["domaut"],
            ["decompose-la"],
            ["trace", "--input", "e"],
            ["reduce"],
        ],
        ids=[
            "domaut-max-size",
            "run-dot",
            "run-both-targets",
            "check-both-targets",
            "run-no-target",
            "check-no-target",
            "domaut-no-machine",
            "decompose-la-no-machine",
            "trace-no-machine",
            "reduce-no-chain",
        ],
    )
    def test_unread_option_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(["-w", FIXTURES, *argv])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("usage: ttc ")
        assert "error: " in out.err


class TestRun:
    def test_machine_outputs(self, capsys, naive_file):
        status, out, _ = run_cli(capsys, "-w", naive_file, "run", "--machine", "naive_n", "--input", "a(e)")
        assert status == 0
        assert sorted(out.splitlines()) == ["f(e,e')", "f(e,e)"]

    def test_chain_outputs(self, capsys):
        status, out, _ = run_cli(capsys, "-w", FIXTURES, "run", "--chain", "copying", "--input", "a(e)")
        assert status == 0
        assert out.strip() == "f(e,e)"

    def test_lookahead_machine(self, capsys):
        status, out, _ = run_cli(
            capsys, "-w", FIXTURES, "run", "--machine", "quadratic_la", "--input", "a(e)", "--format", "json"
        )
        assert status == 0
        assert json.loads(out)["outputs"] == ["f(e,e)"]

    def test_empty_translation(self, capsys):
        status, out, _ = run_cli(capsys, "-w", FIXTURES, "run", "--chain", "deleting", "--input", "a(e,e)")
        assert status == 0
        assert out.strip() == "(empty)"


class TestTrace:
    def test_text(self, capsys):
        status, out, _ = run_cli(capsys, "-w", FIXTURES, "trace", "--machine", "quadratic", "--input", "a(a(e))")
        assert status == 0
        assert out.startswith("q0(a(a(e)))")
        assert "complete" in out

    def test_dot(self, capsys):
        status, out, _ = run_cli(
            capsys, "-w", FIXTURES, "trace", "--machine", "quadratic", "--input", "a(a(e))", "--format", "dot"
        )
        assert status == 0
        assert out.startswith("digraph")
        assert out.count("->") == 6

    def test_branch_flag(self, capsys):
        _, out0, _ = run_cli(capsys, "-w", FIXTURES, "trace", "--machine", "quadratic", "--input", "a(e)")
        _, out1, _ = run_cli(
            capsys, "-w", FIXTURES, "trace", "--machine", "quadratic", "--input", "a(e)", "--branch", "1"
        )
        assert out0 != out1

    def test_a_derivation_of_any_length(self, capsys):
        """A spine of 45 a's takes 1,081 steps, one Python frame each when
        the enumeration recursed per step."""
        spine = "a(" * 45 + "e" + ")" * 45
        status, out, _ = run_cli(
            capsys, "-w", FIXTURES, "trace", "--machine", "quadratic", "--input", spine, "--format", "json"
        )
        assert status == 0
        doc = json.loads(out)
        assert len(doc["steps"]) == 1081 and doc["complete"]

    def test_a_branch_past_the_budget_is_a_resource_limit(self, capsys):
        """Branch 100,000 of a spine of 10 a's lies past `TRACE_BUDGET`
        forms, which took 20 s to walk when nothing bounded it."""
        spine = "a(" * 10 + "e" + ")" * 10
        start = time.perf_counter()
        status, out, err = run_cli(
            capsys, "-w", FIXTURES, "trace", "--machine", "quadratic", "--input", spine, "--branch", "100000"
        )
        assert time.perf_counter() - start < 1.0
        assert (status, out) == (2, "")
        assert err.splitlines() == ["error: trace visits more than %d sentential forms, on branch 1683" % decision.TRACE_BUDGET]

    def test_a_deep_sentential_form_renders(self, workspace):
        """Each form of `quad_out_id` on a spine of 600 a's is 600 deep; its
        text and DOT renderings used to recurse once per level."""
        spine = parse_tree("a(" * 600 + "e" + ")" * 600)
        trace = trace_derivation(workspace.machines["quad_out_id"], spine)
        assert trace.complete and trace.final == spine
        text, dot = trace_text(trace), trace_dot(trace)
        assert text.splitlines()[-2].endswith("=> %s" % spine.text)
        assert dot.count("->") == len(trace.steps) == 601

    def test_negative_branch(self, capsys):
        status, out, err = run_cli(
            capsys, "-w", FIXTURES, "trace", "--machine", "quadratic", "--input", "a(e)", "--branch", "-1"
        )
        assert status == 2
        assert out == ""
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if line.startswith("error:")] == ["error: branch must be >= 0"]


DEEP_RHS = "a(" * 1000 + "e" + ")" * 1000


@pytest.fixture
def deep_file(tmp_path):
    """A plain machine and a look-ahead machine over it, each with the one
    rule q(g) -> a(a(...a(e)...)), nested 1,000 deep."""
    path = tmp_path / "deep.ttc"
    path.write_text(
        """
        transducer deep { input { g:0 } output { a:1, e:0 } initial q rules { q(g) -> %s; } }
        transducer gla { input { g:0 } output { g:0 } initial l rules { l(g) -> g; } }
        lookahead deep_la { base deep la gla rules { q(g) -> %s; } }
        """
        % (DEEP_RHS, DEEP_RHS),
        encoding="utf-8",
    )
    return str(path)


class TestDeepRightHandSides:
    """A right-hand side deeper than Python's default recursion limit is
    traced and written as JSON, each of which recursed once per level."""

    def test_trace(self, capsys, deep_file):
        for fmt in ("text", "json", "dot"):
            status, out, err = run_cli(capsys, "-w", deep_file, "trace", "--machine", "deep", "--input", "g", "--format", fmt)
            assert (status, err) == (0, ""), fmt
            assert DEEP_RHS in out

    def test_decompose_la_json(self, capsys, deep_file):
        status, out, err = run_cli(capsys, "-w", deep_file, "decompose-la", "--machine", "deep_la", "--format", "json")
        assert (status, err) == (0, "")
        # reading it back takes a deeper stack than writing it now does
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(5000)
        try:
            doc = json.loads(out)
            assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        finally:
            sys.setrecursionlimit(limit)
        node, depth = doc["reader"]["rules"][0]["rhs"], 1
        while node["children"]:
            (node,) = node["children"]
            depth += 1
        assert (depth, node["symbol"]) == (1001, "e")


class TestConstructionCommands:
    def test_domaut(self, capsys):
        status, out, _ = run_cli(capsys, "-w", FIXTURES, "domaut", "--machine", "ex4_t2")
        assert status == 0
        assert "transducer" in out

    def test_hat_json(self, capsys):
        status, out, _ = run_cli(
            capsys, "-w", FIXTURES, "hat", "--t1", "ex4_t1", "--t2", "ex4_t2", "--format", "json"
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["kind"] == "transducer"
        assert doc["initial"] == "(q0,{p0})"

    def test_product(self, capsys):
        status, out, _ = run_cli(capsys, "-w", FIXTURES, "product", "--t1", "copy_t1", "--t2", "copy_t2")
        assert status == 0
        assert "rules" in out

    def test_build_m_reports(self, capsys):
        status, out, _ = run_cli(
            capsys, "-w", FIXTURES, "build-m", "--t1", "ex4_t1", "--t2", "ex4_t2", "--format", "json"
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["kind"] == "lookahead-transducer"
        assert [r["label"] for r in doc["reports"]] == [
            "domain-automaton",
            "restricted-first",
            "triple-product",
            "look-ahead-automaton",
            "look-ahead-transducer",
        ]

    def test_build_m_then_decompose(self, capsys, tmp_path):
        built = tmp_path / "m.ttc"
        status, _, _ = run_cli(
            capsys, "-w", FIXTURES, "build-m", "--t1", "ex4_t1", "--t2", "ex4_t2", "--output", str(built)
        )
        assert status == 0
        # strip the report prefix lines before reparsing
        lines = built.read_text(encoding="utf-8").splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith(("transducer ", "# ")))
        cleaned = tmp_path / "m_only.ttc"
        cleaned.write_text("\n".join(lines[start:]) + "\n", encoding="utf-8")
        status, out, _ = run_cli(
            capsys, "-w", str(cleaned), "decompose-la", "--machine", "M_ex4_t1_ex4_t2", "--format", "json"
        )
        assert status == 0
        doc = json.loads(out)
        assert set(doc) == {"relabeling", "reader"}

    def test_dot_output_is_only_graphs(self, capsys):
        # the text reports would come before `digraph` and break the DOT file
        status, out, _ = run_cli(
            capsys, "-w", FIXTURES, "build-m", "--t1", "ex4_t1", "--t2", "ex4_t2", "--format", "dot"
        )
        assert status == 0
        assert out.startswith("digraph machine {")
        assert out.count("digraph") == 1
        status, out, _ = run_cli(capsys, "--seed", "0", "reduce", "--chain", "rnd_chain3", "--format", "dot")
        assert status == 0
        assert out.startswith("digraph machine {")
        # one graph per stage of the reduced two-stage chain, no text listing
        assert out.count("digraph machine {") == 2
        assert "transducer" not in out and " ms)" not in out

    def test_fuse(self, capsys):
        status, out, _ = run_cli(capsys, "-w", FIXTURES, "fuse", "--t1", "quadratic", "--t2", "quad_out_id")
        assert status == 0
        assert "transducer" in out

    def test_reduce_requires_three(self, capsys):
        status, _, err = run_cli(capsys, "-w", FIXTURES, "reduce", "--chain", "copying")
        assert status == 2
        assert "three stages" in err


class TestSeededMachines:
    def test_seed_injects_random_machines(self, capsys):
        status, out, _ = run_cli(capsys, "--seed", "7", "check", "--chain", "rnd_pair", "--format", "json")
        assert status in (0, 1)
        assert json.loads(out)["status"] in ("functional-up-to-bound", "not-functional")
        status, out, _ = run_cli(capsys, "--seed", "7", "domaut", "--machine", "rnd_t2")
        assert status == 0 and "transducer" in out

    def test_seed_is_deterministic(self, capsys):
        def normalized(text):
            doc = json.loads(text)
            for report in doc.get("reports", ()):
                report["stats"].pop("elapsed_ms", None)
            return doc

        _, out1, _ = run_cli(capsys, "--seed", "11", "check", "--chain", "rnd_chain3", "--format", "json")
        _, out2, _ = run_cli(capsys, "--seed", "11", "check", "--chain", "rnd_chain3", "--format", "json")
        assert normalized(out1) == normalized(out2)

    def test_seed_refuses_to_redefine_a_workspace_name(self, capsys, tmp_path):
        clash = tmp_path / "clash.ttc"
        clash.write_text(
            "transducer rnd_t1 { input { e:0 } output { e:0 } initial q rules { q(e) -> e; } }\n"
            "chain rnd_pair { rnd_t1 }\n",
            encoding="utf-8",
        )
        status, out, err = run_cli(capsys, "-w", str(clash), "--seed", "1", "run", "--machine", "rnd_t1", "--input", "e")
        assert (status, out) == (2, "")
        assert err.splitlines() == ["error: --seed adds 'rnd_t1', 'rnd_pair', which the workspace already defines"]


class TestErrors:
    def test_unknown_machine(self, capsys):
        status, _, err = run_cli(capsys, "-w", FIXTURES, "run", "--machine", "ghost", "--input", "e")
        assert status == 2
        assert "ghost" in err

    def test_syntax_error_in_workspace(self, capsys, tmp_path):
        bad = tmp_path / "bad.ttc"
        bad.write_text("transducer oops {", encoding="utf-8")
        status, _, err = run_cli(capsys, "-w", str(bad), "check", "--chain", "x")
        assert status == 2
        assert "error" in err

    def test_syntax_error_names_its_workspace_file(self, capsys, tmp_path):
        ok, bad = tmp_path / "ok.ttc", tmp_path / "bad.ttc"
        ok.write_text("transducer a { input { e:0 } output { e:0 } initial q rules { q(e) -> e; } }\n", encoding="utf-8")
        bad.write_text("transducer b { input { e:0 } output { e:0 } initial q rules { q(e) -> ; } }\n", encoding="utf-8")
        status, out, err = run_cli(capsys, "-w", str(ok), "-w", str(bad), "check", "--machine", "a")
        assert (status, out) == (2, "")
        assert err.splitlines() == ["error: %s: line 1, column 71: expected a symbol name" % bad]

    def test_syntax_error_in_the_input_tree_names_it(self, capsys):
        status, out, err = run_cli(capsys, "-w", FIXTURES, "run", "--machine", "quadratic", "--input", "a(e")
        assert (status, out) == (2, "")
        assert err.splitlines() == ["error: --input: line 1, column 4: expected ')' or ','"]

    def test_bad_input_tree(self, capsys):
        lines = {
            "zz(e)": "error: symbol zz is not in the input alphabet",
            "a(e,e)": "error: symbol a has rank 1 but 2 children",
        }
        for target in (("--machine", "quadratic"), ("--machine", "quadratic_la"), ("--chain", "copying")):
            for tree, line in lines.items():
                status, out, err = run_cli(capsys, "-w", FIXTURES, "run", *target, "--input", tree)
                assert (status, out, err.splitlines()) == (2, "", [line]), (target, tree)

    def test_workspace_not_in_utf8_is_an_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.ttc"
        bad.write_bytes(b"transducer t { input { e:0 } output { e:0 } initial q rules { q(e) -> e; } }\n\xff\n")
        status, out, err = run_cli(capsys, "-w", str(bad), "check", "--machine", "t")
        assert (status, out) == (2, "")
        assert "Traceback" not in err
        assert err.splitlines() == [
            "error: %s is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 77: invalid start byte" % bad
        ]

    def test_symbol_of_high_rank_ends_in_a_verdict(self, capsys, tmp_path):
        """The one input of size 1,201 over a:1200 is a(e,...,e), outside
        the domain, which holds only e."""
        path = tmp_path / "wide.ttc"
        path.write_text(
            "transducer t { input { a:1200, e:0 } output { e:0 } initial q rules { q(e) -> e; } }\n", encoding="utf-8"
        )
        status, out, err = run_cli(capsys, "-w", str(path), "check", "--machine", "t", "--max-size", "1201")
        assert (status, err) == (0, "")
        assert out.splitlines()[0] == "functional-up-to-bound (bound 1201)"

    def test_deep_input_is_an_error_not_a_verdict(self, capsys):
        spine = "a(" * 1999 + "e" + ")" * 1999
        status, _, err = run_cli(capsys, "-w", FIXTURES, "run", "--machine", "quadratic", "--input", spine)
        assert status == 2
        assert any(line.startswith("error: ") for line in err.splitlines())

    @pytest.mark.parametrize("command", ["hat", "product", "fuse", "build-m"])
    @pytest.mark.parametrize(
        "pair", [("quadratic", "quadratic_la"), ("quadratic_la", "quadratic")], ids=["t2-la", "t1-la"]
    )
    def test_lookahead_machine_in_a_pair_command(self, capsys, command, pair):
        status, _, err = run_cli(capsys, "-w", FIXTURES, command, "--t1", pair[0], "--t2", pair[1])
        assert status == 2
        assert "Traceback" not in err
        assert err.splitlines() == ["error: %s needs plain transducers" % command]

    @pytest.mark.parametrize("command", ["hat", "product", "build-m"])
    def test_alphabet_mismatch_names_the_given_machines(self, capsys, command):
        status, _, err = run_cli(capsys, "-w", FIXTURES, command, "--t1", "quadratic", "--t2", "ex4_t2")
        assert status == 2
        assert err.splitlines() == ["error: output alphabet of quadratic differs from input alphabet of ex4_t2"]

    def test_product_rhs_over_the_rule_cap_names_the_construction(self, capsys, tmp_path):
        """t2 translates t1's one right-hand side a^20(e) in 2^20 ways, more
        than the triple product may have rules: the error names the step,
        the product, the hat rule and the cap, in under 1 s."""
        path = tmp_path / "forking.ttc"
        path.write_text(
            """
            transducer deep { input { g:0 } output { a:1, e:0 } initial q rules { q(g) -> %s; } }
            transducer fork {
              input { a:1, e:0 }
              output { b:1, c:1, e:0 }
              initial p
              rules { p(a(x1)) -> b(p(x1)) | c(p(x1)); p(e) -> e; }
            }
            chain forking { deep, fork }
            """
            % ("a(" * 20 + "e" + ")" * 20),
            encoding="utf-8",
        )
        start = time.perf_counter()
        status, _, err = run_cli(capsys, "-w", str(path), "check", "--chain", "forking", "--max-size", "3")
        assert time.perf_counter() - start < 1.0
        assert status == 2
        assert err.splitlines() == [
            "error: reducing stages 1-2 of 2: N(deep,fork): rule (q,{p})(g) of hat(deep): output set exceeds cap 60000"
        ]

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        status, out, _ = run_cli(
            capsys,
            "-w",
            FIXTURES,
            "check",
            "--chain",
            "copying",
            "--format",
            "json",
            "--output",
            str(target),
        )
        assert status == 0
        assert out == ""
        assert json.loads(target.read_text())["status"] == "functional-up-to-bound"


# sha256 of "<exit status>\n<stdout>" for every CLI_CALLS entry in each of its
# formats on the fixtures, report times masked
PINNED_OUTPUT = {
    ('run --machine quadratic --input a(a(e))', 'text'): '0183c8b85e46c8bbcc306fc6b7596aafec0894d60ff93f4677af4de23a2081e2',
    ('run --machine quadratic --input a(a(e))', 'json'): '9a00badfd97628e6123141bf22d233502932a75e3f8dc70ae58b159086cd2aec',
    ('run --machine quadratic_la --input a(a(e))', 'text'): '0183c8b85e46c8bbcc306fc6b7596aafec0894d60ff93f4677af4de23a2081e2',
    ('run --machine quadratic_la --input a(a(e))', 'json'): '9a00badfd97628e6123141bf22d233502932a75e3f8dc70ae58b159086cd2aec',
    ('run --chain copying --input a(e)', 'text'): '6af452a58592bc7f06d24de3b17fca9f61f78edf2d89f10d848dcb5be0137702',
    ('run --chain copying --input a(e)', 'json'): 'f2e2889b8644eae7f934476d88113262a89476b24de3a1935643746d702bf710',
    ('domaut --machine quadratic', 'text'): 'a9ddfd6638971f81abe4baa979a31c0b179c5567a988ecdd72b8b87f5276c65d',
    ('domaut --machine quadratic', 'json'): 'e35aba0261ca5adce6b749168992ad07df29c4f74f164b0428b05b65f0af2928',
    ('domaut --machine quadratic', 'dot'): 'fcd8859eecc64891f8711491f1e1605525a794fff45678d9aaa56233164dc294',
    ('hat --t1 ex4_t1 --t2 ex4_t2', 'text'): '2177f7ed9d4fe673286137b1066f6f3b5fcae5802777dcfa4c27a5b17f13e9fb',
    ('hat --t1 ex4_t1 --t2 ex4_t2', 'json'): '1e11fb4c74f7855c99a1b0e8f4f90f3b4edd12df08d967b9ccad18f0b35ef3f3',
    ('hat --t1 ex4_t1 --t2 ex4_t2', 'dot'): 'ac9bc7ea0d96f0ecea5b2fc0f85ebd84aec0aeea042398f01906dc8a18e03ce9',
    ('product --t1 ex4_t1 --t2 ex4_t2', 'text'): 'b8c2db302d4af6e9b91aab4e6b997558e71e3d92dbbd732d13aebd14d4d72abf',
    ('product --t1 ex4_t1 --t2 ex4_t2', 'json'): 'fbe826dc5312218f25f7291962ace1e1edb411a221ba3e1c309ad266c6a6a53e',
    ('product --t1 ex4_t1 --t2 ex4_t2', 'dot'): '58ecf3dc2a390ff172752c9a20cf799697b3c6fb303cfbe8c82b2bf10d1a4365',
    ('build-m --t1 ex4_t1 --t2 ex4_t2', 'text'): '5bdfd44737ef202244f78742782658f3f5c3940aea0014c2fa4925b1a1248a68',
    ('build-m --t1 ex4_t1 --t2 ex4_t2', 'json'): '55c590ba2d2ee76adee7bd3f4eac4fb3c3772e6a9b81322aa86fc297e8ba8cff',
    ('build-m --t1 ex4_t1 --t2 ex4_t2', 'dot'): 'd4c335bbdea8377283a38b28f49c9fcf1f495b4213469cc121ec5ba730856aec',
    ('decompose-la --machine quadratic_la', 'text'): 'd73f06fbb20d5b3269b06b367c924fe136998ec4373a1e5e1333cf5ef1fc926a',
    ('decompose-la --machine quadratic_la', 'json'): '51eaf0ec253c4d8a734af71cb18adcb5a6c78744a4cf8ac6d483b6657076b581',
    ('decompose-la --machine quadratic_la', 'dot'): '1c4d6675370efb326cfc2692d07fd67b38df4e31d723f577f3a8b93322cdc2e1',
    ('fuse --t1 quadratic --t2 quad_out_id', 'text'): '2b40fab35baa49ab186c1006ff61a3b87d728cde09dc654354be380e3032d212',
    ('fuse --t1 quadratic --t2 quad_out_id', 'json'): '4c99efe054559b45e18100f49455e94b197b81a98ce2aca01085c4e553b68a15',
    ('fuse --t1 quadratic --t2 quad_out_id', 'dot'): '099cea10bd30b837d4827a75c4e65d1fa8a1450b1638ed770b60718234248957',
    ('--seed 1 reduce --chain rnd_chain3', 'text'): 'a38dcd14321219c08efc8e50bcf901d36274f3877e58b921f9718a145c9a346c',
    ('--seed 1 reduce --chain rnd_chain3', 'json'): '5ec2b155761e73bae574c0aed3fdfed7622de55b012f2878754d3660341b1fef',
    ('--seed 1 reduce --chain rnd_chain3', 'dot'): 'b46c884f46300c97041d51554311d457ec6e31dc9e864a3bf2b889b8ffe012c2',
    ('check --chain worked', 'text'): 'a320572ac85c8e56b5c0cf7a1c22bcbf65668016c1a83c46002b168f8d20462f',
    ('check --chain worked', 'json'): 'ef62396dc66d09e130a19602ae65e673b15d1b25a3a9740e99085ca530563a17',
    ('check --chain worked', 'dot'): 'c58cf1803058537a26ba6be9cd44dbcd07f31fd6fc135c205a5d31c7a77a02b7',
    ('--seed 1 check --chain rnd_pair', 'text'): '0ab23e3f2e9cc33a1a53141f08c5a98726148c45b7aa2a49cb34e7153bdd7550',
    ('--seed 1 check --chain rnd_pair', 'json'): '57f07085d66ed6aadd760fbe6a6250599e7104c24a148aa0d5a2e696061025f0',
    ('--seed 1 check --chain rnd_pair', 'dot'): 'c5d4ac847f9b1c185d5f6fbdf748ac9301e4883069eba3c57756045442ae1949',
    ('check --machine quadratic_la', 'text'): '7d39754add38630d5545468ea2dc02749fa2d6cc856e7400c9e5219eedc01be6',
    ('check --machine quadratic_la', 'json'): '8fd11b19cfe0de55f700c887ffa44d158a07d2f5cbf43d65e503669fe5321a88',
    ('check --machine quadratic_la', 'dot'): 'c58cf1803058537a26ba6be9cd44dbcd07f31fd6fc135c205a5d31c7a77a02b7',
    ('trace --machine quadratic --input a(a(e))', 'text'): '376774b3de36d7c528f0dcdd8e85f7a9fec8e3ae727aa98fbb1c7714208d97a3',
    ('trace --machine quadratic --input a(a(e))', 'json'): 'd09786c26c0857978f8011780cb5f3363aad15314be7c5c4c84553f31f03ee2e',
    ('trace --machine quadratic --input a(a(e))', 'dot'): '16b7e22f8eba67daaf2ecbb6f3b2398e69b30b910c8141ea4cad7f7b63d3e297',
}


def masked(text):
    """text with every report time, "(1.234 ms)" or "elapsed_ms": 1.234, masked."""
    text = re.sub(r"\(\d+\.\d{3} ms\)", "(x.xxx ms)", text)
    return re.sub(r'"elapsed_ms": [^,\n]+', '"elapsed_ms": 0', text)


def test_every_command_prints_its_pinned_bytes(capsys):
    got = {}
    for argv, formats in CLI_CALLS:
        for fmt in formats:
            status, out, _ = run_cli(capsys, "-w", FIXTURES, *argv, "--format", fmt)
            got[" ".join(argv), fmt] = hashlib.sha256(("%d\n%s" % (status, masked(out))).encode()).hexdigest()
    assert got == PINNED_OUTPUT
