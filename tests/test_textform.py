import pytest

from ttc import LookaheadTransducer, RankedAlphabet, Rule, StateId, Transducer, TtcSyntaxError, p_construction, parse_workspace
from ttc.render import serialize_chain, serialize_machine
from ttc.trees import StateOverVariable, Tree, parse_tree

from .oracles import all_trees, machines_equal, workspaces_equal

MINI = """
transducer tiny {
  input { a:1, e:0 }
  output { f:2, e:0 }
  initial q0
  rules {
    q0(a(x1)) -> f(q(x1), q0(x1));
    q0(e) -> e;
    q(a(x1)) -> f(q(x1), q(x1));
    q(e) -> e;
  }
}
"""


class TestParsing:
    def test_quadratic_shape(self, workspace):
        machine = workspace.machines["quadratic"]
        assert len(machine.states) == 2
        assert len(machine.rules) == 4
        assert machine.initial.name == "q0"

    def test_bar_expands_in_order(self, workspace):
        t1 = workspace.machines["copy_t1"]
        e_rules = [r for r in t1.rules if r.symbol == "e"]
        assert [r.rhs.text for r in e_rules] == ["e1", "e2", "e3"]

    def test_comments_and_whitespace(self):
        ws = parse_workspace("# hello\n" + MINI + "\n# bye\n")
        assert "tiny" in ws.machines

    def test_chain_resolution(self, workspace):
        chain = workspace.chains["copying"]
        assert [s.name for s in chain.stages] == ["copy_t1", "copy_t2"]

    def test_lookahead_block(self, workspace):
        m = workspace.machines["quadratic_la"]
        assert isinstance(m, LookaheadTransducer)
        assert all(r.lookahead is not None for r in m.base.rules)

    def test_multiple_sources_accumulate(self):
        ws = parse_workspace(MINI)
        ws = parse_workspace("chain solo { tiny }", ws)
        assert "solo" in ws.chains


class TestValidation:
    def assert_fails(self, text, fragment):
        with pytest.raises(TtcSyntaxError) as err:
            parse_workspace(text)
        assert fragment in str(err.value)
        assert err.value.line is not None

    def test_undeclared_state(self):
        self.assert_fails(
            """
            transducer bad { input { e:0 } output { f:2, e:0 } initial q0
              rules { q0(e) -> f(zap(x1), e); } }
            """,
            "zap",
        )

    def test_rhs_arity_mismatch(self):
        self.assert_fails(
            """
            transducer bad { input { a:1, e:0 } output { f:2, e:0 } initial q0
              rules { q0(a(x1)) -> f(q0(x1)); } }
            """,
            "rank 2 but 1",
        )

    def test_lhs_arity_mismatch(self):
        self.assert_fails(
            """
            transducer bad { input { a:1, e:0 } output { e:0 } initial q0
              rules { q0(a(x1,x2)) -> e; } }
            """,
            "rank 1 but 2",
        )

    def test_unknown_symbol(self):
        self.assert_fails(
            """
            transducer bad { input { e:0 } output { e:0 } initial q0
              rules { q0(e) -> ghost; } }
            """,
            "ghost",
        )

    def test_variable_out_of_order(self):
        self.assert_fails(
            """
            transducer bad { input { g:2, e:0 } output { e:0 } initial q0
              rules { q0(g(x2,x1)) -> e; } }
            """,
            "x1..xk",
        )

    def test_variable_under_symbol(self):
        self.assert_fails(
            """
            transducer bad { input { a:1, e:0 } output { f:2, e:0 } initial q0
              rules { q0(a(x1)) -> f(x1, e); } }
            """,
            "variable",
        )

    def test_state_symbol_clash(self):
        self.assert_fails(
            """
            transducer bad { input { e:0 } output { e:0 } initial e
              rules { e(e) -> e; } }
            """,
            "clash",
        )

    def test_duplicate_names(self):
        self.assert_fails(MINI + MINI, "already defined")

    def test_incompatible_chain(self):
        self.assert_fails(
            MINI
            + """
            transducer other { input { g:1, e:0 } output { e:0 } initial p
              rules { p(e) -> e; } }
            chain broken { tiny, other }
            """,
            "incompatible chain",
        )

    def test_annotation_outside_lookahead(self):
        self.assert_fails(
            """
            transducer bad { input { a:1, e:0 } output { e:0 } initial q0
              rules { q0(a(x1:l)) -> e; } }
            """,
            "lookahead blocks",
        )

    def test_missing_annotation_inside_lookahead(self):
        self.assert_fails(
            MINI
            + """
            transducer auto { input { a:1, e:0 } output { a:1, e:0 } initial l0
              rules { l0(a(x1)) -> a(l0(x1)); l0(e) -> e; } }
            lookahead bad { base tiny la auto
              rules { q0(a(x1)) -> f(q(x1), q0(x1)); } }
            """,
            "needs an annotation",
        )

    def test_unknown_la_state(self):
        self.assert_fails(
            MINI
            + """
            transducer auto { input { a:1, e:0 } output { a:1, e:0 } initial l0
              rules { l0(a(x1)) -> a(l0(x1)); l0(e) -> e; } }
            lookahead bad { base tiny la auto
              rules { q0(a(x1:nope)) -> f(q(x1), q0(x1)); } }
            """,
            "nope",
        )


class TestErrorLocations:
    @pytest.mark.parametrize(
        "text, message, line, column",
        [
            # the scan runs before the grammar, so the character comes first
            ("transducer 1 { \u00e9 }", "unexpected character '\u00e9'", 1, 16),
            ("transducer t\u00e9 { }", "unexpected character '\u00e9'", 1, 13),
            (
                "transducer t { input { e:0 } output { e:0 } initial q\n  rules { q(e) - e; } }",
                "unexpected character '-'",
                2,
                16,
            ),
            ("transducer t {\n\tinput { e:0 }\n\toutput { e:0 } x", "expected initial", 3, 17),
            ("transducer t { input { e:0 }", "expected output", 1, 29),
            (
                "transducer t { input { e:0 } output { e:0 } initial q rules { q(e) -> e; }",
                "expected }",
                1,
                75,
            ),
            ("# only a comment\nchain", "expected name", 2, 6),
            ("\n\n  lookahead", "expected name", 3, 12),
            ("chain c { a b }", "expected }", 1, 13),
            (
                "transducer t { input { e:0, } output { e:0 } initial q rules { q(e) -> e | ; } }",
                "expected a symbol name",
                1,
                76,
            ),
            (MINI + "chain tiny { tiny }", "name 'tiny' is already defined", 13, 7),
            (
                MINI + "transducer u { input { e:0 } output { e:0 } initial q\n\trules { q(e) -> ghost; } }",
                "unknown output symbol 'ghost'",
                14,
                18,
            ),
        ],
    )
    def test_message_line_and_column(self, text, message, line, column):
        with pytest.raises(TtcSyntaxError) as err:
            parse_workspace(text)
        assert (str(err.value), err.value.line, err.value.column) == (
            "line %d, column %d: %s" % (line, column, message),
            line,
            column,
        )


class TestOneTermGrammar:
    @pytest.mark.parametrize("term", ["f(a,)", "f(a b)", "f(", "(a)"])
    def test_tree_text_and_a_right_hand_side_fail_alike(self, term):
        """The same message at the same offset from the term's start: a
        right-hand side is read by the tree text's term parser."""
        with pytest.raises(TtcSyntaxError) as in_tree:
            parse_tree(term)
        prefix = "transducer t { input { e:0 } output { f:2, a:0 } initial q rules { q(e) -> "
        with pytest.raises(TtcSyntaxError) as in_rhs:
            parse_workspace(prefix + term + "; } }")
        assert in_rhs.value.args[0].split(": ", 1)[1] == in_tree.value.args[0].split(": ", 1)[1]
        assert (in_rhs.value.line, in_rhs.value.column - len(prefix)) == (in_tree.value.line, in_tree.value.column)

    def test_any_depth_parses_in_a_right_hand_side(self):
        depth = 5000
        text = "transducer deep { input { g:0 } output { a:1, e:0 } initial q rules { q(g) -> %se%s; } }"
        rule = parse_workspace(text % ("a(" * depth, ")" * depth)).machines["deep"].rules[0]
        assert rule.rhs.size == depth + 1


class TestRoundTrip:
    def test_fixture_fixpoint(self, workspace):
        serialized = []
        for name, machine in workspace.machines.items():
            serialized.append(serialize_machine(machine, name=name))
        # chains referencing the same machine names
        text = "\n".join(serialized)
        reparsed = parse_workspace(text)
        for name, machine in workspace.machines.items():
            if isinstance(machine, LookaheadTransducer):
                assert machines_equal(machine, reparsed.machines[name])
            else:
                assert machines_equal(machine, reparsed.machines[name])
        again = "\n".join(
            serialize_machine(reparsed.machines[name], name=name) for name in workspace.machines
        )
        assert again == text

    def test_whole_workspace_equality(self, workspace):
        text = "\n".join(
            serialize_machine(m, name=n) for n, m in workspace.machines.items() if not isinstance(m, LookaheadTransducer)
        )
        text += "\nchain copying { copy_t1, copy_t2 }\n"
        text += "chain deleting { del_t1, del_t2 }\n"
        text += "chain worked { ex4_t1, ex4_t2 }\n"
        reparsed = parse_workspace(text)
        reference = parse_workspace(
            "\n".join(
                serialize_machine(m, name=n)
                for n, m in workspace.machines.items()
                if not isinstance(m, LookaheadTransducer)
            )
            + "\nchain copying { copy_t1, copy_t2 }\nchain deleting { del_t1, del_t2 }\nchain worked { ex4_t1, ex4_t2 }\n"
        )
        assert workspaces_equal(reparsed, reference)

    def test_constructed_machine_serializes(self, worked_pair):
        from ttc import build_m

        m, _ = build_m(*worked_pair)
        text = serialize_machine(m, name="worked_m")
        reparsed = parse_workspace(text)
        again = reparsed.machines["worked_m"]
        assert isinstance(again, LookaheadTransducer)
        assert len(again.base.rules) == len(m.base.rules)
        for s in all_trees(m.input_alphabet, 4):
            assert again.translate_la(s) == m.translate_la(s)

    def test_renamed_states_skip_the_symbol_names(self):
        # w writes and r reads s0, the first name a renamed state would get
        ws = parse_workspace(
            "transducer w { input { e:0 } output { s0:0 } initial q rules { q(e) -> s0; } }\n"
            "transducer r { input { s0:0 } output { s0:0 } initial p rules { p(s0) -> s0; } }\n"
        )
        product, _ = p_construction(ws.machines["w"], ws.machines["r"])
        text = serialize_machine(product, name="prod")
        assert "initial s1" in text and "s1(e) -> s0;" in text
        again = parse_workspace(text).machines["prod"]
        assert again.translate(parse_tree("e")) == product.translate(parse_tree("e")) == {parse_tree("s0")}

    def test_variable_like_state_is_renamed(self):
        x1 = StateId.base("x1")
        alpha = RankedAlphabet({"a": 1, "e": 0})
        rules = [Rule(x1, "a", 1, Tree("a", [Tree(StateOverVariable(x1, 1))])), Rule(x1, "e", 0, Tree("e"))]
        machine = Transducer("m", alpha, alpha, rules, x1, states=[x1])
        text = serialize_machine(machine)
        assert "s0(a(x1)) -> a(s0(x1));" in text
        again = parse_workspace(text).machines["m"]
        for s in all_trees(alpha, 4):
            assert again.translate(s) == machine.translate(s) == {s}

    def test_chain_serialization_reparses(self, copy_chain):
        text = serialize_chain(copy_chain, name="roundtrip")
        ws = parse_workspace(text)
        assert len(ws.chains["roundtrip"].stages) == 2
