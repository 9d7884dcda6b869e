"""Parser for the machine definition language.

    transducer NAME { input { a:1, e:0 } output { f:2, e:0 } initial q0
      rules { q0(a(x1)) -> f(q(x1), q0(x1)); q1(e) -> e1 | e2; } }
    lookahead NAME { base NAME  la NAME
      rules { q(a(x1:l1, x2:l2)) -> q2(x1); } }
    chain NAME { NAME, NAME }

`|` abbreviates several rules sharing a left-hand side, `#` starts a line
comment, and states are declared by appearing as the initial state, as a
rule head, or in an optional `states { ... }` clause (serialized machines
use it for rule-less states).  Errors carry source line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .constructions import CompositionChain
from .errors import AlphabetMismatch, TtcSyntaxError, ValidationError
from .machines import LookaheadTransducer, Rule, StateId, Transducer
from .trees import RankedAlphabet, StateOverVariable, Tree

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+|#[^\n]*)|(?P<arrow>->)|(?P<name>[A-Za-z_][A-Za-z0-9_']*)"
    r"|(?P<int>\d+)|(?P<punct>[{}():,;|])"
)
_VAR_RE = re.compile(r"x([1-9][0-9]*)$")

KEYWORDS = {"transducer", "lookahead", "chain", "input", "output", "initial", "rules", "base", "la"}


@dataclass
class Token:
    kind: str
    value: str
    line: int
    column: int


def _tokenize(text: str) -> list[Token]:
    tokens = []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise TtcSyntaxError("unexpected character %r" % text[pos], line, pos - line_start + 1)
        col = pos - line_start + 1
        if m.lastgroup == "ws":
            chunk = m.group(0)
            newlines = chunk.count("\n")
            if newlines:
                line += newlines
                line_start = pos + chunk.rfind("\n") + 1
        else:
            tokens.append(Token(m.lastgroup, m.group(0), line, col))
        pos = m.end()
    tokens.append(Token("eof", "", line, pos - line_start + 1))
    return tokens


@dataclass
class Workspace:
    """Named machines and chains parsed from one or more definition files."""

    machines: dict[str, object] = field(default_factory=dict)
    chains: dict[str, CompositionChain] = field(default_factory=dict)

    def machine(self, name: str):
        try:
            return self.machines[name]
        except KeyError:
            raise ValidationError("unknown machine %r" % name) from None

    def chain(self, name: str) -> CompositionChain:
        if name in self.chains:
            return self.chains[name]
        m = self.machines.get(name)
        if isinstance(m, Transducer):
            return CompositionChain((m,))
        raise ValidationError("unknown chain %r" % name)


class _Parser:
    def __init__(self, tokens: list[Token], workspace: Workspace):
        self.tokens = tokens
        self.pos = 0
        self.ws = workspace

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok or self.peek()
        raise TtcSyntaxError(message, tok.line, tok.column)

    def expect(self, kind, value=None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            self.fail("expected %s" % (value or kind))
        return self.next()

    def at_punct(self, value) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.value == value

    # -- grammar -------------------------------------------------------------

    def parse(self) -> Workspace:
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.kind != "name":
                self.fail("expected 'transducer', 'lookahead', or 'chain'")
            if tok.value == "transducer":
                self.parse_transducer()
            elif tok.value == "lookahead":
                self.parse_lookahead()
            elif tok.value == "chain":
                self.parse_chain()
            else:
                self.fail("expected 'transducer', 'lookahead', or 'chain'")
        return self.ws

    def declare(self, name_tok: Token):
        if name_tok.value in self.ws.machines or name_tok.value in self.ws.chains:
            self.fail("name %r is already defined" % name_tok.value, name_tok)

    def parse_alphabet(self) -> RankedAlphabet:
        self.expect("punct", "{")
        symbols = {}
        while not self.at_punct("}"):
            sym = self.expect("name")
            if _VAR_RE.fullmatch(sym.value):
                self.fail("symbol name %r is reserved for variables" % sym.value, sym)
            self.expect("punct", ":")
            rank = self.expect("int")
            if sym.value in symbols:
                self.fail("duplicate symbol %r" % sym.value, sym)
            symbols[sym.value] = int(rank.value)
            if self.at_punct(","):
                self.next()
        self.expect("punct", "}")
        return RankedAlphabet(symbols)

    def parse_transducer(self):
        self.expect("name", "transducer")
        name = self.expect("name")
        self.declare(name)
        self.expect("punct", "{")
        self.expect("name", "input")
        input_alpha = self.parse_alphabet()
        self.expect("name", "output")
        output_alpha = self.parse_alphabet()
        self.expect("name", "initial")
        initial = self.expect("name")
        extra_states = self.parse_states_clause()
        self.expect("name", "rules")
        raw_rules = self.parse_rule_block(annotated=False)
        self.expect("punct", "}")
        machine = self.build_transducer(name, input_alpha, output_alpha, initial, extra_states, raw_rules)
        self.ws.machines[name.value] = machine

    def parse_states_clause(self) -> list[Token]:
        tok = self.peek()
        if tok.kind != "name" or tok.value != "states":
            return []
        self.next()
        self.expect("punct", "{")
        out = [self.expect("name")]
        while self.at_punct(","):
            self.next()
            out.append(self.expect("name"))
        self.expect("punct", "}")
        return out

    def parse_lookahead(self):
        self.expect("name", "lookahead")
        name = self.expect("name")
        self.declare(name)
        self.expect("punct", "{")
        self.expect("name", "base")
        base_tok = self.expect("name")
        self.expect("name", "la")
        la_tok = self.expect("name")
        self.expect("name", "rules")
        raw_rules = self.parse_rule_block(annotated=True)
        self.expect("punct", "}")
        base = self.ws.machines.get(base_tok.value)
        if not isinstance(base, Transducer):
            self.fail("base %r is not a transducer defined earlier" % base_tok.value, base_tok)
        la = self.ws.machines.get(la_tok.value)
        if not isinstance(la, Transducer) or not la.is_automaton():
            self.fail("la %r is not an automaton defined earlier" % la_tok.value, la_tok)
        machine = self.build_lookahead(name, base, la, raw_rules)
        self.ws.machines[name.value] = machine

    def parse_chain(self):
        self.expect("name", "chain")
        name = self.expect("name")
        self.declare(name)
        self.expect("punct", "{")
        stage_toks = [self.expect("name")]
        while self.at_punct(","):
            self.next()
            stage_toks.append(self.expect("name"))
        self.expect("punct", "}")
        stages = []
        for tok in stage_toks:
            m = self.ws.machines.get(tok.value)
            if not isinstance(m, Transducer):
                self.fail("chain stage %r is not a transducer" % tok.value, tok)
            stages.append(m)
        try:
            self.ws.chains[name.value] = CompositionChain(tuple(stages))
        except AlphabetMismatch as exc:
            self.fail("incompatible chain: %s" % exc, name)

    # raw rule: (head token, symbol token, [(var index, la token or None)], [rhs syntax trees])
    def parse_rule_block(self, annotated: bool):
        self.expect("punct", "{")
        raw = []
        while not self.at_punct("}"):
            head = self.expect("name")
            self.expect("punct", "(")
            symbol = self.expect("name")
            variables = []
            if self.at_punct("("):
                self.next()
                variables.append(self.parse_variable(annotated))
                while self.at_punct(","):
                    self.next()
                    variables.append(self.parse_variable(annotated))
                self.expect("punct", ")")
            self.expect("punct", ")")
            for expected, (tok, _idx, _la) in enumerate(variables, start=1):
                if _idx != expected:
                    self.fail("variables must be x1..xk in order", tok)
            self.expect("arrow")
            rhss = [self.parse_rhs()]
            while self.at_punct("|"):
                self.next()
                rhss.append(self.parse_rhs())
            self.expect("punct", ";")
            raw.append((head, symbol, variables, rhss))
        self.expect("punct", "}")
        return raw

    def parse_variable(self, annotated: bool):
        tok = self.expect("name")
        m = _VAR_RE.fullmatch(tok.value)
        if not m:
            self.fail("expected a variable x1, x2, ...", tok)
        la = None
        if self.at_punct(":"):
            self.next()
            la = self.expect("name")
            if not annotated:
                self.fail("look-ahead annotations belong in lookahead blocks", la)
        elif annotated:
            self.fail("every variable of a look-ahead rule needs an annotation", tok)
        return (tok, int(m.group(1)), la)

    # rhs syntax tree: (token, [children]) where a leaf child may be ("var", token, index)
    def parse_rhs(self):
        tok = self.expect("name")
        if _VAR_RE.fullmatch(tok.value):
            self.fail("a variable may only appear directly under a state", tok)
        children = []
        if self.at_punct("("):
            self.next()
            children.append(self.parse_rhs_arg())
            while self.at_punct(","):
                self.next()
                children.append(self.parse_rhs_arg())
            self.expect("punct", ")")
        return (tok, children)

    def parse_rhs_arg(self):
        tok = self.peek()
        m = _VAR_RE.fullmatch(tok.value) if tok.kind == "name" else None
        if m:
            self.next()
            return ("var", tok, int(m.group(1)))
        return self.parse_rhs()

    # -- resolution ------------------------------------------------------------

    def build_rhs(self, syntax, states, output_alpha, k):
        tok, children = syntax
        if children and len(children) == 1 and children[0][0] == "var":
            _, var_tok, index = children[0]
            if tok.value not in states:
                self.fail("undeclared state %r" % tok.value, tok)
            if index > k:
                self.fail("variable x%d out of range [%d]" % (index, k), var_tok)
            return Tree(StateOverVariable(states[tok.value], index))
        if any(c[0] == "var" for c in children):
            self.fail("a variable may only appear as the sole argument of a state", tok)
        if tok.value in states and children:
            self.fail("state %r must be applied to a single variable" % tok.value, tok)
        if tok.value not in output_alpha:
            if tok.value in states:
                self.fail("state %r used as a nullary output symbol" % tok.value, tok)
            self.fail("unknown output symbol %r" % tok.value, tok)
        rank = output_alpha.rank(tok.value)
        if rank != len(children):
            self.fail("symbol %s has rank %d but %d arguments" % (tok.value, rank, len(children)), tok)
        return Tree(tok.value, tuple(self.build_rhs(c, states, output_alpha, k) for c in children))

    def collect_states(self, initial_tok, extra_states, raw_rules, allowed=None):
        states: dict[str, StateId] = {}
        for tok in [initial_tok] + extra_states + [head for head, _, _, _ in raw_rules]:
            if allowed is not None and tok.value not in allowed:
                self.fail("state %r is not a state of the base machine" % tok.value, tok)
            states.setdefault(tok.value, StateId.base(tok.value))
        return states

    def build_rules(self, raw_rules, states, input_alpha, output_alpha, la=None):
        rules = []
        for head, symbol, variables, rhss in raw_rules:
            if symbol.value not in input_alpha:
                self.fail("unknown input symbol %r" % symbol.value, symbol)
            k = input_alpha.rank(symbol.value)
            if k != len(variables):
                self.fail(
                    "symbol %s has rank %d but %d variables" % (symbol.value, k, len(variables)),
                    symbol,
                )
            annotations = None
            if la is not None:
                annotations = []
                for var_tok, _idx, la_tok in variables:
                    la_state = StateId.base(la_tok.value)
                    if la_state not in la.states:
                        self.fail("unknown look-ahead state %r" % la_tok.value, la_tok)
                    annotations.append(la_state)
                annotations = tuple(annotations)
            for rhs_syntax in rhss:
                rhs = self.build_rhs(rhs_syntax, states, output_alpha, k)
                rules.append(Rule(states[head.value], symbol.value, k, rhs, lookahead=annotations))
        return rules

    def build_transducer(self, name_tok, input_alpha, output_alpha, initial_tok, extra_states, raw_rules):
        states = self.collect_states(initial_tok, extra_states, raw_rules)
        rules = self.build_rules(raw_rules, states, input_alpha, output_alpha)
        try:
            return Transducer(
                name_tok.value,
                input_alpha,
                output_alpha,
                rules,
                states[initial_tok.value],
                states=states.values(),
            )
        except ValidationError as exc:
            self.fail("invalid transducer %s: %s" % (name_tok.value, exc), name_tok)

    def build_lookahead(self, name_tok, base: Transducer, la: Transducer, raw_rules):
        allowed = {s.name for s in base.states}
        initial_tok = Token("name", base.initial.name, name_tok.line, name_tok.column)
        states = self.collect_states(initial_tok, [], raw_rules, allowed=allowed)
        for s in base.states:
            states.setdefault(s.name, s)
        rules = self.build_rules(raw_rules, states, base.input_alphabet, base.output_alphabet, la=la)
        try:
            annotated = Transducer(
                name_tok.value,
                base.input_alphabet,
                base.output_alphabet,
                rules,
                base.initial,
                states=base.states,
                _annotated=True,
            )
            return LookaheadTransducer(annotated, la)
        except ValidationError as exc:
            self.fail("invalid lookahead %s: %s" % (name_tok.value, exc), name_tok)


def parse_workspace(text: str, workspace: Workspace | None = None) -> Workspace:
    """Parse one definition source, adding to an existing workspace if given."""
    return _Parser(_tokenize(text), workspace or Workspace()).parse()
