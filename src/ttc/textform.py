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

from dataclasses import dataclass, field

from .constructions import CompositionChain
from .errors import AlphabetMismatch, ValidationError
from .machines import LookaheadTransducer, Rule, StateId, Transducer
from .trees import VAR_RE, RankedAlphabet, StateOverVariable, Tree, _parse_term, _scan, _syntax_error


@dataclass
class Workspace:
    """Named machines and chains parsed from one or more definition files."""

    machines: dict[str, object] = field(default_factory=dict)
    chains: dict[str, CompositionChain] = field(default_factory=dict)

    def machine(self, name: str):
        if name in self.machines:
            return self.machines[name]
        if name in self.chains:
            raise ValidationError("%r is a chain, not a machine" % name)
        raise ValidationError("unknown machine %r" % name)

    def chain(self, name: str) -> CompositionChain:
        if name in self.chains:
            return self.chains[name]
        m = self.machines.get(name)
        if isinstance(m, Transducer):
            return CompositionChain((m,))
        if isinstance(m, LookaheadTransducer):
            raise ValidationError("%r is a look-ahead transducer, not a chain: use --machine" % name)
        raise ValidationError("unknown chain %r" % name)


class _Parser:
    """Reads `_scan`'s tokens by index: kinds, values and offsets."""

    def __init__(self, text: str, workspace: Workspace):
        self.text = text
        self.tokens = _scan(text, {"ws", "comment"})
        self.kinds, self.values, self.offsets = self.tokens
        if "bad" in self.kinds:  # the scan comes before the grammar
            i = self.kinds.index("bad")
            self.fail("unexpected character %r" % self.values[i], i)
        self.pos = 0
        self.ws = workspace

    def fail(self, message, i=None):
        raise _syntax_error(message, self.text, self.offsets[self.pos if i is None else i])

    def expect(self, kind, value=None) -> int:
        """The index of the next token, which must be of kind (and value)."""
        i = self.pos
        if self.kinds[i] != kind or (value is not None and self.values[i] != value):
            self.fail("expected %s" % (value or kind))
        self.pos = i + 1
        return i

    def at(self, value) -> bool:
        return self.values[self.pos] == value

    def separated(self, item, sep=","):
        """item(), then (sep item())*: the items in order."""
        items = [item()]
        while self.at(sep):
            self.pos += 1
            items.append(item())
        return items

    # -- grammar -------------------------------------------------------------

    def parse(self) -> Workspace:
        blocks = {"transducer": self.parse_transducer, "lookahead": self.parse_lookahead, "chain": self.parse_chain}
        while self.kinds[self.pos] != "eof":
            if self.values[self.pos] not in blocks:
                self.fail("expected 'transducer', 'lookahead', or 'chain'")
            blocks[self.values[self.pos]]()
        return self.ws

    def declare(self, i: int):
        name = self.values[i]
        if name in self.ws.machines or name in self.ws.chains:
            self.fail("name %r is already defined" % name, i)

    def parse_alphabet(self) -> RankedAlphabet:
        self.expect("punct", "{")
        symbols = {}
        while not self.at("}"):
            i = self.expect("name")
            sym = self.values[i]
            if VAR_RE.fullmatch(sym):
                self.fail("symbol name %r is reserved for variables" % sym, i)
            self.expect("punct", ":")
            rank = self.expect("int")
            if sym in symbols:
                self.fail("duplicate symbol %r" % sym, i)
            symbols[sym] = int(self.values[rank])
            if self.at(","):
                self.pos += 1
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
        initial = self.values[self.expect("name")]
        declared = [initial]
        if self.at("states"):
            self.pos += 1
            declared += [self.values[i] for i in self.name_list()]
        self.expect("name", "rules")
        block = self.parse_rule_block(annotated=False)
        self.expect("punct", "}")
        names = dict.fromkeys(declared + [self.values[rule[0]] for rule in block])
        states = {name: self.ids.setdefault(name, StateId.base(name)) for name in names}
        rules = self.build_rules(block, states, input_alpha, output_alpha)
        try:
            machine = Transducer(
                self.values[name], input_alpha, output_alpha, rules, states[initial], states=states.values()
            )
        except ValidationError as exc:
            self.fail("invalid transducer %s: %s" % (self.values[name], exc), name)
        self.ws.machines[self.values[name]] = machine

    def name_list(self) -> list[int]:
        """``'{' NAME (',' NAME)* '}'``: the indices of the names."""
        self.expect("punct", "{")
        names = self.separated(lambda: self.expect("name"))
        self.expect("punct", "}")
        return names

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
        block = self.parse_rule_block(annotated=True)
        self.expect("punct", "}")
        base = self.ws.machines.get(self.values[base_tok])
        if not isinstance(base, Transducer):
            self.fail("base %r is not a transducer defined earlier" % self.values[base_tok], base_tok)
        la = self.ws.machines.get(self.values[la_tok])
        if not isinstance(la, Transducer) or not la.automaton:
            self.fail("la %r is not an automaton defined earlier" % self.values[la_tok], la_tok)
        states = {s.name: s for s in base.states}
        for head, *_ in block:
            if self.values[head] not in states:
                self.fail("state %r is not a state of the base machine" % self.values[head], head)
        rules = self.build_rules(block, states, base.input_alphabet, base.output_alphabet, la)
        try:
            annotated = Transducer(
                self.values[name],
                base.input_alphabet,
                base.output_alphabet,
                rules,
                base.initial,
                states=base.states,
            )
            machine = LookaheadTransducer.trimmed(annotated, la)
        except ValidationError as exc:
            self.fail("invalid lookahead %s: %s" % (self.values[name], exc), name)
        self.ws.machines[self.values[name]] = machine

    def parse_chain(self):
        self.expect("name", "chain")
        name = self.expect("name")
        self.declare(name)
        stages = []
        for i in self.name_list():
            m = self.ws.machines.get(self.values[i])
            if not isinstance(m, Transducer):
                self.fail("chain stage %r is not a transducer" % self.values[i], i)
            stages.append(m)
        try:
            self.ws.chains[self.values[name]] = CompositionChain(tuple(stages))
        except AlphabetMismatch as exc:
            self.fail("incompatible chain: %s" % exc, name)

    def parse_rule_block(self, annotated: bool) -> list[tuple]:
        """Read a rule block in one walk: per rule (head, symbol, variables,
        right-hand sides, end of its nodes), as token indices and `Tree`s.
        The checks that need the machine wait for `build_rules`: the token
        index of each right-hand-side node waits in `node_tokens`, its
        `Tree` (None for a misplaced variable) in `nodes`.  `ids` holds one
        `StateId` per state name."""
        self.expect("punct", "{")
        self.node_tokens, self.nodes, self.ids = [], [], {}
        block = []
        while not self.at("}"):
            head = self.expect("name")
            self.expect("punct", "(")
            symbol = self.expect("name")
            variables = []
            if self.at("("):
                self.pos += 1
                variables = self.separated(lambda: self.parse_variable(annotated))
                self.expect("punct", ")")
            self.expect("punct", ")")
            for expected, i in enumerate(variables, start=1):
                if self.values[i] != "x%d" % expected:
                    self.fail("variables must be x1..xk in order", i)
            self.expect("arrow")
            rhss = self.separated(self.read_rhs, "|")
            self.expect("punct", ";")
            block.append((head, symbol, variables, rhss, len(self.nodes)))
        self.expect("punct", "}")
        return block

    def parse_variable(self, annotated: bool) -> int:
        """The index of a variable; its annotation, if any, is two tokens on."""
        i = self.expect("name")
        if not VAR_RE.fullmatch(self.values[i]):
            self.fail("expected a variable x1, x2, ...", i)
        if self.at(":"):
            self.pos += 1
            la = self.expect("name")
            if not annotated:
                self.fail("look-ahead annotations belong in lookahead blocks", la)
        elif annotated:
            self.fail("every variable of a look-ahead rule needs an annotation", i)
        return i

    def read_rhs(self) -> Tree:
        """A right-hand side as its `Tree`: ``name(xi)`` is a state over a
        variable, any other name an output symbol.  A variable leaf is its
        index until its parent takes it."""
        values, ids, node_tokens, nodes = self.values, self.ids, self.node_tokens, self.nodes

        def make(i, children):
            name = values[i]
            if VAR_RE.fullmatch(name):
                if children:
                    self.fail("a variable may only appear directly under a state", i)
                return int(name[1:])
            if len(children) == 1 and children[0].__class__ is int:
                if name not in ids:
                    ids[name] = StateId.base(name)
                node = Tree(StateOverVariable(ids[name], children[0]))
            elif any(c.__class__ is int for c in children):
                node = None  # a variable beside other arguments
            else:
                node = Tree(name, children)
            node_tokens.append(i)
            nodes.append(node)
            return node or Tree(name)  # the parent's build goes on; the check fails

        start = self.pos
        rhs, self.pos = _parse_term(self.text, self.tokens, start, make)
        if rhs.__class__ is int:
            self.fail("a variable may only appear directly under a state", start)
        return rhs

    # -- resolution ------------------------------------------------------------

    def build_rules(self, block, states, input_alpha, output_alpha, la=None) -> list[Rule]:
        """Run the rules' checks in text order, then build them."""
        rules = []
        start = 0
        for head, symbol, variables, rhss, end in block:
            name = self.values[symbol]
            if name not in input_alpha:
                self.fail("unknown input symbol %r" % name, symbol)
            k = input_alpha.rank(name)
            if k != len(variables):
                self.fail("symbol %s has rank %d but %d variables" % (name, k, len(variables)), symbol)
            annotations = None if la is None else tuple(StateId.base(self.values[i + 2]) for i in variables)
            for i, la_state in zip(variables, annotations or ()):
                if la_state not in la.states:
                    self.fail("unknown look-ahead state %r" % la_state.name, i + 2)
            faults = [fault for j in range(start, end) if (fault := self.rhs_fault(j, states, output_alpha, k))]
            if faults:
                i, message = min(faults)  # the first in the text
                self.fail(message, i)
            start = end
            rules.extend(Rule(states[self.values[head]], name, k, rhs, lookahead=annotations) for rhs in rhss)
        return rules

    def rhs_fault(self, j, states, output_alpha, k):
        """The first fault of right-hand-side node j, as (token index,
        message), or None; a rule's variables are x1..xk."""
        i, node = self.node_tokens[j], self.nodes[j]
        name = self.values[i]
        if node is None:
            return i, "a variable may only appear as the sole argument of a state"
        label, n = node.label, len(node.children)
        if label.__class__ is StateOverVariable:
            if name not in states:
                return i, "undeclared state %r" % name
            if label.index > k:
                return i + 2, "variable x%d out of range [%d]" % (label.index, k)
        elif n and name in states:
            return i, "state %r must be applied to a single variable" % name
        elif name not in output_alpha and name in states:
            return i, "state %r used as a nullary output symbol" % name
        elif name not in output_alpha:
            return i, "unknown output symbol %r" % name
        elif output_alpha.rank(name) != n:
            return i, "symbol %s has rank %d but %d arguments" % (name, output_alpha.rank(name), n)
        return None


def parse_workspace(text: str, workspace: Workspace | None = None) -> Workspace:
    """Parse one definition source, adding to an existing workspace if given."""
    return _Parser(text, workspace or Workspace()).parse()
