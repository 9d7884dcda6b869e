"""The parser's mutation corpus: seeded single-token mutations of
`tests/data/fixtures.ttc` (a token deleted, substituted or inserted), each
recorded as the digest of the parsed workspace's listings or as the error
it raises, with its line, column and message.  The SHA-256 of the records
is pinned, so a change to the parser that moves one message, or parses one
mutation to other machines, fails here.

A change that moves a message on purpose re-pins `DIGEST` and says in
`CHANGES.md` which records moved and why."""

import hashlib
import pathlib
import random
import re
import warnings

from ttc import TtcSyntaxError, parse_workspace
from ttc.render import serialize_chain, serialize_machine

FIXTURES = (pathlib.Path(__file__).parent / "data" / "fixtures.ttc").read_text(encoding="utf-8")

# the definition language's tokens, without space and comments; kept apart
# from the parser's own scanner so that the corpus does not move with it
TOKEN_RE = re.compile(r"\s+|#[^\n]*|(->|[A-Za-z_][A-Za-z0-9_']*|\d+|[{}():,;|])")

COUNT = 1000
SEED = 29
DIGEST = "e396e0cf609bb8b85affda5119f93c2d8a2df1461c357cfdde70f1a66fc804c1"


def mutations(text: str, count: int, seed: int):
    """count texts, each text with one token deleted, substituted by a token
    of text of the same kind (name, integer or punctuation) or preceded by
    any token of text, drawn by random.Random(seed)."""
    spans = [m.span(1) for m in TOKEN_RE.finditer(text) if m.group(1)]
    vocabulary = sorted({text[a:b] for a, b in spans})
    kinds = {}
    for token in vocabulary:
        kinds.setdefault(_kind(token), []).append(token)
    rng = random.Random(seed)
    for _ in range(count):
        a, b = rng.choice(spans)
        mutation = rng.choice(("delete", "substitute", "insert"))
        if mutation == "delete":
            yield text[:a] + " " + text[b:]
        elif mutation == "substitute":
            yield text[:a] + " %s " % rng.choice(kinds[_kind(text[a:b])]) + text[b:]
        else:
            yield text[:a] + " %s " % rng.choice(vocabulary) + text[a:]


def _kind(token: str) -> str:
    return "int" if token.isdigit() else "name" if token[0].isalpha() or token[0] == "_" else "punct"


def record(text: str) -> str:
    """"parsed <digest of the listings>" or "error <line, column: message>"."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ws = parse_workspace(text)
    except TtcSyntaxError as exc:
        return "error %s" % exc
    listings = [serialize_machine(m, name=n) for n, m in ws.machines.items()]
    listings += [serialize_chain(c, name=n) for n, c in ws.chains.items()]
    return "parsed %s" % hashlib.sha256("\n".join(listings).encode()).hexdigest()


def test_mutation_corpus_is_pinned():
    records = [record(text) for text in mutations(FIXTURES, COUNT, SEED)]
    assert sum(r.startswith("parsed") for r in records) > 20  # not vacuous
    assert hashlib.sha256("\n".join(records).encode()).hexdigest() == DIGEST
