"""Seeded, mutated parser inputs and what `parse_problem` makes of them.

`cases(seed, count)` draws texts from the problem fixtures and from
generated runs of facts, and applies one to three seeded mutations to each:
comments and line breaks inside a fact, zero and negative tids, Unicode
digits, uppercase and `_` names, `null`, empty argument lists, missing
terminators, long integers and bad characters, also after an earlier fault.
`outcome(text)` records either the tuples (tid, relation and each value with
its kind), the schema and the rendered rules, or the exception's type and
message with its line and column.

Run as a script, it prints the corpus that `test_parse_corpus.py` reads:

    PYTHONPATH=src python tests/parse_corpus.py > tests/fixtures/parse_corpus.json

The committed file was written by the parser that tokenized the whole text
before parsing any statement, so the test holds the current parser to that
parser's outcomes.
"""
import json
import random
import re
import sys
from pathlib import Path

from repcause import parse_problem

FIXTURES = Path(__file__).parent / "fixtures"
SEED = 20261018
COUNT = 300

BAD_CHARACTERS = ["$", "é", "!", "-", ":", "#", "'", "²"]
WHITESPACE = ["\n", "\r\n", "\t", "  ", " ", " ", "\n\n"]
# Arabic-Indic, Devanagari, fullwidth and Bengali three
UNICODE_DIGITS = ["٣", "३", "３", "৩"]
NAMES = ["R", "S", "Dep", "course", "_t", "null", "Q1", "r2"]
SYMBOLS = ["a", "b4", "john", "x_y", "_z", "null", "aB9", "k1f3a09c2_r0"]


def fixture_texts():
    return [p.read_text() for p in sorted(FIXTURES.glob("*.cdl"))]


def run_of_facts(rng):
    """A few facts, with explicit, automatic or mixed tids."""
    arity = {name: rng.randint(1, 3) for name in NAMES}
    tids = rng.choice(["explicit", "auto", "mixed"])
    lines = []
    for tid in range(1, rng.randint(2, 12) + 1):
        name = rng.choice(NAMES)
        values = []
        for _ in range(arity[name]):
            if rng.random() < 0.6:
                values.append(rng.choice(SYMBOLS))
            else:
                values.append(str(rng.randint(-20, 10**rng.randint(1, 12))))
        sep = rng.choice([", ", ",", " , ", ",\n  "])
        head = f"{tid}; " if tids == "explicit" or (tids == "mixed" and tid % 2) else ""
        lines.append(f"{name}({head}{sep.join(values)}).")
        if rng.random() < 0.15:
            lines.append("% a comment between facts")
    joiner = rng.choice(["\n", " ", "\n\n", "\r\n"])
    text = joiner.join(lines) + "\n"
    if rng.random() < 0.3:
        text += ":- R(X, Y), R(X, Z), Y != Z.\nq :- S(X)?\n"
    return text


def _replace(rng, text, pattern, new):
    spots = list(re.finditer(pattern, text))
    if not spots:
        return text
    m = rng.choice(spots)
    return text[: m.start()] + (new(m) if callable(new) else new) + text[m.end():]


def _insert(rng, text, pattern, piece):
    spots = list(re.finditer(pattern, text))
    if not spots:
        return text
    at = rng.choice(spots).end()
    return text[:at] + piece + text[at:]


def _bad_character(rng, text, start=0):
    at = rng.randint(start, len(text))
    return text[:at] + rng.choice(BAD_CHARACTERS) + text[at:]


MUTATIONS = {
    "comment in a fact": lambda rng, t: _insert(rng, t, r"[(,;]", " % note\n"),
    "line break in a fact": lambda rng, t: _insert(
        rng, t, r"[(,;]|\w(?=\))", rng.choice(WHITESPACE)
    ),
    "zero or negative tid": lambda rng, t: _replace(
        rng, t, r"\(\s*\d+\s*;", lambda m: "(" + rng.choice(["0", "-1", "-07"]) + ";"
    ),
    "unicode digit": lambda rng, t: _replace(
        rng, t, r"[0-9]", lambda m: rng.choice(UNICODE_DIGITS)
    ),
    "uppercase name": lambda rng, t: _replace(
        rng, t, r"\b[a-z]", lambda m: m.group().upper()
    ),
    "underscore name": lambda rng, t: _insert(rng, t, r"[(,]\s*(?=[A-Za-z])", "_"),
    "null value": lambda rng, t: _replace(
        rng, t, r"\b[a-z][a-z0-9]*\b(?=[,)])", "null"
    ),
    "negative integer": lambda rng, t: _replace(
        rng, t, r"(?<=[(,;] )[0-9]+", lambda m: "-" + m.group()
    ),
    "long integer": lambda rng, t: _replace(
        rng, t, r"(?<=[(,;] )[a-z0-9]+(?=[,)])", lambda m: "9" * rng.randint(641, 700)
    ),
    "empty argument list": lambda rng, t: _replace(rng, t, r"\([^()]*\)", "()"),
    "missing terminator": lambda rng, t: _replace(rng, t, r"[.?]", ""),
    "extra value": lambda rng, t: _insert(rng, t, r"\w(?=\)\.)", ", extra"),
    "duplicate statement": lambda rng, t: _replace(
        rng, t, r"[^\n]+\n", lambda m: m.group() * 2
    ),
    "deleted character": lambda rng, t: _replace(rng, t, r".", ""),
    "doubled character": lambda rng, t: _replace(rng, t, r".", lambda m: m.group() * 2),
    "bad character": _bad_character,
}


def _fault_then_bad_character(rng, text):
    """A fault early in the text and a bad character after it."""
    fault = rng.choice(["missing terminator", "empty argument list"])
    text = MUTATIONS[fault](rng, text)
    return _bad_character(rng, text, start=len(text) // 2)


MUTATIONS["bad character after a fault"] = _fault_then_bad_character


def cases(seed, count):
    """`count` seeded (mutation names, text) pairs."""
    rng = random.Random(seed)
    sources = fixture_texts()
    out = []
    for _ in range(count):
        text = rng.choice(sources) if rng.random() < 0.4 else run_of_facts(rng)
        names = rng.sample(sorted(MUTATIONS), rng.choice([0, 1, 1, 2, 3]))
        for name in names:
            text = MUTATIONS[name](rng, text)
        out.append((names, text))
    return out


def _value(c):
    return "n" if c.kind == "null" else f"{c.kind[0]}:{c.payload}"


def outcome(text):
    try:
        problem = parse_problem(text)
    except ValueError as exc:
        return {
            "error": type(exc).__name__,
            "message": str(exc),
            "at": [getattr(exc, "line", None), getattr(exc, "column", None)],
        }
    instance = problem.instance
    rules = [r.render() for r in problem.dcs + problem.queries + problem.ids]
    return {
        "tuples": [
            [t.tid, t.relation, [_value(v) for v in t.values]]
            for t in sorted(instance.tuples(), key=lambda t: t.tid)
        ],
        "schema": sorted(instance.schema.items()),
        "rules": rules,
    }


def main():
    corpus = [
        {"mutations": names, "text": text, "outcome": outcome(text)}
        for names, text in cases(SEED, COUNT)
    ]
    # one case a line
    sys.stdout.write("[\n" + ",\n".join(json.dumps(case) for case in corpus) + "\n]\n")


if __name__ == "__main__":
    main()
