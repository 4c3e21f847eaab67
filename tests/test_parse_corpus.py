"""The parser against the outcomes recorded in `fixtures/parse_corpus.json`
(written by `parse_corpus.py`), with the fact route and the token route
together and with the token route alone."""
import json
import re

from repcause import lang

from conftest import read_fixture
from parse_corpus import MUTATIONS, outcome

CORPUS = json.loads(read_fixture("parse_corpus.json"))


class CountingMatches:
    """A compiled pattern that counts the matches it returns."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.hits = 0

    def match(self, text, pos):
        m = self.pattern.match(text, pos)
        self.hits += m is not None
        return m


def read_back(text):
    """`outcome(text)` as it reads back from JSON."""
    return json.loads(json.dumps(outcome(text)))


def test_outcomes_match_the_recorded_ones(monkeypatch):
    facts = CountingMatches(lang._FACT_RE)
    monkeypatch.setattr(lang, "_FACT_RE", facts)
    token_only_facts = 0
    for case in CORPUS:
        facts.hits = 0
        got = read_back(case["text"])
        assert got == case["outcome"], case["text"]
        if "tuples" in got:
            token_only_facts += len(got["tuples"]) - facts.hits
    # facts that only the token parser accepts: a comment inside, an
    # integer longer than the fact route reads
    assert token_only_facts >= 20


def test_token_route_alone_matches_the_recorded_outcomes(monkeypatch):
    monkeypatch.setattr(lang, "_FACT_RE", re.compile(r"(?!)"))  # never matches
    for case in CORPUS:
        assert read_back(case["text"]) == case["outcome"], case["text"]


def test_corpus_covers_each_outcome_and_mutation():
    accepted = sum("tuples" in case["outcome"] for case in CORPUS)
    assert accepted >= 100
    assert len(CORPUS) - accepted >= 150
    drawn = {name for case in CORPUS for name in case["mutations"]}
    assert drawn == set(MUTATIONS)
