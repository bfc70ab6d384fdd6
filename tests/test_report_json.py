"""The `eval` JSON writer prints what json.dumps(payload, indent=2) prints."""

from __future__ import annotations

import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kunent import cli
from kunent.cli import _json_floats, _reports_json
from kunent.criteria import CriterionReport

EDGE_FLOATS = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
               1.7976931348623157e308, -1.7976931348623157e308]

texts = st.one_of(
    st.text(),
    st.text(alphabet='"\\\x00\x07\n\t\x1f\x7f é€😀', max_size=8),
    st.sampled_from(['"terms": []', '"terms": [', 'a\\"terms\\": []', "]", ""]),
)
floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS))
reports = st.builds(
    CriterionReport,
    theorem=texts,
    k=st.integers(1, 20),
    lhs=floats,
    rhs=floats,
    margin=floats,
    detected=st.booleans(),
    terms=st.one_of(
        st.just(()),
        st.lists(st.tuples(texts, floats), min_size=1, max_size=6).map(tuple),
    ),
    degenerate=st.booleans(),
)


def encoded(label, reps) -> str:
    payload = {
        "rho": label,
        "any_detected": any(r.detected for r in reps),
        "reports": [r.to_dict() for r in reps],
    }
    return json.dumps(payload, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(label=texts, reps=st.lists(reports, max_size=4))
def test_matches_json_dumps(label, reps):
    assert _reports_json(label, reps) == encoded(label, reps)


# every NaN payload, either sign: json.dumps writes each as NaN
nan_payloads = st.tuples(st.booleans(), st.integers(1, 2**52 - 1)).map(
    lambda s: struct.unpack("<d", struct.pack("<Q", s[0] << 63 | 0x7FF << 52 | s[1]))[0])
any_floats = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS + [-5e-324, 1e-310]),
                       nan_payloads)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(any_floats, max_size=40), repeat=st.integers(1, 3))
def test_json_floats_match_json_dumps(values, repeat):
    # each distinct bit pattern is formatted once: -0.0 stays apart from 0.0
    values = values * repeat
    assert _json_floats(values) == [json.dumps(v) for v in values]


def test_edge_values_and_marker_in_labels():
    terms = tuple((f'"terms": [] {i}', v) for i, v in enumerate(EDGE_FLOATS))
    reps = [
        CriterionReport("T1", 1, float("nan"), float("inf"), -0.0, False, terms),
        CriterionReport('"terms": []', 2, 5e-324, 1.0, 1.0, True),
        CriterionReport("T2", 3, 0.1, 0.2, -0.1, False, terms[:1], degenerate=True),
    ]
    out = _reports_json('"terms": []', reps)
    assert out == encoded('"terms": []', reps)
    assert "NaN" in out and "-Infinity" in out and "5e-324" in out


def test_layout_follows_to_dict(monkeypatch):
    """The term layout is read off to_dict: renamed keys carry over, and a
    value-before-label layout fails loudly instead of writing wrong text."""
    to_dict = CriterionReport.to_dict

    def with_terms(make_term):
        def patched(self):
            return {**to_dict(self), "terms": [make_term(l, v) for l, v in self.terms]}
        return patched

    monkeypatch.setattr(CriterionReport, "to_dict", with_terms(lambda l, v: {"name": l, "x": v}))
    marker, first, mid, between, last = cli._terms_layout()
    assert marker == '"terms": []'
    assert first.endswith('"name": ') and mid.endswith('"x": ') and between.endswith('"name": ')

    monkeypatch.setattr(CriterionReport, "to_dict", with_terms(lambda l, v: {"value": v, "label": l}))
    with pytest.raises(ValueError):
        cli._terms_layout()


def _terms(values, prefix="alpha") -> tuple:
    return tuple((f"{prefix}={{{i}}}", v) for i, v in enumerate(values))


def test_shared_term_list_is_written_for_every_report():
    shared = _terms([0.5, -0.0, 1e-300, float("nan")])
    reps = [CriterionReport("T1", k, 0.1 * k, 0.2, -0.1, False, shared) for k in (1, 2, 3)]
    assert _reports_json("ghz:4", reps) == encoded("ghz:4", reps)


def test_no_reports():
    assert _reports_json("x", []) == encoded("x", [])


def test_equal_but_distinct_term_lists():
    reps = [CriterionReport("T1", k, 0.1, 0.2, -0.1, False, _terms([0.5, 0.25]))
            for k in (1, 2)]
    assert reps[0].terms == reps[1].terms and reps[0].terms is not reps[1].terms
    assert _reports_json("x", reps) == encoded("x", reps)


def test_shared_and_unshared_lists_of_one_length():
    # every list has four terms, and lists of one length and labels but other
    # values sit between the reports of a shared list: text reused by anything
    # but the list itself would write some report's neighbour's values
    shared = _terms([1.0, 2.0, 3.0, 4.0])
    reps = []
    for k in range(1, 6):
        reps.append(CriterionReport("T1", k, 0.0, 0.0, 0.0, False, shared))
        reps.append(CriterionReport("T2", k, 0.0, 0.0, 0.0, False, _terms([1.0 * k, -1.0 * k, 0.5 * k, 0.0])))
        reps.append(CriterionReport("T2", k, 0.0, 0.0, 0.0, False, _terms([1.0 * k] * 4, "site")))
    reps.append(CriterionReport("T1", 9, 0.0, 0.0, 0.0, True, ()))
    assert _reports_json("mixed", reps) == encoded("mixed", reps)
    # built and dropped one at a time, so that one id may well come back for another list
    for k in range(1, 20):
        reps = [CriterionReport("T2", 1, 0.0, 0.0, 0.0, False, _terms([k + 0.5] * 4)),
                CriterionReport("T2", 2, 0.0, 0.0, 0.0, False, _terms([k - 0.5] * 4))]
        assert _reports_json("again", reps) == encoded("again", reps)


@settings(max_examples=200, deadline=None)
@given(label=texts, heads=st.lists(st.lists(st.tuples(texts, floats), max_size=3), max_size=4),
       tail=st.lists(st.tuples(texts, floats), max_size=5), signs=st.lists(st.booleans()))
def test_shared_tails_match_json_dumps(label, heads, tail, signs):
    # lists that end in the same term objects, as a T2 criterion's reports
    # do; a tail rebuilt with 0.0 and -0.0 swapped is equal to it but must
    # be written as itself
    tail = tuple(tail)
    flipped = tuple((name, -value if value == 0 else value) for name, value in tail)
    reps = [CriterionReport("T2", k, 0.0, 0.0, 0.0, False,
                            tuple(head) + (flipped if k < len(signs) and signs[k] else tail))
            for k, head in enumerate(heads)]
    assert _reports_json(label, reps) == encoded(label, reps)


def test_shared_from_finds_the_common_tail_by_identity(monkeypatch):
    # a list is shared by identity, never by equality: lists that only end in
    # the same term objects, or equal lists rebuilt term by term, are each
    # encoded whole
    tail = _terms([0.5, 0.0, float("nan")])
    lists = [_terms([float(k)], "sum") + tail for k in range(3)]
    rebuilt = _terms([1.0], "sum") + _terms([0.5, 0.0, float("nan")])
    # the same objects but one, whose value is equal and written otherwise
    other = lists[1][:-2] + (("alpha={1}", -0.0),) + lists[1][-1:]
    assert other == lists[1]
    encodes = []
    terms_text = cli._terms_text

    def counted(terms, labels):
        encodes.append(id(terms))
        return terms_text(terms, labels)

    monkeypatch.setattr(cli, "_terms_text", counted)
    for terms, written in (((*lists, lists[0]), 3), ((lists[0], lists[0]), 1),
                           ((lists[1], rebuilt), 2), ((lists[0], other), 2),
                           ((lists[1], other), 2)):
        encodes.clear()
        reps = [CriterionReport("T2", k, 0.0, 0.0, 0.0, False, t) for k, t in enumerate(terms)]
        assert _reports_json("x", reps) == encoded("x", reps)
        assert sorted(encodes) == sorted({id(t) for t in terms}) and len(encodes) == written
