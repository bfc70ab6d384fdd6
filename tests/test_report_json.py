"""The `eval` JSON writer prints what json.dumps(payload, indent=2) prints."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kunent import cli
from kunent.cli import _reports_json
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
