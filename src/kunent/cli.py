"""Command-line front end.

Subcommands
-----------
eval          evaluate a detection criterion on a preset or user state
table1        threshold table for the 8-qubit GHZ noise family
fig1          detection-boundary CSV for the qudit W noise family
oracle-check  doubled-space equivalence and proof-chain report

State specs accepted by ``--rho`` (see ``eval --help``):

    ghz:N[:p=V]          GHZ noise family (pure GHZ when p omitted)
    w:N:d[:p=V,q=V]      W / shifted-W noise family
    wtilde:N:d[:q=V]     shifted-W noise family slice
    mixed:I/D            maximally mixed state on D = 2^n qubit levels
    path/to/state.json   density matrix in the JSON matrix schema

The dense-dimension cap (default 4096) can be overridden with the
KUNENT_DIM_CAP environment variable.

Exit codes: 0 success, 1 property-check failure (oracle-check), 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from math import isfinite
from os.path import commonprefix, isfile
from typing import Sequence

import numpy as np

from .criteria import (
    CriterionReport,
    Theorem1Evaluator,
    Theorem2Evaluator,
    Theorem2K1Evaluator,
    ghz_probe,
    w_probe,
    w_tilde_probe,
)
from .oracle import oracle_check
from .serialize import load_density_matrix, load_factor, load_product_operator
from .states import Mixture, ghz_noise_family, w_noise_family
from .tensor import DensityMatrix, SiteDims, qubits
from .thresholds import (
    _SCAN_PROBES,
    boundary_scan_csv,
    ghz_threshold_table,
    pq_boundary_scan,
    threshold_table_csv,
)


class InputError(Exception):
    """User input problem; reported with exit code 2."""


def _parse_params(text: str, allowed: Sequence[str]) -> dict[str, float]:
    params: dict[str, float] = {}
    for item in text.split(","):
        if not item:
            continue
        if "=" not in item:
            raise InputError(f"expected name=value, got {item!r}")
        name, _, raw = item.partition("=")
        if name not in allowed:
            raise InputError(f"unknown parameter {name!r} (allowed: {', '.join(allowed)})")
        if name in params:
            raise InputError(f"parameter {name!r} given twice")
        try:
            params[name] = float(raw)
        except ValueError as exc:
            raise InputError(f"invalid value for {name}: {raw!r}") from exc
    return params


#: Preset head -> (family constructor, number of integer fields, default weights).
_PRESETS = {
    "ghz": (ghz_noise_family, 1, (1.0,)),
    "w": (w_noise_family, 2, (1.0, 0.0)),
    "wtilde": (w_noise_family, 2, (0.0, 1.0)),
}


def parse_state_spec(spec: str) -> tuple[str, DensityMatrix | Mixture]:
    """The state of a preset spec, a noise-family point held by its
    components (`Mixture`), or the density matrix in a JSON file."""
    # False for a name too long for the file system, where Path.is_file raises
    if isfile(spec):
        try:
            return spec, load_density_matrix(spec)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot load state from {spec}: {exc}") from exc

    head, _, rest = spec.partition(":")
    try:
        if head in _PRESETS:
            make_family, n_ints, defaults = _PRESETS[head]
            parts = rest.split(":", n_ints) + [""]
            if len(parts) <= n_ints:
                raise InputError(f"spec {spec!r} needs n and d, e.g. w:5:4:p=0.5,q=0")
            family = make_family(*map(int, parts[:n_ints]))
            params = _parse_params(parts[n_ints], family.param_names)
            return spec, family.evaluate(*map(params.get, family.param_names, defaults))
        if head == "mixed":
            if not rest.startswith("I/"):
                raise InputError(f"mixed spec must look like mixed:I/256, got {spec!r}")
            total = int(rest[2:])
            n = total.bit_length() - 1
            if 2**n != total:
                raise InputError(
                    f"mixed:I/D currently supports qubit spaces (D a power of 2), got D={total}"
                )
            return spec, Mixture(qubits(n), ())
    except (ValueError, TypeError) as exc:
        raise InputError(f"cannot parse state spec {spec!r}: {exc}") from exc
    raise InputError(
        f"unknown state spec {spec!r} (expected ghz:, w:, wtilde:, mixed: or a file path)"
    )


#: `eval` probe preset -> (the theorem it drives, its probe constructor);
#: a theorem's first preset is its default.
_PROBE_PRESETS = {"ghz-probe": (1, ghz_probe), "w-probe": (2, w_probe),
                  "wtilde-probe": (2, w_tilde_probe)}
#: Theorem -> the probe files it reads, in the order its criterion takes them.
_PROBE_FILES = {1: ("x", "y"), 2: ("x", "omega")}
#: (theorem, --per-tuple) -> criterion.
_CRITERIA = {(1, False): Theorem1Evaluator, (2, False): Theorem2Evaluator,
             (2, True): Theorem2K1Evaluator}


def _build_evaluator(args, dims: SiteDims):
    """The criterion of `args.theorem` on the probes of the files given, or
    else of the preset (by default the theorem's first)."""
    theorem, reads = args.theorem, _PROBE_FILES[args.theorem]
    criterion = _CRITERIA.get((theorem, args.per_tuple))
    if criterion is None:
        raise InputError("--per-tuple applies to theorem 2 only")
    files = {f: getattr(args, f) for f in ("x", "y", "omega") if getattr(args, f) is not None}
    if args.preset is not None and files:
        raise InputError("--preset cannot be combined with --x/--y/--omega")
    foreign = [f"--{f}" for f in files if f not in reads]
    if foreign:
        raise InputError(f"theorem {theorem} does not read {', '.join(foreign)}")
    if files:
        if len(files) < len(reads):
            raise InputError(f"theorem {theorem} needs both --{reads[0]} and --{reads[1]} "
                             "(or a preset)")
        # --omega names factor files, comma-separated; --x and --y a product operator each
        return criterion(*(list(map(load_factor, files[f].split(","))) if f == "omega"
                           else load_product_operator(files[f]) for f in reads))
    preset = args.preset or next(p for p, (t, _) in _PROBE_PRESETS.items() if t == theorem)
    drives, make_probes = _PROBE_PRESETS[preset]
    if drives != theorem:
        raise InputError(f"preset {preset} drives theorem {drives}")
    return criterion(*make_probes(dims))


def _reports_csv(reports: Sequence[CriterionReport]) -> str:
    lines = ["theorem,k,lhs,rhs,margin,detected"]
    for r in reports:
        lines.append(
            f"{r.theorem},{r.k},{r.lhs:.10g},{r.rhs:.10g},{r.margin:.10g},{str(r.detected).lower()}"
        )
    return "\n".join(lines) + "\n"


def _terms_layout() -> tuple[str, str, str, str, str]:
    """How the `eval` document lays out a report's "terms" list, read off
    json.dumps(..., indent=2) of CriterionReport.to_dict at the list's depth
    (payload > "reports" > report), so to_dict alone owns its key names,
    their order and the nesting.

    Returns the empty list as the skeleton holds it (the `"terms": []`
    marker), then the text before the first label, between a label and its
    value, between a value and the next label, and after the last value.
    A layout that puts a term's value before its label fails to unpack.
    """

    def document(terms) -> str:
        report = CriterionReport("", 0, 0.0, 0.0, 0.0, False, terms)
        return json.dumps({"reports": [report.to_dict()]}, indent=2)

    # Encoded, the sentinels read "\u0000" and "\u0001", which occur nowhere else.
    label, value = json.dumps("\0"), json.dumps("\1")
    empty, full = document(()), document((("\0", "\1"),) * 2)
    head = commonprefix([empty, full])
    tail = commonprefix([empty[::-1], full[::-1]])[::-1]
    marker = head[head.rindex("\n") + 1 :].lstrip() + tail[0]
    first, after_first, after_second = full[len(head) : -len(tail)].split(label)
    mid, between = after_first.split(value)
    _, last = after_second.split(value)
    return marker, first, mid, between, last


_TERMS_MARKER, _TERMS_FIRST, _TERM_MID, _TERMS_BETWEEN, _TERMS_LAST = _terms_layout()


def _json_floats(values: Sequence[float]) -> list[str]:
    """Floats as json.dumps writes them: repr, or NaN / Infinity / -Infinity.

    Report terms repeat a few values many times over, so each distinct bit
    pattern is written once; bits, not values, keep -0.0 apart from 0.0.
    """
    distinct, inverse = np.unique(np.array(values, dtype=float).view(np.int64),
                                  return_inverse=True)
    texts = [float.__repr__(v) if isfinite(v) else json.dumps(v)
             for v in distinct.view(float).tolist()]
    return np.array(texts, dtype=object)[inverse].tolist()


def _terms_text(terms, labels: dict) -> str:
    """A report's "terms" list as the document lays it out, from its
    `"terms": []` marker on; `labels` holds, for every label tuple met so
    far in the document, each label encoded after a value's separator."""
    if not terms:
        return _TERMS_MARKER
    names, values = zip(*terms)
    if names not in labels:
        labels[names] = [_TERMS_BETWEEN + encode_basestring_ascii(n) + _TERM_MID for n in names]
    items = [""] * (2 * len(names))
    items[::2], items[1::2] = labels[names], _json_floats(values)
    return "".join((_TERMS_MARKER[:-1], _TERMS_FIRST, "".join(items)[len(_TERMS_BETWEEN):],
                    _TERMS_LAST, _TERMS_MARKER[-1]))


def _reports_json(label: str, reports: Sequence[CriterionReport]) -> str:
    """The `eval` JSON document, byte for byte json.dumps(payload, indent=2)
    + "\n" of {"rho", "any_detected", "reports": [r.to_dict(), ...]}.

    json.dumps with an indent runs the pure-Python encoder, one generator
    step per token, which made writing the terms most of an `eval` request.
    So it encodes only the skeleton, each report with an empty "terms"
    list, and each list is filled in from `_terms_layout`.  The skeleton
    splits at its `"terms": []` markers into one piece per report plus
    one: inside an encoded string every quote is escaped, so the marker
    occurs at the reports' "terms" keys only.  A list that several reports
    share (a T1 criterion's, at every k) is encoded once.
    """
    skeleton = json.dumps(
        {
            "rho": label,
            "any_detected": any(r.detected for r in reports),
            "reports": [replace(r, terms=()).to_dict() for r in reports],
        },
        indent=2,
    )
    head, *tails = skeleton.split(_TERMS_MARKER)
    # each distinct term list by its identity, kept alive while the document is written
    lists = {id(r.terms): r.terms for r in reports}
    labels = {}
    texts = {key: _terms_text(terms, labels) for key, terms in lists.items()}
    parts = [head]
    for report, tail in zip(reports, tails, strict=True):
        parts += (texts[id(report.terms)], tail)
    parts.append("\n")
    return "".join(parts)


def cmd_eval(args) -> int:
    # not required by the parser, so that a --config can supply it
    if args.rho is None:
        raise InputError("eval needs --rho, on the command line or in the --config file")
    label, rho = parse_state_spec(args.rho)
    try:
        evaluator = _build_evaluator(args, rho.dims)
    except OSError as exc:
        raise InputError(str(exc)) from exc

    ks = evaluator.ks() if args.k is None else [args.k]
    reports = evaluator.reports(evaluator.traces(rho), ks)
    sys.stdout.write(_reports_csv(reports) if args.csv else _reports_json(label, reports))
    return 0


def cmd_table1(args) -> int:
    rows = ghz_threshold_table(args.n)
    sys.stdout.write(threshold_table_csv(rows))
    return 0


def cmd_fig1(args) -> int:
    rows = pq_boundary_scan(args.n, args.d, range(1, args.n), args.grid, probe=args.probe)
    sys.stdout.write(boundary_scan_csv(rows, args.probe))
    return 0


def cmd_oracle_check(args) -> int:
    result = oracle_check(args.trials, args.seed)
    json.dump(result, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if result["passed"] else 1


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: every default it holds is
    immutable, so parses cannot leak into one another."""
    parser = argparse.ArgumentParser(
        prog="kunent",
        description="Detect multipartite states containing fewer than k unentangled particles.",
    )
    parser.add_argument(
        "--config",
        help="JSON object of default values for the subcommand's flags (flag names "
        "with dashes replaced by underscores, switches true or false), checked as the "
        "flags are; an unknown key is an error (exit 2)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a criterion on a state", description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter)
    p_eval.add_argument("--rho", help="state spec or JSON file (required)")
    p_eval.add_argument("--theorem", type=int, choices=tuple(_PROBE_FILES), default=1)
    p_eval.add_argument("--k", type=int, default=None, help="default: all valid k")
    p_eval.add_argument(
        "--preset",
        choices=tuple(_PROBE_PRESETS),
        default=None,
        help="probe preset (ghz-probe: x_i=|1><0|, y_i=|0><0|; w-probe / "
        "wtilde-probe: rank-one site probes for the W families)",
    )
    p_eval.add_argument("--x", help="product-operator JSON file (array of factors)")
    p_eval.add_argument("--y", help="product-operator JSON file (theorem 1)")
    p_eval.add_argument("--omega", help="comma-separated single-site factor files (theorem 2)")
    p_eval.add_argument(
        "--per-tuple",
        action="store_true",
        help="theorem 2, k=1: use the per-tuple variant instead of the summed form",
    )
    p_eval.add_argument("--csv", action="store_true", help="CSV output (default: JSON)")
    p_eval.set_defaults(func=cmd_eval)

    p_t1 = sub.add_parser("table1", help="GHZ noise-family threshold table")
    p_t1.add_argument("--n", type=int, default=8)
    p_t1.set_defaults(func=cmd_table1)

    p_f1 = sub.add_parser("fig1", help="W noise-family boundary scan CSV")
    p_f1.add_argument("--n", type=int, default=5)
    p_f1.add_argument("--d", type=int, default=4)
    p_f1.add_argument("--grid", type=int, default=200)
    p_f1.add_argument("--probe", choices=tuple(_SCAN_PROBES), default="w")
    p_f1.set_defaults(func=cmd_fig1)

    p_oc = sub.add_parser("oracle-check", help="doubled-space equivalence report")
    p_oc.add_argument("--trials", type=int, default=50)
    p_oc.add_argument("--seed", type=int, default=0)
    p_oc.set_defaults(func=cmd_oracle_check)
    return parser


def _config_flags(path: str, args: argparse.Namespace) -> list[str]:
    """A JSON config object as flag tokens of the subcommand `args` was
    parsed for, so the parser checks its values as it checks flags.  Every
    key must name one of its flags (dashes replaced by underscores); a
    switch (store_true, a bool in `args`) is set by true, left out by false."""
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise InputError(f"config {path} must hold a JSON object")
    known = set(vars(args)) - {"config", "command", "func"}
    unknown = sorted(set(config) - known)
    if unknown:
        raise InputError(
            f"config {path} has unknown keys {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(known))})"
        )
    tokens = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(getattr(args, key), bool) and isinstance(value, bool):
            tokens += [flag] if value else []
        else:  # a switch given a value is rejected, as --csv=1 is
            tokens.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
    return tokens


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        if args.config:
            # the config's flags go right after the subcommand, ahead of the
            # command line's own, which win; only --config options precede it
            at = 0
            while argv[at].startswith("-"):
                at += 1 if "=" in argv[at] else 2
            argv[at + 1 : at + 1] = _config_flags(args.config, args)
            args = build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
