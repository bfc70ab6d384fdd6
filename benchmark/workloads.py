"""The four closed-loop workloads: one process, one client, fixed request lists.

Each workload draws its request list for every pass from the seed, runs
the passes back to back (the next request starts when the previous one
has returned), and checks every output against the independent reference
in `reference.py` after the pass, outside the timed region.  Every pass
has the same structure, so call counts repeat exactly from pass to pass
and from seed to seed; only the drawn values differ.

An operation (one CLI request, or one criterion evaluation in
`soundness_sweep`) fails when it raises, exits non-zero or returns a wrong
value.  A detection at or below the number of unentangled particles the
state is known to contain is a false certificate: a failed operation,
also counted on its own.  `Tally.errors` lists failures other than false
certificates; when it is non-empty the run is not correct.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass, field
from math import isfinite
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import reference as ref

REL = 1e-9  # relative agreement required against the reference
THRESHOLD_TOL = 1e-6  # closed-form thresholds, as the acceptance gate uses


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    false_certs: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)


@dataclass
class PassResult:
    wall_s: float  # sum of the timed operations of the pass
    latencies_s: list[float]
    evals: int  # criterion results produced
    out_bytes: int = 0
    false_certs: int = 0


def _close(value: float, expected: float, scale: float) -> bool:
    return isfinite(value) and abs(value - expected) <= REL * max(scale, 1e-300)


def check_reports(reports, expected, state_k: int, label: str) -> tuple[list[str], int]:
    """Problems in parsed reports against reference values, plus false certificates.

    `expected[k]` holds the reference lhs, rhs, margin and the magnitude
    `scale` they are compared at (and optionally T1 `terms` or T2 `parts`);
    returns (value problems, false-certificate count).
    """
    problems, false_certs = [], 0
    for r in reports:
        k = int(r["k"])
        e = expected[k]
        scale = e["scale"]
        for name in ("lhs", "rhs", "margin"):
            if not _close(float(r[name]), e[name], scale):
                problems.append(f"{label} k={k}: {name} {r[name]!r} != reference {e[name]!r}")
        detected = r["detected"] in (True, "true")
        if detected and k <= state_k:
            false_certs += 1
        elif detected != (e["margin"] > 0) and abs(e["margin"]) > REL * scale:
            problems.append(f"{label} k={k}: detected={detected} but reference margin {e['margin']!r}")
        terms = r.get("terms")
        if terms and "terms" in e:
            values = np.array([t["value"] for t in terms])
            if values.shape != e["terms"].shape or not np.all(
                np.abs(values - e["terms"]) <= REL * max(scale, 1e-300)
            ):
                problems.append(f"{label} k={k}: T1 terms differ from the reference")
        elif terms and "parts" in e:
            head = [t["value"] for t in terms[:4]]
            if not all(_close(v, w, scale) for v, w in zip(head, e["parts"])):
                problems.append(f"{label} k={k}: T2 sums {head} != reference {e['parts']}")
    return problems, false_certs


def parse_eval_output(text: str, as_csv: bool) -> list[dict]:
    if as_csv:
        return list(csv.DictReader(io.StringIO(text)))
    return json.loads(text)["reports"]


class CliWorkload:
    """A workload made of `kunent` CLI requests, run in-process through `cli.main`."""

    name = ""
    warmup_argv: list[str] = []

    def __init__(self, seed: int, passes: int, workdir: Path):
        self.seed = seed
        self.passes = passes
        self.workdir = workdir
        self._ref_cache: dict = {}
        self.requests = [self.make_pass(p) for p in range(passes)]

    def make_pass(self, p: int) -> list:
        """[(argv, check, evals)] for pass p; check(stdout) -> (problems, false_certs)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Write input files; runs before set-up is timed."""

    def warmup(self, kunent) -> None:
        _call_cli(kunent.cli, self.warmup_argv)

    def run_pass(self, kunent, p: int, tally: Tally, tracer=None, between=None) -> PassResult:
        """Run pass p; `between()`, if given, is called before each request."""
        done = []
        for i, (argv, check, evals) in enumerate(self.requests[p]):
            if between is not None:
                between()
            if tracer is not None:
                tracer.request = i
            done.append((argv, check, evals, *_call_cli(kunent.cli, argv)))
        result = PassResult(sum(d[3] for d in done), [d[3] for d in done], 0)
        for argv, check, evals, elapsed, rc, err, out in done:
            tally.attempted += 1
            result.out_bytes += len(out.encode())
            if err is not None or rc != 0:
                tally.fail(f"{' '.join(argv)}: exit {rc}, {err!r}")
                continue
            result.evals += evals
            try:
                problems, false_certs = check(out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems, false_certs = [f"unreadable output ({exc!r})"], 0
            if problems:
                tally.fail(f"{' '.join(argv)}: {problems[0]}")
            elif false_certs:
                tally.failed += 1
                tally.false_certs += false_certs
                result.false_certs += false_certs
        return result

    # -- reference helpers

    def cached(self, key, compute):
        if key not in self._ref_cache:
            self._ref_cache[key] = compute()
        return self._ref_cache[key]


def _call_cli(cli, argv):
    buf, saved = io.StringIO(), sys.stdout
    sys.stdout = buf
    rc = err = None
    start = perf_counter()
    try:
        rc = cli.main(argv)
    except (Exception, SystemExit) as exc:
        err = exc
    finally:
        elapsed = perf_counter() - start
        sys.stdout = saved
    return elapsed, rc, err, buf.getvalue()


def _eval_check(mixture, t1_probe=None, t2_probe=None, per_tuple=False, ks=None,
                as_csv=False, label="", cache=None, family=None, ghz=None):
    """Checker for one `eval` request on `mixture`.

    Reference bundles are computed per mixture component and cached under
    `family`, so requests that differ only in mixing weights share them.
    """
    n = len(mixture.dims)
    ks = ks or ([1] if per_tuple else list(range(1, n)))

    def components():
        comps = [inputs.Mixture(mixture.dims, [(1.0, amp)]) for _, amp in mixture.pure]
        return comps + [inputs.Mixture(mixture.dims, noise=1.0)]

    def bundle():
        if t1_probe is not None:
            make = lambda c: ref.t1_bundle(c, mixture.dims, *t1_probe)
        else:
            make = lambda c: ref.t2_bundle(c, mixture.dims, *t2_probe)
        if family is None:
            return make(mixture)
        parts = cache(family, lambda: [make(c) for c in components()])
        return ref.combine(parts, [w for w, _ in mixture.pure] + [mixture.noise])

    def check(out: str):
        reports = parse_eval_output(out, as_csv)
        if [int(r["k"]) for r in reports] != ks:
            return [f"{label}: reports for k={[r['k'] for r in reports]}, expected {ks}"], 0
        b = bundle()
        if t1_probe is not None:
            expected = {k: ref.t1_values(b, k) for k in ks}
        elif per_tuple:
            expected = {1: ref.t2_k1_values(b)}
        else:
            expected = {k: ref.t2_values(b, k) for k in ks}
        problems = []
        if ghz is not None:
            for k in ks:
                formula = ref.ghz_margin(n, k, ghz)
                scale = expected[k]["scale"]
                if not _close(expected[k]["margin"], formula, scale):
                    problems.append(f"{label} k={k}: reference margin off the GHZ formula")
                expected[k]["margin"] = formula
        if per_tuple:
            problems += _check_per_tuple(reports[0], expected[1], label)
            return problems, 0
        more, false_certs = check_reports(reports, expected, mixture.k, label)
        return problems + more, false_certs

    check.evals = len(ks)
    return check


def _check_per_tuple(report, e, label):
    """The per-tuple report carries the largest tuple margin and that tuple's
    lhs and rhs; on a tie any maximal tuple may be the one reported."""
    lhs, rhs, margins = e["tuples"]
    scale = max(float(lhs.max()), float(rhs.max()))
    tol = REL * max(scale, 1e-300)
    problems = []
    if not _close(float(report["margin"]), e["margin"], scale):
        problems.append(f"{label}: per-tuple margin {report['margin']} != {e['margin']}")
    best = margins >= e["margin"] - tol
    if not np.any(best & (np.abs(lhs - float(report["lhs"])) <= tol)
                  & (np.abs(rhs - float(report["rhs"])) <= tol)):
        problems.append(f"{label}: per-tuple lhs/rhs match no maximal tuple")
    detected = report["detected"] in (True, "true")
    if abs(e["margin"]) > tol and detected != (e["margin"] > 0):
        problems.append(f"{label}: per-tuple detected={detected}, reference margin {e['margin']}")
    return problems


# ---------------------------------------------------------------- preset_eval


class PresetEval(CliWorkload):
    """`eval` on preset specs: dense D = 1024 GHZ/W states plus small N presets."""

    name = "preset_eval"
    warmup_argv = ["eval", "--rho", "ghz:8:p=0.5", "--csv"]

    def make_pass(self, p: int) -> list:
        rng = np.random.default_rng([self.seed, 1, p])
        reqs = []

        def weight():
            return float(np.round(rng.uniform(0.05, 0.95), 4))

        def pq():
            a, b = sorted(np.round(rng.uniform(0.0, 1.0, 2), 4))
            return float(a), float(b - a)

        def add(spec, argv, as_csv=False, **check):
            tail = ["--csv"] if as_csv else []
            fn = _eval_check(inputs.preset_mixture(spec), as_csv=as_csv, label=spec,
                             cache=self.cached, **check)
            reqs.append((["eval", "--rho", spec, *argv, *tail], fn, fn.evals))

        for _ in range(4):
            pv = weight()
            add(f"ghz:10:p={pv}", ["--theorem", "1"], t1_probe=inputs.ghz_probe(10), ghz=pv,
                family="ghz10/T1")
        for preset in ("w-probe", "wtilde-probe") * 2:
            pv, qv = pq()
            probe = inputs.w_probe(5, 4) if preset == "w-probe" else inputs.w_tilde_probe(5, 4)
            add(f"w:5:4:p={pv},q={qv}", ["--theorem", "2", "--preset", preset], t2_probe=probe,
                family=f"w54/{preset}")
        add("mixed:I/1024", [], t1_probe=inputs.ghz_probe(10), family="mixed1024/T1")
        # Twice as many small requests as D = 1024 ones, so that the median
        # latency falls inside the small-request group, not at its edge.
        for variant in (v % 6 for v in range(12)):
            pv = weight()
            as_csv = variant % 2 == 0
            if variant < 2:
                add(f"ghz:8:p={pv}", ["--theorem", "1"], as_csv, t1_probe=inputs.ghz_probe(8),
                    ghz=pv, family="ghz8/T1")
            elif variant < 4:
                k = int(rng.integers(1, 8))
                add(f"ghz:8:p={pv}", ["--theorem", "1", "--k", str(k)], as_csv, ks=[k],
                    t1_probe=inputs.ghz_probe(8), ghz=pv, family="ghz8/T1")
            else:
                add(f"ghz:8:p={pv}", ["--theorem", "2", "--per-tuple"], as_csv,
                    t2_probe=inputs.w_probe(8, 2), per_tuple=True, family="ghz8/T2w")
        for variant in (v % 6 for v in range(12)):
            pv, qv = pq()
            preset = "wtilde-probe" if variant in (1, 2) else "w-probe"
            probe = inputs.w_tilde_probe(4, 4) if preset == "wtilde-probe" else inputs.w_probe(4, 4)
            per_tuple = variant >= 4
            argv = ["--theorem", "2", "--preset", preset] + (["--per-tuple"] if per_tuple else [])
            add(f"w:4:4:p={pv},q={qv}", argv, variant % 2 == 0, t2_probe=probe,
                per_tuple=per_tuple, family=f"w44/{preset}")
        order = rng.permutation(len(reqs))
        return [reqs[i] for i in order]


# ---------------------------------------------------------------- file_eval

# (class tag, local dimensions, theorem 2 applies)
FILE_CLASSES = [
    ("q6", (2,) * 6, True),
    ("q8", (2,) * 8, True),
    ("t5", (3,) * 5, True),
    ("f4", (4,) * 4, True),
    # A second 4^4 state puts the median latency inside the group of
    # ~150 ms requests instead of at its lower edge.
    ("f4b", (4,) * 4, True),
    ("mixed5", (2, 3, 4, 2, 3), False),
]


class FileEval(CliWorkload):
    """`eval` on JSON state and probe files written by the benchmark."""

    name = "file_eval"

    def __init__(self, seed: int, passes: int, workdir: Path):
        self._files = []  # (path, write(path)) for `prepare`
        super().__init__(seed, passes, workdir)
        self.warmup_argv = list(self.requests[0][0][0])

    def make_pass(self, p: int) -> list:
        rng = np.random.default_rng([self.seed, 2, p])
        reqs = []

        def add(argv, check):
            reqs.append((argv, check, check.evals))

        def file(tag, what, write):
            path = str(self.workdir / f"p{p}_{tag}_{what}.json")
            self._files.append((path, write))
            return path

        for c, (tag, dims, t2) in enumerate(FILE_CLASSES):
            n = len(dims)
            # k cycles with the pass rather than being drawn, so every run
            # holds the same mix of request costs whatever the seed.
            k = 1 + (p + c) % (n - 1)
            state = inputs.random_unentangled(dims, k, terms=3, noise=float(rng.uniform(0, 0.3)),
                                              rng=rng)
            x = [inputs.random_factor(d, rng) for d in dims]
            y = [inputs.random_factor(d, rng) for d in dims]
            rho = file(tag, "rho", lambda path, s=state: inputs.write_matrix(path, s.dense(), s.dims))
            label = f"{tag}/pass{p}"
            t1_argv = ["eval", "--rho", rho,
                       "--x", file(tag, "x", lambda path, f=x: inputs.write_product(path, f)),
                       "--y", file(tag, "y", lambda path, f=y: inputs.write_product(path, f))]
            add(t1_argv, _eval_check(state, t1_probe=(x, y), label=label + "/T1"))
            add(t1_argv + ["--k", str(k), "--csv"],
                _eval_check(state, t1_probe=(x, y), ks=[k], as_csv=True, label=label + "/T1k"))
            if t2:
                x2 = [inputs.random_factor(dims[0], rng) for _ in dims]
                omegas = [inputs.random_factor(dims[0], rng) for _ in range(2)]
                omega_paths = [
                    file(tag, f"w{s}", lambda path, w=w: inputs.write_matrix(path, w, [w.shape[0]]))
                    for s, w in enumerate(omegas)]
                t2_argv = ["eval", "--rho", rho, "--theorem", "2",
                           "--x", file(tag, "x2", lambda path, f=x2: inputs.write_product(path, f)),
                           "--omega", ",".join(omega_paths)]
                add(t2_argv + ["--csv"], _eval_check(state, t2_probe=(x2, omegas), as_csv=True,
                                                     label=label + "/T2"))
                add(t2_argv + ["--k", str(k)], _eval_check(state, t2_probe=(x2, omegas), ks=[k],
                                                           label=label + "/T2k"))
        return reqs

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        for path, write in self._files:
            write(path)


# ---------------------------------------------------------------- family_scan


class FamilyScan(CliWorkload):
    """`fig1` boundary scans with both probes, plus `table1` at n = 10, 9 and 8."""

    name = "family_scan"
    warmup_argv = ["table1"]
    FIG1 = dict(n=5, d=4, grid=200)

    def make_pass(self, p: int) -> list:
        rng = np.random.default_rng([self.seed, 3, p])
        n, d, grid = self.FIG1["n"], self.FIG1["d"], self.FIG1["grid"]
        reqs = [
            (["fig1", "--n", str(n), "--d", str(d), "--grid", str(grid)],
             self._fig1_check("w"), (n - 1) * (grid + 1)),
            (["fig1", "--n", str(n), "--d", str(d), "--grid", str(grid), "--probe", "wtilde"],
             self._fig1_check("wtilde"), (n - 1) * (grid + 1)),
            (["table1", "--n", "10"], self._table1_check(10), 9),
            # n = 9 puts the median latency in the middle of the n = 10
            # group rather than at its upper edge.
            (["table1", "--n", "9"], self._table1_check(9), 8),
            (["table1"], self._table1_check(8), 7),
        ]
        order = rng.permutation(len(reqs))
        return [reqs[i] for i in order]

    def _once(self, key, out, verify):
        """Check an output fully the first time; later passes must repeat it byte for byte."""
        seen = self._ref_cache.get(("out", key))
        if seen is not None:
            return ([] if out == seen else [f"{key}: output differs from the first pass"]), 0
        problems = verify(out)
        self._ref_cache[("out", key)] = out
        return problems, 0

    def _table1_check(self, n: int):
        def verify(out):
            rows = list(csv.DictReader(io.StringIO(out)))
            if [int(r["k"]) for r in rows] != list(range(1, n)):
                return [f"table1 --n {n}: wrong k column"]
            return [f"table1 --n {n} k={r['k']}: p_k {r['p_k']} != closed form"
                    for r in rows
                    if not abs(float(r["p_k"]) - ref.ghz_threshold(n, int(r["k"]))) <= THRESHOLD_TOL]
        return lambda out: self._once(f"table1/{n}", out, verify)

    def _fig1_check(self, probe: str):
        n, d, grid = self.FIG1["n"], self.FIG1["d"], self.FIG1["grid"]
        dims = (d,) * n
        mixture = inputs.preset_mixture(f"w:{n}:{d}:p=0,q=0")
        presets = inputs.w_probe(n, d) if probe == "w" else inputs.w_tilde_probe(n, d)

        def margin_at(k, gridline, t):
            bundles = self.cached(("fig1", probe), lambda: [
                ref.t2_bundle(inputs.Mixture(dims, [(1.0, amp)]), dims, *presets)
                for _, amp in mixture.pure] + [
                ref.t2_bundle(inputs.Mixture(dims, noise=1.0), dims, *presets)])
            p, q = (t, gridline) if probe == "w" else (gridline, t)
            v = ref.t2_values(ref.combine(bundles, [p, q, 1.0 - p - q]), k)
            return v["margin"], v["scale"]

        def verify(out):
            rows = list(csv.DictReader(io.StringIO(out)))
            if len(rows) != (n - 1) * (grid + 1):
                return [f"fig1 {probe}: {len(rows)} rows"]
            problems = []
            star_col = "p_star" if probe == "w" else "q_star"
            grid_col = "q" if probe == "w" else "p"
            for r in rows:
                k, g, star = int(r["k"]), float(r[grid_col]), r[star_col]
                hi = 1.0 - g
                where = f"fig1 {probe} k={k} {grid_col}={g}"
                if star == "none":
                    if hi > 0:
                        m, scale = margin_at(k, g, hi)
                        if m > REL * scale:
                            problems.append(f"{where}: no root but margin {m} at {hi}")
                    continue
                star = float(star)
                if g == 0.0 and abs(star - ref.w_threshold(n, k, d)) > THRESHOLD_TOL:
                    problems.append(f"{where}: {star} != closed form {ref.w_threshold(n, k, d)}")
                m, scale = margin_at(k, g, star)
                if not _close(float(r["margin_residual"]), m, scale):
                    problems.append(f"{where}: residual {r['margin_residual']} != {m}")
                left = margin_at(k, g, max(star - 2e-8, 0.0))
                right = margin_at(k, g, min(star + 2e-8, hi))
                if (star > 0 and left[0] > REL * left[1]) or right[0] < -REL * right[1]:
                    problems.append(f"{where}: margin does not change sign at {star}")
            return problems

        return lambda out: self._once(f"fig1/{probe}", out, verify)


# ---------------------------------------------------------------- soundness_sweep


class SoundnessSweep:
    """Library API: random states with >= k unentangled particles, N = 3..6 qubits,
    each evaluated at the state's k under T1 (two random probes) and T2 (one
    random probe).  A request is one state: its build plus its evaluations;
    failures are counted per evaluation.  States with k = N-1 also get the tight probe x = y, on
    which Theorem 1 holds with equality for every state, so rounding alone
    decides the outcome.  Those states and tight probes are drawn from a
    fixed stream, not from the seed, so the number of false certificates is
    the same in every run."""

    name = "soundness_sweep"
    STATES_PER_K = 16
    TERMS = 4
    TIGHT_STREAM = 20230622

    def __init__(self, seed: int, passes: int, workdir: Path):
        self.seed = seed
        self.passes = passes

    def prepare(self) -> None:
        pass

    def _cases(self, p: int):
        rng = np.random.default_rng([self.seed, 4, p])
        fixed = np.random.default_rng([self.TIGHT_STREAM, p])
        for n in range(3, 7):
            for k in range(1, n):
                for _ in range(self.STATES_PER_K):
                    tight = k == n - 1
                    state_seed = int((fixed if tight else rng).integers(2**31))
                    probes = [("T1", [inputs.random_factor(2, rng) for _ in range(n)],
                               [inputs.random_factor(2, rng) for _ in range(n)]) for _ in range(2)]
                    if tight:
                        x = [inputs.random_factor(2, fixed) for _ in range(n)]
                        probes.append(("T1", x, x))
                    probes.append(("T2", [inputs.random_factor(2, rng) for _ in range(n)],
                                   [inputs.random_factor(2, rng) for _ in range(2)]))
                    yield n, k, state_seed, probes

    def warmup(self, kunent) -> None:
        n, k, seed, probes = next(iter(self._cases(self.passes)))
        self._evaluate(kunent, n, k, seed, probes)

    @staticmethod
    def _evaluate(kunent, n, k, state_seed, probes):
        """Build one state and evaluate every probe on it: (elapsed_s, reports, rho)."""
        tensor, criteria, states = kunent.tensor, kunent.criteria, kunent.states
        start = perf_counter()
        dims = tensor.qubits(n)
        rho = states.random_k_unentangled(dims, k, SoundnessSweep.TERMS, state_seed)
        reports = []
        for kind, a, b in probes:
            x = tensor.ProductOperator(dims, tuple(a))
            if kind == "T1":
                evaluator = criteria.Theorem1Evaluator(x, tensor.ProductOperator(dims, tuple(b)))
            else:
                evaluator = criteria.Theorem2Evaluator(x, b)
            reports.append(evaluator.evaluate(rho, k))
        return perf_counter() - start, reports, rho

    def run_pass(self, kunent, p: int, tally: Tally, tracer=None, between=None) -> PassResult:
        """Run pass p; `between()`, if given, is called before each request."""
        result = PassResult(0.0, [], 0)
        for i, (n, k, state_seed, probes) in enumerate(self._cases(p)):
            if between is not None:
                between()
            if tracer is not None:
                tracer.request = i
            try:
                elapsed, reports, rho = self._evaluate(kunent, n, k, state_seed, probes)
            except (Exception, SystemExit) as exc:
                tally.attempted += len(probes)
                tally.failed += len(probes)
                tally.errors.append(f"N={n} k={k} seed={state_seed}: {exc!r}")
                continue
            result.wall_s += elapsed
            result.latencies_s.append(elapsed)
            result.evals += len(reports)
            mat = np.asarray(rho.mat)
            dims = (2,) * n
            for (kind, a, b), report in zip(probes, reports):
                tally.attempted += 1
                if kind == "T1":
                    e = ref.t1_values(ref.t1_bundle(mat, dims, a, b), k)
                else:
                    e = ref.t2_values(ref.t2_bundle(mat, dims, a, b), k)
                r = {"k": report.k, "lhs": report.lhs, "rhs": report.rhs,
                     "margin": report.margin, "detected": report.detected}
                problems, false_certs = check_reports(
                    [r], {k: e}, k, f"N={n} k={k} seed={state_seed} {kind}")
                if problems:
                    tally.fail(problems[0])
                elif false_certs:
                    tally.failed += 1
                    tally.false_certs += 1
                    result.false_certs += 1
        return result


WORKLOADS = {w.name: w for w in (PresetEval, FileEval, FamilyScan, SoundnessSweep)}
