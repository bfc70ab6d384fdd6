"""Mutation runner for the certificate path, the state-file decoder, the
dense pair-block sweep, the oracle's wiring and the count rules: do the
tests catch a wrong rule?

Each mutant replaces one text, which must occur exactly once, in one file
of ``src/kunent``.  For each mutant in turn, ``src/``, ``tests/``,
``pyproject.toml`` (which makes warnings errors) and ``README.md`` (whose
quick start a test runs) are copied to a temporary directory, the one
replacement is applied there, and ``python -m pytest -x -q`` runs in it
with ``PYTHONPATH`` set to the copy's ``src`` and one BLAS thread.  The
first test that fails kills the mutant; a mutant that passes every test
survived.  The unmutated copy runs first and must pass.

Run from anywhere, with only the standard library and the test
dependencies:

    python tests/mutants.py           # every mutant, one row each; a few minutes
    python tests/mutants.py --check   # each old text occurs once; runs no tests

The full run exits 1 when a mutant survives.  pytest does not collect this
file (it is not named ``test_*.py``).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (file under src/kunent, old text, new text, what the mutant breaks).
MUTANTS = [
    ("criteria.py",
     "return margin > DETECTION_TOL + gamma * scale",
     "return margin >= DETECTION_TOL + gamma * scale",
     "a margin equal to the rounding allowance certifies"),
    ("config.py",
     "PSD_TOL = 1e-10",
     "PSD_TOL = 1e-4",
     "states with an eigenvalue down to -1e-4 pass validation"),
    ("criteria.py",
     "detected = certified(margin, np.maximum(lhs_w, rhs_w), lhs.shape[-1], self.dims.total_dim)",
     "detected = margin > 0.0",
     "T2_k1 decides by the sign of its margin, with no rounding allowance"),
    ("config.py",
     "DETECTION_TOL = 1e-12",
     "DETECTION_TOL = 0",
     "the certificate rule loses its absolute floor"),
    ("criteria.py",
     "gamma = summation_gamma(terms + dim)",
     "gamma = summation_gamma(terms)",
     "the allowance ignores the rounding of each trace over the space"),
    ("criteria.py",
     "rhs_sites = big_t * (n - k - 1) * np.sum(",
     "rhs_sites = big_t * (n - k) * np.sum(",
     "T2's site sum gets the coefficient of k - 1"),
    ("criteria.py",
     "return values.take(order, axis=-1)",
     "return values[..., order]",
     "_gather by fancy indexing: a batch's rows may be summed in another order"),
    ("tensor.py",
     "shifted.ravel()[:: d + 1] += PSD_TOL - bound",
     "shifted.ravel()[:: d + 1] += PSD_TOL + bound",
     "the Cholesky shift adds its error bound instead of leaving it out"),
    ("tensor.py",
     "return bool(np.isfinite(factor.diagonal()).all())",
     "return True",
     "a Cholesky factor with a NaN or inf pivot certifies positivity"),
    ("thresholds.py",
     "bisect & (at_lo.margin <= 0.0) & convex)",
     "bisect & (at_lo.margin <= 0.0))",
     "the chord stage brackets margins that are not convex"),
    ("thresholds.py",
     "        s[bad], t[bad], chord[bad] = lo[bad], hi[bad], False\n",
     "",
     "_chord_bracket keeps rows whose signs contradict convexity"),
    ("thresholds.py",
     "bisect = at_hi.detected & ~at_lo.detected",
     "bisect = (at_hi.margin > 0.0) & ~at_lo.detected",
     "a scan's far end counts as detected by the sign of its margin"),
    ("serialize.py",
     '    if text.count("], [", start, close) != n - 1:\n        return None\n',
     "",
     "the flat decoder takes any text between two entries"),
    ("serialize.py",
     "        if not expected.startswith(skeleton, at):\n            return None\n",
     "",
     "the flat decoder reads numbers without checking their brackets and commas"),
    ("tensor.py",
     "return blocks.take(_sweep_order(n), axis=0)",
     "return blocks",
     "the dense pair blocks come in the sweep's order, not np.triu_indices order"),
    ("tensor.py",
     "(b.T[:, None, :, None] * u[None, :, None, :])",
     "(u[:, None, :, None] * b.T[None, :, None, :])",
     "the dense sweep's suffix krons take the sites after j in decreasing order"),
    ("oracle.py",
     "t1.subset[full ^ mask]",
     "t1.subset[mask]",
     "the factorization check pairs a subset with itself, not its complement"),
    ("tensor.py",
     "    if not _is_int(value):\n",
     "    if not isinstance(value, (int, np.integer)):\n",
     "a count may be a bool: True counts as 1"),
    ("states.py",
     '_check_count("k", k, 1, n - 1)',
     '_check_count("k", k, 1, n)',
     "k = N passes the k rule"),
]


def check() -> list[str]:
    """A line for each mutant whose old text does not occur exactly once."""
    problems = []
    for number, (name, old, _, _) in enumerate(MUTANTS, 1):
        found = (ROOT / "src" / "kunent" / name).read_text(encoding="utf-8").count(old)
        if found != 1:
            problems.append(f"mutant {number} ({name}): old text occurs {found} times: {old!r}")
    return problems


def killer(mutant=None) -> str | None:
    """The first test that fails on a copy with `mutant` applied, or None."""
    with tempfile.TemporaryDirectory(prefix="kunent-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, work)
        if mutant is not None:
            name, old, new, _ = mutant
            path = work / "src" / "kunent" / name
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "OPENBLAS_NUM_THREADS": "1"}
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                             cwd=work, env=env, capture_output=True, text=True)
    if run.returncode == 0:
        return None
    for line in run.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0].split(" ", 1)[1]
    return f"pytest exit {run.returncode}"


def main(argv: list[str]) -> int:
    problems = check()
    if problems or argv == ["--check"]:
        print("\n".join(problems) or f"{len(MUTANTS)} mutants, each old text occurs once")
        return 1 if problems else 0
    if argv:
        print(f"usage: {sys.argv[0]} [--check]", file=sys.stderr)
        return 2
    baseline = killer()
    if baseline is not None:
        print(f"the unmutated tree fails {baseline}; no mutant can be judged", file=sys.stderr)
        return 1
    print("| # | file | mutant | killed by |")
    print("|---|------|--------|-----------|")
    survived = 0
    for number, mutant in enumerate(MUTANTS, 1):
        test = killer(mutant)
        survived += test is None
        print(f"| {number} | {mutant[0]} | {mutant[3]} | {test or 'survived'} |", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
