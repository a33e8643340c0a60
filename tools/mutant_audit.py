"""Mutant audit: does tier-1 fail on each program of a list of wrong ones?

Each mutant replaces one snippet of one file of ``src/hkforge``; the snippet
must occur exactly once, so a mutant that no longer matches the source is
reported as stale rather than run.  For each mutant the script copies the
package, ``tests/``, ``bench/`` (which the smoke tests run), ``README.md``
and ``pyproject.toml`` to a temporary directory, applies the mutant to the
copy and runs the tier-1 suite there with ``-x``.  It prints, per mutant,
killed with the first failing test, or survived.  The worktree is only
read.  Run from anywhere in a checkout:

    python3 tools/mutant_audit.py          # every mutant
    python3 tools/mutant_audit.py 1 4      # mutants 1 and 4
    python3 tools/mutant_audit.py --list   # the numbered list

It exits 1 if a mutant survived or is stale.  A killed mutant stops at its
first failure; a survivor runs the whole suite (about 30 s on 2 cores).
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "bench", "README.md", "pyproject.toml")
TIMEOUT = 900  # seconds for one run of the suite

# (name, file under src/hkforge, snippet, replacement)
MUTANTS = [
    ("pairing p -> p^3 in _coefficients", "solver.py",
     "omegas[:, None] * pairs / (4.0 * math.pi)",
     "omegas[:, None] * pairs ** 3 / (4.0 * math.pi)"),
    ("Omega -> Omega^2 in _coefficients", "solver.py",
     "omegas[:, None] * pairs / (4.0 * math.pi)",
     "omegas[:, None] ** 2 * pairs / (4.0 * math.pi)"),
    ("pairing p -> p^3 in TreeIntegrator._extend", "trees.py",
     "pairing = (coeffs @ model.lattice.matrix() @ coeffs.T).tolist()",
     "pairing = ((coeffs @ model.lattice.matrix() @ coeffs.T) ** 3"
     ").tolist()"),
    ("sweep's reverse near fold dropped", "solver.py",
     "near_ba = _fold_near(grids[a], neg, grids[b].s_nodes - 1j * dphi)",
     "near_ba = bool(abs(dphi) < grids[a].near_angle)"),
    ("sweep's forward near fold dropped", "solver.py",
     "near_ab = _fold_near(grids[b], rows, w_ab)",
     "near_ab = bool(abs(dphi) < grids[b].near_angle)"),
    ("evaluation's near fold dropped", "solver.py",
     "        _fold_near(grid, block, poles)\n",
     "        pass\n"),
    ("load_solution accepts non-finite values", "cli.py",
     "fault = _schema_fault(payload, _SOLUTION_SCHEMA) \\\n"
     "        or _non_finite_field(payload)",
     "fault = _schema_fault(payload, _SOLUTION_SCHEMA)"),
    ("ray_jump_defect drops a NaN defect", "solver.py",
     "return float(np.max(defects, initial=0.0))",
     "return max([0.0] + defects)"),
    ("jump-check drops a NaN defect", "cli.py",
     "worst = float(np.max(defects, initial=0.0))",
     "worst = max([0.0] + defects)"),
    ("jump-check passes a NaN defect", "cli.py",
     "if not worst <= args.tol:",
     "if worst > args.tol:"),
    ("jump-check passes a NaN recheck residual", "cli.py",
     "if not sol.recheck_residual <= 10 * sol.tol_iter:",
     "if sol.recheck_residual > 10 * sol.tol_iter:"),
    ("tree-compare passes a NaN gap at its gate", "cli.py",
     "if not gap <= gate:",
     "if gap > gate:"),
    ("non-finite --zeta accepted", "cli.py",
     'if not cmath.isfinite(getattr(args, "zeta", 0)):',
     "if False:"),
    ("infinite --R and tolerances accepted", "cli.py",
     "and not 0 < getattr(args, name) < math.inf:",
     "and not 0 < getattr(args, name):"),
]


def _first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" - ")[0]
    return "(no FAILED line; see the pytest output)"


def run_mutant(path: str, old: str, new: str) -> tuple[str, str]:
    """(verdict, detail) of one mutant on a fresh copy of the checkout."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for item in COPIED:
            src = os.path.join(ROOT, item)
            dst = os.path.join(tmp, item)
            if os.path.isdir(src):
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns(
                    "__pycache__", "*.egg-info"))
            else:
                shutil.copy2(src, dst)
        target = os.path.join(tmp, "src", "hkforge", path)
        with open(target, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(old) != 1:
            return "STALE", (f"snippet found {text.count(old)} times in "
                             f"{path}")
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": os.path.join(tmp, "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
                 "-p", "no:cacheprovider", "--continue-on-collection-errors"],
                cwd=tmp, env=env, capture_output=True, text=True,
                timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "KILLED", f"suite timed out after {TIMEOUT} s"
    if done.returncode == 0:
        return "SURVIVED", done.stdout.strip().splitlines()[-1]
    return "KILLED", _first_failure(done.stdout)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("numbers", type=int, nargs="*",
                    help="mutants to run, by number (default: all)")
    ap.add_argument("--list", action="store_true",
                    help="print the numbered mutants and exit")
    args = ap.parse_args(argv)
    if args.list:
        for k, (name, path, _, _) in enumerate(MUTANTS, start=1):
            print(f"{k:3d}  {path:10s} {name}")
        return 0
    chosen = args.numbers or range(1, len(MUTANTS) + 1)
    if any(not 1 <= k <= len(MUTANTS) for k in chosen):
        ap.error(f"mutant numbers run from 1 to {len(MUTANTS)}")
    bad = 0
    for k in chosen:
        name, path, old, new = MUTANTS[k - 1]
        start = time.perf_counter()
        verdict, detail = run_mutant(path, old, new)
        bad += verdict != "KILLED"
        print(f"{k:3d}  {verdict:8s} {time.perf_counter() - start:6.1f} s  "
              f"{name}: {detail}", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
