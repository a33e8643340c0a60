"""Mutant audit: does tier-1 fail on each program of a list of wrong ones?

Each mutant replaces one snippet, or a tuple of snippets, of one file of
``src/hkforge``; each snippet must occur exactly once, so a mutant that no
longer matches the source is reported as stale rather than run, and
``tests/test_mutant_audit.py`` fails on it in tier-1.  For each mutant the
script copies the package, ``tests/``, ``bench/`` (which the smoke tests
run), ``README.md`` and ``pyproject.toml`` to a temporary directory,
applies the mutant to the copy and runs the tier-1 suite there with
``-x``, that stale-snippet test left out.  It prints, per mutant,
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

# (name, file under src/hkforge, snippet, replacement); a tuple of snippets
# takes the tuple of replacements
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
     "_fold_near(target, neg[:h], source.s_nodes[:h] - 1j * angle)",
     "pass"),
    ("sweep's forward near fold dropped", "solver.py",
     "_fold_near(source, rows[:h], w)",
     "pass"),
    ("evaluation's near fold dropped", "solver.py",
     "        _fold_near(grid, block, poles)\n",
     "        pass\n"),
    ("sweep's reverse kernel stored under +angle", "solver.py",
     "kernels[source.s_max, target.s_max, -angle] =",
     "kernels[source.s_max, target.s_max, angle] ="),
    ("sweep's kernel key without the source s_max", "solver.py",
     ("key = (target.s_max, source.s_max, angle)",
      "kernels[source.s_max, target.s_max, -angle] ="),
     ("key = (target.s_max, angle)",
      "kernels[source.s_max, -angle] =")),
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
     "yield worst <= bound,",
     "yield not worst > bound,"),
    ("jump-check's defect gate back at a fixed 1e-7", "cli.py",
     "yield worst <= bound,",
     "yield worst <= 1e-7,"),
    ("jump-check passes a NaN recheck residual", "cli.py",
     "yield sol.recheck_residual <= bound,",
     "yield not sol.recheck_residual > bound,"),
    ("jump-check takes its gate from the file alone", "cli.py",
     "bound = 10 * min(sol.tol_iter, solver.TOL_ITER)",
     "bound = 10 * sol.tol_iter"),
    ("tree-compare passes a NaN gap at its gate", "cli.py",
     "yield gap <= gate,",
     "yield not gap > gate,"),
    ("ov-compare drops a NaN error", "cli.py",
     "worst = float(np.max(errors, initial=0.0))",
     "worst = max([0.0] + errors)"),
    ("ov-compare passes a NaN error", "cli.py",
     "yield worst <= args.tol,",
     "yield not worst > args.tol,"),
    ("decay-scan passes a NaN relative error", "cli.py",
     "yield report.relative_error <= args.tol_rel,",
     "yield not report.relative_error > args.tol_rel,"),
    ("non-finite --zeta accepted", "cli.py",
     'if not cmath.isfinite(getattr(args, "zeta", 0)):',
     "if False:"),
    ("non-finite --u, --theta and --phi accepted", "cli.py",
     "if not all(cmath.isfinite(x) for x in entries):",
     "if False:"),
    ("infinite --R and tolerances accepted", "cli.py",
     "and not 0 < getattr(args, name) < math.inf:",
     "and not 0 < getattr(args, name):"),
    ("sign of the directed values' +-2 pi i residue term", "solver.py",
     "w[on] = w.real[on] + 1e-300j",
     "w[on] = w.real[on] - 1e-300j"),
    ("per-zeta side collapsed to its first entry", "solver.py",
     "np.broadcast_to(side, w.shape)[on]",
     "np.ravel(side)[0]"),
    ("fit_point's ray-distance filter dropped", "geometry.py",
     "np.all(gaps > SAMPLE_RAY_GAP, axis=1)",
     "np.all(gaps >= 0.0, axis=1)"),
    ("2 / zeta' -> 1 / zeta' in zeta_zero_moments", "solver.py",
     "lambda grid, _: 2.0 / grid.zeta_nodes",
     "lambda grid, _: 1.0 / grid.zeta_nodes"),
    ("laurent_forms' c reads +du0, the zeta -> 0 sign", "semiflat.py",
     "c = 2.0 * scale * pair(lin, const - du0)",
     "c = 2.0 * scale * pair(lin, const + du0)"),
    ("sign of Lattice.dual_pairing flipped", "lattice.py",
     "return -np.linalg.inv(eps)",
     "return np.linalg.inv(eps)"),
    ("log_one_minus skips its exact branch", "solver.py",
     "    if cancel.any():",
     "    if False:"),
    ("sweep's log(1 - X) domain check dropped", "solver.py",
     "if float(np.max(np.abs(x), initial=0.0)) >= 1.0 - 1e-9:",
     "if False:"),
    ("TreeIntegrator._extend flags no tower", "trees.py",
     "n <= towers))",
     "False))"),
    ("pairing p -> p^3 in the KS factor exponent", "ks.py",
     "exponent = power * (base + pair)",
     "exponent = power * (base + pair) ** 3"),
    ("Omega -> Omega^3 in the KS factor exponent", "ks.py",
     "exponent = power * (base + pair)",
     "exponent = power ** 3 * (base + pair)"),
    ("multicover 1 / n^2 -> 1 / n", "trees.py",
     "total += Fraction(om, n * n)",
     "total += Fraction(om, n)"),
    ("NEAR_HALF_WIDTHS 1.5 -> 0.5", "solver.py",
     "NEAR_HALF_WIDTHS = 1.5",
     "NEAR_HALF_WIDTHS = 0.5"),
    ("TAIL_SHARE 0.1 -> 100", "solver.py",
     "TAIL_SHARE = 0.1",
     "TAIL_SHARE = 100.0"),
    ("TAIL_MARGIN 4 -> -4", "solver.py",
     "TAIL_MARGIN = 4.0",
     "TAIL_MARGIN = -4.0"),
    ("image rows not conjugated", "solver.py",
     "full[..., ws.image, :] = np.conj(full[..., ws.source, ::-1])",
     "full[..., ws.image, :] = full[..., ws.source, ::-1]"),
    ("image rows without the node reversal", "solver.py",
     "full[..., ws.image, :] = np.conj(full[..., ws.source, ::-1])",
     "full[..., ws.image, :] = np.conj(full[..., ws.source, :])"),
    ("mirroring without the closure test", "solver.py",
     "if closed and ray[j] < ray[k]]",
     "if j is not None and ray[j] < ray[k]]"),
    ("closure test ignores Omega", "solver.py",
     "j is not None and omegas[j] == omegas[k]\n",
     "j is not None\n"),
    ("closure test ignores s_max", "solver.py",
     "\n                 and grids[ray[j]].s_max == grids[ray[k]].s_max",
     ""),
    ("iterate's recheck on the half map", "solver.py",
     "recheck_residual=recheck(model, point, grids, log_xsf,\n"
     "                                                ups, ws),",
     "recheck_residual=_change(_mirrored(ws, _half_step(ws, _density(\n"
     "                           own, ups[ws.rows]))), ups),"),
    ("solve's memo key without tol_iter", "solver.py",
     "key = (model.lattice, tuple(rays), point, spec, tol_iter, max_iter)",
     "key = (model.lattice, tuple(rays), point, spec, max_iter)"),
    ("solve's memo key on ray charges only", "solver.py",
     "key = (model.lattice, tuple(rays), point, spec, tol_iter, max_iter)",
     "key = (model.lattice, tuple(ray.charges for ray in rays), point,\n"
     "           spec, tol_iter, max_iter)"),
    ("solve's memo key without the lattice", "solver.py",
     "key = (model.lattice, tuple(rays), point, spec, tol_iter, max_iter)",
     "key = (tuple(rays), point, spec, tol_iter, max_iter)"),
    ("solve's stored arrays left writeable", "solver.py",
     "array.flags.writeable = False",
     "pass"),
    ("solve's memo unbounded", "solver.py",
     "if len(_SOLVED) > SOLVE_MEMO_SIZE:",
     "if False:"),
    ("solve's memo first in, first out", "solver.py",
     "_SOLVED.move_to_end(key)",
     "pass"),
    ("main exits 0 on a failed gate", "cli.py",
     "print(line)\n                return 1",
     "print(line)\n                return 0"),
    ("zero --zeta accepted", "cli.py",
     'if getattr(args, "zeta", 1) == 0:',
     "if False:"),
    ("negative --seed accepted", "cli.py",
     'for name in ("emit_grid", "seed"):',
     'for name in ("emit_grid",):'),
    ("kernel mirror's lower half not conjugated", "solver.py",
     "np.copyto(lower.imag, image.imag)",
     "np.negative(image.imag, out=lower.imag)"),
    ("kernel mirror without its sign", "solver.py",
     ("np.negative(image.real, out=lower.real)",
      "np.copyto(lower.imag, image.imag)"),
     ("np.copyto(lower.real, image.real)",
      "np.negative(image.imag, out=lower.imag)")),
    ("grids not mirrored", "solver.py",
     "s[n - k:], w[n - k:] = -s[:k][::-1], w[:k][::-1]",
     "pass"),
    ("closed-form kernel's 1 - e^z by subtraction", "solver.py",
     "-np.expm1(w - s_max)",
     "1.0 - np.exp(w - s_max)"),
    ("one-node ray grid accepted", "cli.py",
     'if getattr(args, "nodes", None) == 1 == getattr(args, "panels", None):',
     "if False:"),
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
        if isinstance(old, str):
            old, new = (old,), (new,)
        for snippet, replacement in zip(old, new):
            if text.count(snippet) != 1:
                return "STALE", (f"snippet found {text.count(snippet)} "
                                 f"times in {path}")
            text = text.replace(snippet, replacement)
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
        env = {**os.environ, "PYTHONPATH": os.path.join(tmp, "src"),
               "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
                 "-p", "no:cacheprovider", "--continue-on-collection-errors",
                 # it reads this list, and a mutant's snippet is gone from
                 # its own copy by design
                 "--ignore=tests/test_mutant_audit.py"],
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
            print(f"{k:3d}  {path:11s} {name}")
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
