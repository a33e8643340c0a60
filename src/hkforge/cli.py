"""Command-line entry point: validation, solving, checks, data emission.

Every subcommand is deterministic given its flags (randomized sampling is
seeded), failure paths exit with distinct codes and a one-line reason:
exit 0 on success, 1 on a failed check or solver error, 2 on usage errors.
A check prints its tables and yields its gates, (passed, FAIL line) pairs
written as the pass condition so that a NaN fails; ``main`` alone judges
them, and exits 1 with the line of the first gate that fails.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import sys
from collections.abc import Iterator

import numpy as np

from . import geometry, ks, models, solver, trees
from .lattice import CONDITION_THRESHOLD, charge, validate_conditions
from .semiflat import ModelPoint, omega3_sf, omega_plus_sf, xsf_log


class CheckFailure(RuntimeError):
    """A verification subcommand found a violation."""


Gates = Iterator[tuple[bool, str]]


def parse_complex(text: str) -> complex:
    try:
        re_part, im_part = text.split(",")
        return complex(float(re_part), float(im_part))
    except Exception as exc:
        raise argparse.ArgumentTypeError(
            f"expected 're,im', got {text!r}") from exc


def parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except Exception as exc:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated floats, got {text!r}") from exc


def content_hash(payload: dict) -> str:
    """Hash of every field of a solution payload but ``hash`` itself."""
    blob = json.dumps({k: v for k, v in payload.items() if k != "hash"},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def point_from_args(args) -> ModelPoint:
    return ModelPoint(args.u, args.R, args.theta)


# GridSpec fields kept in solution files, with the CLI flags that set them
SPEC_ARGS = {"eps_quad": "eps_quad", "panels": "panels",
             "nodes_per_panel": "nodes"}


def grid_spec_from_args(args) -> solver.GridSpec:
    return solver.GridSpec(**{f: getattr(args, a)
                              for f, a in SPEC_ARGS.items()})


def add_point_args(p):
    p.add_argument("--u", type=parse_complex, required=True,
                   metavar="RE,IM", help="base point")
    p.add_argument("--R", type=float, required=True, help="radius parameter")
    p.add_argument("--theta", type=parse_floats, metavar="T1,T2",
                   required=True, help="torus angles in radians")


def add_solver_args(p):
    p.add_argument("--tol", type=float, default=solver.TOL_ITER, dest="tol",
                   help="iteration stopping tolerance")
    p.add_argument("--max-iter", type=int, default=50)
    p.add_argument("--nodes", type=int, default=16,
                   help="Gauss-Legendre nodes per panel")
    p.add_argument("--panels", type=int, default=16,
                   help="most panels per ray; each solve takes the fewest "
                        "whose semiflat Legendre tail is below "
                        "--eps-quad / 10")
    p.add_argument("--eps-quad", type=float, default=1e-12)


def _positive_checks(args) -> None:
    for name in ("R", "tol", "eps_quad", "tol_rel", "min_order"):
        if hasattr(args, name) and getattr(args, name) is not None \
                and not 0 < getattr(args, name) < math.inf:
            raise UsageError(f"--{name.replace('_', '-')} must be positive "
                             f"and finite")
    for name in ("nodes", "panels", "order", "cutoff", "halvings", "count",
                 "max_iter", "grid", "zeta_grid"):
        if hasattr(args, name) and getattr(args, name) is not None \
                and getattr(args, name) < 1:
            raise UsageError(f"--{name.replace('_', '-')} must be >= 1")
    # a solve takes 1 panel only at --panels 1, so a ray's grid has fewer
    # than 2 nodes, and no node spacing, only at --nodes 1 --panels 1
    if getattr(args, "nodes", None) == 1 == getattr(args, "panels", None):
        raise UsageError("a ray grid needs at least 2 nodes: raise --nodes "
                         "or --panels")
    if hasattr(args, "sep") and not 0 < args.sep < 1:
        raise UsageError("--sep must lie in (0, 1)")
    if any(not 0 < r < math.inf for r in getattr(args, "r_list", ())):
        raise UsageError("every R in the R list must be positive and finite")
    if not cmath.isfinite(getattr(args, "zeta", 0)):
        raise UsageError("--zeta must be finite")
    if getattr(args, "zeta", 1) == 0:
        raise UsageError("--zeta must be nonzero")
    for name, entries in (("u", (getattr(args, "u", 0),)),
                          ("theta", getattr(args, "theta", None) or ()),
                          ("phi", (getattr(args, "phi", 0),))):
        if not all(cmath.isfinite(x) for x in entries):
            raise UsageError(f"--{name} must be finite")
    for name in ("emit_grid", "seed"):
        if getattr(args, name, 0) < 0:
            raise UsageError(f"--{name.replace('_', '-')} must be >= 0")


class UsageError(ValueError):
    pass


def model_from_args(args):
    """The model of ``--model``, with ``--theta`` and ``--charge`` checked
    against its lattice rank before any work, and ``--charge`` nonzero."""
    model = models.load_model(args.model)
    rank = model.lattice.rank_total
    for name in ("theta", "charge"):
        value = getattr(args, name, None)
        if value is not None and len(value) != rank:
            raise UsageError(f"--{name} needs {rank} entries")
    gamma = getattr(args, "charge", None)
    if gamma is not None and not any(gamma):
        raise UsageError("--charge must be nonzero")
    return model


# ---------------------------------------------------------------------------
# subcommands


def cmd_model_info(args) -> None:
    model = model_from_args(args)
    print(models.model_info(model))


def cmd_validate(args) -> Gates:
    model = model_from_args(args)
    report = validate_conditions(model, n_grid=args.grid)
    print(report.table())
    yield report.ok, f"FAIL: residual above {CONDITION_THRESHOLD:g}"


def cmd_wcf_check(args) -> Gates:
    model = model_from_args(args)
    yield (model.name == "pentagon",
           "wcf-check: only the pentagon model carries a wall")
    grading = ks.ConeGrading(model.lattice, tuple(model.lattice.basis()))
    g1, g2 = charge(1, 0), charge(0, 1)
    lhs = ks.ordered_product([ks.ks_transform(grading, g1, 1, args.order),
                              ks.ks_transform(grading, g2, 1, args.order)])
    rhs = ks.ordered_product([ks.ks_transform(grading, g2, 1, args.order),
                              ks.ks_transform(grading, g1 + g2, 1, args.order),
                              ks.ks_transform(grading, g1, 1, args.order)])
    if args.dump_series:
        for label, side in (("lhs K1 K2", lhs), ("rhs K2 K12 K1", rhs)):
            print(f"# {label}")
            for i, cof in enumerate(side.cofactors):
                print(f"## image cofactor of basis charge {i + 1}")
                for line in cof.dump_lines():
                    print(line)
    equal, first = ks.check_wcf(lhs, rhs)
    yield equal, f"pentagon identity: FAIL first discrepancy at degree {first}"
    print(f"pentagon identity: PASS order {args.order}")


def _solution_payload(model, point, spec, sol) -> dict:
    cfg = {"model": model.config,
           "point": {"u": [point.u.real, point.u.imag], "R": point.R,
                     "theta": list(point.theta)},
           "spec": {f: getattr(spec, f) for f in SPEC_ARGS},
           "tol_iter": sol.tol_iter}
    rays = [{"direction": [grid.ray.direction.real, grid.ray.direction.imag],
             "s_max": grid.s_max, "charges": []} for grid in sol.grids]
    for (r, gamma), vals in zip(solver.unknowns(sol.grids), sol.upsilon):
        rays[r]["charges"].append({
            "charge": list(gamma.coeffs),
            "upsilon": [[v.real, v.imag] for v in vals],
        })
    payload = {"config": cfg, "rays": rays, "iterations": sol.iterations,
               "residual": sol.residual}
    return {"hash": content_hash(payload), **payload}


# the fields load_solution reads, nested as in the file; a list holds the
# schema of each of its items
_SOLUTION_SCHEMA = {
    "hash": None, "iterations": None, "residual": None,
    "config": {"model": None, "tol_iter": None,
               "point": {"u": None, "R": None, "theta": None},
               "spec": dict.fromkeys(SPEC_ARGS)},
    "rays": [{"direction": None,
              "charges": [{"charge": None, "upsilon": None}]}],
}


def _schema_fault(value, schema, where: str = "") -> str | None:
    """The first field of ``schema`` that value lacks or misshapes, if any."""
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            return f"{where or 'payload'} is not an object"
        for name, sub in schema.items():
            field_path = f"{where}.{name}" if where else name
            if name not in value:
                return f"missing field {field_path}"
            fault = _schema_fault(value[name], sub, field_path)
            if fault:
                return fault
    elif isinstance(schema, list):
        if not isinstance(value, list):
            return f"{where} is not a list"
        for i, item in enumerate(value):
            fault = _schema_fault(item, schema[0], f"{where}[{i}]")
            if fault:
                return fault
    return None


def _non_finite_field(value, where: str = "payload") -> str | None:
    """The first number of ``value`` that is NaN or infinite, if any."""
    if isinstance(value, dict):
        items = ((f"{where}.{k}", v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{where}[{i}]", v) for i, v in enumerate(value))
    elif isinstance(value, float) and not math.isfinite(value):
        return f"non-finite value at {where}"
    else:
        return None
    return next(filter(None, (_non_finite_field(v, w) for w, v in items)),
                None)


def load_solution(path: str):
    """Model, point and solution stored in a solution file, without a solve.

    The grids are rebuilt from the stored configuration and carry the stored
    corrections; ``recheck_residual`` is one sweep of those, so it measures
    how far the file's data are from a fixed point.  The file records the
    solve's iteration count and last residual but not its residual history,
    which stays empty.
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    fault = _schema_fault(payload, _SOLUTION_SCHEMA) \
        or _non_finite_field(payload)
    if fault:
        raise CheckFailure(f"solution file {path}: {fault}")
    if content_hash(payload) != payload["hash"]:
        raise CheckFailure(f"solution file {path}: content hash mismatch")
    cfg = payload["config"]
    model = models.model_from_config(cfg["model"])
    point = ModelPoint(complex(*cfg["point"]["u"]), cfg["point"]["R"],
                       tuple(cfg["point"]["theta"]))
    spec = solver.GridSpec(**{f: cfg["spec"][f] for f in SPEC_ARGS})
    grids = solver.build_grids(model, point, spec)
    if len(payload["rays"]) != len(grids) or any(
            abs(complex(*ray["direction"]) - grid.ray.direction) > 1e-9
            for ray, grid in zip(payload["rays"], grids)):
        raise CheckFailure(f"solution file {path}: ray layout mismatch")
    stored = {(r, charge(*entry["charge"])): entry["upsilon"]
              for r, ray in enumerate(payload["rays"])
              for entry in ray["charges"]}
    log_xsf = solver.semiflat_nodes(model, point, grids)
    rows = solver.unknowns(grids)
    if set(stored) != set(rows) or any(
            len(vals) != log_xsf.shape[-1] for vals in stored.values()):
        raise CheckFailure(f"solution file {path}: charge table mismatch")
    upsilon = np.array([[complex(a, b) for a, b in stored[key]]
                        for key in rows], dtype=complex).reshape(log_xsf.shape)
    sol = solver.RaySolution(
        point=point, grids=grids, log_xsf=log_xsf, upsilon=upsilon,
        iterations=payload["iterations"], residual=payload["residual"],
        residual_history=[],
        recheck_residual=solver.recheck(model, point, grids, log_xsf,
                                        upsilon),
        tol_iter=cfg["tol_iter"], spec=spec)
    return model, point, sol


def cmd_solve(args) -> None:
    model = model_from_args(args)
    point = point_from_args(args)
    spec = grid_spec_from_args(args)
    sol = solver.solve(model, point, spec=spec, tol_iter=args.tol,
                       max_iter=args.max_iter)
    print(f"converged in {sol.iterations} iteration(s), "
          f"residual {sol.residual:.3e}, recheck {sol.recheck_residual:.3e}")
    print(f"rays: {len(sol.grids)}, max correction {sol.max_correction():.3e}")
    print(f"panels per ray: {sol.panels} (at most --panels {spec.panels}), "
          f"Legendre tail {sol.tail:.3e} (eps_quad {spec.eps_quad:g})")
    for grid in sol.grids:
        print(f"  ray {grid.ray.angle:+8.5f} rad  charges "
              f"{[c.coeffs for c in grid.ray.charges]}  s_max {grid.s_max:.3f}"
              f"  nodes {grid.node_count}")
    if args.out:
        payload = _solution_payload(model, point, spec, sol)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"solution written to {args.out} (hash {payload['hash']})")


def cmd_jump_check(args) -> Gates:
    model, point, sol = load_solution(args.solution)
    # the stored tolerance may tighten the gate, never loosen it; the jump
    # defects are held to the same bound
    bound = 10 * min(sol.tol_iter, solver.TOL_ITER)
    yield sol.recheck_residual <= bound, (
        f"FAIL: stored corrections are not a fixed point: recheck "
        f"residual {sol.recheck_residual:.3e} > {bound:g} (10 x "
        f"min(tol_iter {sol.tol_iter:g}, {solver.TOL_ITER:g}))")
    defects = []
    print("ray angle    jump defect")
    for i, grid in enumerate(sol.grids):
        defects.append(solver.ray_jump_defect(model, sol, i))
        print(f"{grid.ray.angle:+9.5f}  {defects[-1]:12.4e}")
    # a NaN defect is the worst
    worst = float(np.max(defects, initial=0.0))
    print(f"worst jump defect: {worst:.4e} (tolerance {bound:g})")
    yield worst <= bound, ("FAIL: ray jumps deviate from the expected "
                           "transformation")


def cmd_wall_check(args) -> Gates:
    model = model_from_args(args)
    yield (model.name == "pentagon",
           "wall-check: only the pentagon model carries a wall")
    w = models.pentagon_wall_point(model, args.phi)
    u_in = w * (1.0 - args.sep)
    u_out = w * (1.0 + args.sep)
    zetas = solver.midsector_zetas(
        solver.build_grids(model, ModelPoint(u_in, args.R, args.theta)), n=4)
    report = solver.check_wall_continuity(model, u_in, u_out, args.R,
                                          args.theta, zetas,
                                          halvings=args.halvings)
    print("separation     discrepancy")
    for s, d in zip(report.separations, report.discrepancies):
        print(f"{s:12.4e}  {d:12.4e}")
    print(f"observed orders: {['%.3f' % o for o in report.orders]}")

    support_in = model.spectrum.support(u_in)
    from .lattice import Spectrum
    frozen = Spectrum(lambda g, u: 1 if g in support_in else 0,
                      lambda u: support_in)
    control = solver.check_wall_continuity(model, u_in, u_out, args.R,
                                           args.theta, zetas,
                                           halvings=args.halvings,
                                           spectrum_override=frozen)
    print(f"negative-control orders: {['%.3f' % o for o in control.orders]}")
    yield report.min_order() >= args.min_order, (
        f"FAIL: continuity order {report.min_order():.3f} < {args.min_order}")
    yield (control.min_order() < args.min_order,
           "FAIL: negative control unexpectedly continuous")
    print(f"wall continuity: PASS (order >= {args.min_order}, "
          f"control stalls)")


def cmd_tree_compare(args) -> Gates:
    model = model_from_args(args)
    point = point_from_args(args)
    sol = solver.solve(model, point, tol_iter=1e-13)
    integ = trees.TreeIntegrator(model, point, sol.grids)
    gamma = charge(*args.charge)
    ref = solver.evaluate(model, sol, gamma, args.zeta)
    # S_0 is the semiflat value; one cutoff past the requested one measures
    # the next layer of the sum
    c = args.cutoff
    sums = [xsf_log(model, point, gamma, args.zeta)] + [
        trees.series_solution(model, point, gamma, args.zeta, cutoff,
                              integrator=integ).log_value
        for cutoff in range(1, c + 2)]
    gap = abs(sums[c] - ref.log_value)
    layer = abs(sums[c + 1] - sums[c])
    eps_quad = sol.spec.eps_quad
    # with no active ray both routes are X^sf: the gap and gates read 0
    min_z = min((g.ray.min_abs_z() for g in sol.grids), default=math.inf)
    q_floor = math.exp(-2 * math.pi * point.R * min_z)
    gate = trees.layer_gate(layer, abs(sums[c] - sums[c - 1]), q_floor,
                            eps_quad)
    bound = max(math.exp(-2 * math.pi * point.R * (c + 1) * min_z),
                10 * eps_quad)
    print(f"reference log X from the ray solver: {ref.log_value:.15g}")
    print("cutoff   log X (tree series)                 |dlog|")
    for cutoff, lv in enumerate(sums[1:c + 1], start=1):
        print(f"{cutoff:6d}   {lv:.15g}   {abs(lv - ref.log_value):.3e}")
    print(f"next layer |S_{c + 1} - S_{c}|: {layer:.3e}, "
          f"layer gate: {gate:.3e}")
    print(f"agreement bound: {bound:.3e}")
    yield gap <= gate, "FAIL: tree series gap exceeds the next-layer gate"
    yield gap <= bound, "FAIL: tree series disagrees beyond the cutoff bound"


def cmd_ov_compare(args) -> Gates:
    model = models.load_model("ov")
    rng = np.random.default_rng(args.seed)
    errors = []
    for k in range(args.count):
        R = args.r_list[k % len(args.r_list)]
        u = (0.3 + 0.5 * rng.random()) * cmath.exp(2j * math.pi * rng.random())
        if abs(cmath.phase(u)) > math.pi - 0.4:
            u = abs(u)
        theta = (2 * math.pi * rng.random(), 2 * math.pi * rng.random())
        point = ModelPoint(u, R, theta)
        sol = solver.solve(model, point)
        zeta = (0.4 + 1.2 * rng.random()) * cmath.exp(2j * math.pi * rng.random())
        if any(abs(cmath.phase(zeta / g.ray.direction)) < 0.05
               for g in sol.grids):
            zeta *= cmath.exp(0.3j)
        gamma = charge(1, 0)
        got = solver.evaluate(model, sol, gamma, zeta)
        want = models.ov_oracle(model, point, gamma, zeta)
        errors.append(abs(got.value - want.value)
                      / max(abs(want.value), 1e-300))
    # a NaN error is the worst
    worst = float(np.max(errors, initial=0.0))
    print(f"one-step oracle comparison over {args.count} samples: "
          f"worst relative error {worst:.3e}")
    yield worst <= args.tol, f"FAIL: above tolerance {args.tol:g}"


def cmd_decay_scan(args) -> Gates:
    if len(set(args.r_list)) < 2:
        raise UsageError("--R-list needs at least 2 distinct values")
    model = model_from_args(args)
    report = solver.correction_decay(model, args.u, args.theta, args.r_list)
    print("R        max correction")
    for r, m in zip(report.r_values, report.max_corrections):
        print(f"{r:6.3f}   {m:.6e}")
    print(f"fitted slope {report.slope:+.6f}, "
          f"expected {report.target:+.6f}, "
          f"relative error {report.relative_error:.3%}")
    yield report.relative_error <= args.tol_rel, (
        f"FAIL: decay-rate error above {100 * args.tol_rel:g}%")


def metric_at(model, point, semiflat_only: bool):
    """(fit, metric, algebra) at a point; the semiflat metric takes the
    closed-form semiflat forms, with no solve and no Laurent check (fit
    None)."""
    if not semiflat_only:
        return geometry.fit_point(model, point)
    forms = omega_plus_sf(model, point), omega3_sf(model, point)
    return (None, geometry.metric_from_triple(*forms),
            geometry.triple_wedge_check(*forms))


def cmd_metric(args) -> Gates:
    model = model_from_args(args)
    point = point_from_args(args)
    fit, metric, algebra = metric_at(model, point, args.semiflat_only)

    def show_matrix(name, m):
        print(name)
        for row in m:
            print("   " + "  ".join(f"{x:+12.6e}" for x in row))

    show_matrix("metric g:", metric.g)
    show_matrix("complex structure J:", metric.J)
    if fit is not None:
        print(f"laurent residual {fit.residual:.3e}, "
              f"omega_3 imaginary defect {fit.omega3_imag:.3e}, "
              f"reality defect {fit.conj_defect:.3e}")
    print(f"J^2 defect {metric.j_squared_defect:.3e}")
    print(f"triple algebra: equal-squares {algebra.equal_squares_defect:.3e}, "
          f"mixed {algebra.mixed_defect:.3e}")
    print("eigenvalues: " + "  ".join(f"{v:.6e}" for v in metric.eigenvalues))
    if args.emit_grid:
        rows = _metric_grid_rows(model, point, args.emit_grid,
                                 args.semiflat_only)
        with open(args.grid_out, "w", encoding="utf-8") as fh:
            fh.write("# re_u im_u " + " ".join(
                f"g{i}{j}" for i in range(4) for j in range(i, 4)) + "\n")
            for row in rows:
                fh.write(" ".join(f"{v:.10e}" for v in row) + "\n")
        print(f"metric grid written to {args.grid_out}")
    yield (metric.positive_definite,
           "FAIL: metric not positive definite at this point")


def _metric_grid_rows(model, point, n, semiflat_only):
    base = point.u
    offsets = np.linspace(-0.15, 0.15, n)

    def one(du):
        p = ModelPoint(base + du * max(abs(base), 1.0), point.R, point.theta)
        g = metric_at(model, p, semiflat_only)[1].g
        return [p.u.real, p.u.imag] + [g[i, j] for i in range(4)
                                       for j in range(i, 4)]

    return [one(du) for du in offsets]


def cmd_semiflat_sample(args) -> None:
    model = model_from_args(args)
    point = point_from_args(args)
    basis = model.lattice.basis()
    print("zeta_re        zeta_im        charge    Re log X^sf     Im log X^sf")
    for k in range(args.zeta_grid):
        z = cmath.exp(2j * math.pi * (k + 0.37) / args.zeta_grid)
        for gamma in basis:
            lv = xsf_log(model, point, gamma, z)
            print(f"{z.real:+12.8f}  {z.imag:+12.8f}  {str(gamma.coeffs):8}"
                  f"  {lv.real:+14.8e}  {lv.imag:+14.8e}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hkforge",
        description="quantum-corrected hyperkahler metrics from "
                    "integrable-system data")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model-info", help="print a model summary")
    p.add_argument("model")
    p.set_defaults(fn=cmd_model_info)

    p = sub.add_parser("validate", help="check the defining conditions")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", type=int, default=16)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("wcf-check", help="verify the wall-crossing identity")
    p.add_argument("--model", required=True)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--dump-series", action="store_true")
    p.set_defaults(fn=cmd_wcf_check)

    p = sub.add_parser("solve", help="solve the ray integral equation")
    p.add_argument("--model", required=True)
    add_point_args(p)
    add_solver_args(p)
    p.add_argument("--out", help="write the solution file here")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("jump-check", help="verify ray jumps of a solution")
    p.add_argument("--solution", required=True)
    p.set_defaults(fn=cmd_jump_check)

    p = sub.add_parser("wall-check", help="continuity across the wall")
    p.add_argument("--model", required=True)
    p.add_argument("--phi", type=float, default=0.9)
    p.add_argument("--sep", type=float, default=0.02)
    p.add_argument("--R", type=float, default=0.35)
    p.add_argument("--theta", type=parse_floats, default=(0.37, 1.29))
    p.add_argument("--halvings", type=int, default=4)
    p.add_argument("--min-order", type=float, default=0.9, dest="min_order")
    p.set_defaults(fn=cmd_wall_check)

    p = sub.add_parser("tree-compare", help="tree series vs ray solver")
    p.add_argument("--model", required=True)
    add_point_args(p)
    p.add_argument("--cutoff", type=int, default=4)
    p.add_argument("--zeta", type=parse_complex, required=True)
    p.add_argument("--charge", type=lambda s: tuple(int(x) for x in s.split(",")),
                   default=(1, 0))
    p.set_defaults(fn=cmd_tree_compare)

    p = sub.add_parser("ov-compare", help="solver vs independent quadrature")
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--r-list", type=parse_floats, default=(0.5, 1.0, 2.0),
                   dest="r_list")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_ov_compare)

    p = sub.add_parser("decay-scan", help="correction decay against R")
    p.add_argument("--model", required=True)
    p.add_argument("--u", type=parse_complex, required=True)
    p.add_argument("--theta", type=parse_floats, default=(0.37, 1.29))
    p.add_argument("--R-list", type=parse_floats, dest="r_list",
                   default=(1.0, 1.5, 2.0, 2.5, 3.0, 4.0))
    p.add_argument("--tol-rel", type=float, default=0.02, dest="tol_rel")
    p.set_defaults(fn=cmd_decay_scan)

    p = sub.add_parser("metric", help="assemble the metric at a point")
    p.add_argument("--model", required=True)
    add_point_args(p)
    p.add_argument("--semiflat-only", action="store_true",
                   help="the semiflat metric, from its closed-form forms")
    p.add_argument("--emit-grid", type=int, default=0, dest="emit_grid")
    p.add_argument("--grid-out", default="metric_grid.txt", dest="grid_out")
    p.set_defaults(fn=cmd_metric)

    p = sub.add_parser("semiflat-sample", help="table of semiflat coordinates")
    p.add_argument("--model", required=True)
    add_point_args(p)
    p.add_argument("--zeta-grid", type=int, default=8, dest="zeta_grid")
    p.set_defaults(fn=cmd_semiflat_sample)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _positive_checks(args)
        for passed, line in args.fn(args) or ():
            if not passed:
                print(line)
                return 1
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (solver.RSmallError, solver.NonConvergenceError,
            solver.RayProximityError, CheckFailure) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
