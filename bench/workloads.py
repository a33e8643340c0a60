"""One workload of the benchmark in its own single-threaded process.

    python3 bench/workloads.py --workload NAME --seed N --seconds S
                               [--trace 0|1] [--setup-only]

Set-up (imports, model construction, the workload's own set-up and one
untimed warm-up item) is timed from the start of this process.  The timed
phase then runs whole rounds of items back to back (a closed loop with one
client) until ``--seconds`` have passed; a traced run instead runs a fixed
number of rounds derived from ``--seconds``, so its counts repeat exactly.
Every op is followed by a calibration slice (``calib.py``); times are
scaled by the nominal slice time over the run's op-weighted slice time.
Inputs come from ``--seed`` alone and are drawn with a separate model
instance, so hkforge's caches in the measured model start cold.  The last
line printed is one JSON object that ``run.py`` reads.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import cmath  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

TWO_PI = 2.0 * math.pi
SETUP_CAL_REPS = 5      # calibration slices after each set-up phase
THETA_FIXED = (0.37, 1.29)


def import_hkforge():
    """Import hkforge from this checkout's ``src``, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "hkforge", "__init__.py")):
        raise SystemExit(f"hkforge sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import hkforge
    from hkforge import geometry, ks, lattice, models, semiflat, solver, trees
    if not os.path.abspath(hkforge.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"hkforge imported from {hkforge.__file__}, "
                         f"not from {SRC}")
    return dict(geometry=geometry, ks=ks, lattice=lattice, models=models,
                semiflat=semiflat, solver=solver, trees=trees)


@dataclass
class Op:
    """One operation of an item: its kind, a printable input, a callable."""

    kind: str
    where: str
    fn: object
    expect: str | None = None   # exception class a known fault raises


def os_threads() -> int | None:
    """Threads of this process (BLAS pools included), from /proc."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _fmt(z: complex) -> str:
    return f"{z.real:.6f}{z.imag:+.6f}i"


def _point_desc(pt) -> str:
    return (f"u={_fmt(pt.u)} R={pt.R:.6g} "
            f"theta=({pt.theta[0]:.6f},{pt.theta[1]:.6f})")


def wide_sector_zetas(sol, offsets=(0.0, 0.0), moduli=(1.0, 1.0)
                      ) -> list[complex]:
    """Zetas in the widest sectors between rays, one per offset.

    The k-th zeta sits in the k-th widest sector, turned from its middle
    by offsets[k] (a share of the half-width) with modulus moduli[k].  The
    tree sum integrates with the plain Cauchy kernel, which loses accuracy
    near a ray, and ``evaluate`` refuses zetas within 1e-3 rad of one;
    ``solver.midsector_zetas`` can put a zeta that close when a sector is
    narrow (see CHANGES.md), so the checks use the widest sectors instead.
    """
    angles = sorted(g.ray.angle for g in sol.grids)
    sectors = []
    for i, a in enumerate(angles):
        b = angles[(i + 1) % len(angles)] + (TWO_PI if i + 1 == len(angles)
                                             else 0.0)
        sectors.append((b - a, 0.5 * (a + b)))
    sectors.sort(key=lambda s: -s[0])
    return [r * cmath.exp(1j * (mid + f * 0.5 * width))
            for (width, mid), f, r in zip(sectors, offsets, moduli)]


# ---------------------------------------------------------------------------
# Workloads.  Each draws its inputs from its own generator stream, builds
# the ops of an item, and checks the ops' results after the timed span.


class MetricGrid:
    """``geometry.fit_point`` at strong-coupling pentagon points.

    4 rays with no pair closer than RAY_GAP_MIN, R in [1, 3], random theta.
    RAY_GAP_MIN is above the solver's NEAR_ANGLE, so only plain kernels
    are built, and above 0.3 + 2 x 0.05: ``fit_point`` samples at
    mid-sector zetas jittered by +-0.15 rad, which in a narrower sector
    land on a ray and raise (see CHANGES.md).
    """

    name = "metric-grid"
    cal_reps = 1            # calibration slices after every op
    round_s = 0.25          # nominal seconds of a round, for traced runs
    RAY_GAP_MIN = 0.4

    def __init__(self, hk, seed: int):
        self.hk = hk
        self.rng = np.random.default_rng([seed, 1])
        self.warm_rng = np.random.default_rng([seed, 1, 0])
        self.gen = hk["models"].pentagon_model()

    def setup(self):
        self.model = self.hk["models"].pentagon_model()

    def _draw(self, rng):
        ModelPoint = self.hk["semiflat"].ModelPoint
        while True:
            u = complex(rng.uniform(-1.3, 1.3), rng.uniform(-1.3, 1.3))
            R = float(rng.uniform(1.0, 3.0))
            theta = (float(rng.uniform(0, TWO_PI)),
                     float(rng.uniform(0, TWO_PI)))
            if abs(u) < 0.05 or self.gen.chamber(u) != "in":
                continue
            z1, z2 = self.gen.Z.basis_values(u)
            d = abs(cmath.phase(z1 / z2))
            if min(d, math.pi - d) < self.RAY_GAP_MIN:
                continue
            return dict(point=ModelPoint(u, R, theta),
                        min_z=min(abs(z1), abs(z2)))

    def next_round(self, warm: bool = False):
        return [self._draw(self.warm_rng if warm else self.rng)]

    def ops(self, inp):
        fit_point = self.hk["geometry"].fit_point
        pt = inp["point"]
        return [Op("fit_point", _point_desc(pt),
                   lambda: fit_point(self.model, pt))]

    def check(self, inp, results):
        from checks import metric_checks
        if "fit_point" not in results:
            return []
        sf = self.hk["semiflat"]
        fit, metric, _ = results["fit_point"]
        pt = inp["point"]
        return metric_checks(pt.R, inp["min_z"], fit.residual,
                             fit.omega_plus, fit.omega_3, metric.g,
                             sf.omega_plus_sf(self.gen, pt),
                             sf.omega3_sf(self.gen, pt))


class WallApproach:
    """Continuity across the pentagon wall, upper and lower arc.

    A round is two items, one per arc, at the wall directions phi 0.9 and
    -0.8 and seeded theta within 0.2 of (0.37, 1.29):
    ``check_wall_continuity`` at R 0.35, separation 0.02 and 4 halvings,
    genuine and with the frozen spectrum.  The direction is not seeded:
    the near-aligned ray geometry, and with it the cost of an item, moves
    with it.
    Each item also checks the ray jumps of a solve at 1.2 x its wall point,
    R 1, theta (0.37, 1.29).  That check raises
    RayProximityError on every input today (near-ray continuation fault);
    its inputs do not depend on the seed, so it fails in every round.
    """

    name = "wall-approach"
    cal_reps = 8
    round_s = 17.0
    BASES = (0.9, -0.8)
    WARM_BASE = 2.0
    THETA_JITTER = 0.2
    R, SEP, HALVINGS = 0.35, 0.02, 4

    def __init__(self, hk, seed: int):
        self.hk = hk
        self.rng = np.random.default_rng([seed, 2])
        self.warm_rng = np.random.default_rng([seed, 2, 0])
        self.gen = hk["models"].pentagon_model()
        self._walls = {}

    def setup(self):
        self.model = self.hk["models"].pentagon_model()
        for phi in self.BASES + (self.WARM_BASE,):
            self._walls[phi] = self.hk["models"].pentagon_wall_point(
                self.gen, phi)

    def _item(self, rng, phi: float):
        theta = tuple(t + float(rng.uniform(-self.THETA_JITTER,
                                            self.THETA_JITTER))
                      for t in THETA_FIXED)
        w = self._walls[phi]
        return dict(phi=phi, w=w, theta=theta, jump_u=1.2 * w)

    def next_round(self, warm: bool = False):
        if warm:
            return [self._item(self.warm_rng, self.WARM_BASE)]
        return [self._item(self.rng, base) for base in self.BASES]

    def ops(self, inp):
        solver = self.hk["solver"]
        ModelPoint = self.hk["semiflat"].ModelPoint
        Spectrum = self.hk["lattice"].Spectrum
        mdl = self.model
        w, theta, R = inp["w"], inp["theta"], self.R
        u_in, u_out = w * (1.0 - self.SEP), w * (1.0 + self.SEP)
        state = {}

        def zetas():
            if "zetas" not in state:
                probe = solver.solve(mdl, ModelPoint(u_in, R, theta))
                state["zetas"] = solver.midsector_zetas(probe, n=4)
            return state["zetas"]

        def genuine():
            return solver.check_wall_continuity(
                mdl, u_in, u_out, R, theta, zetas(),
                halvings=self.HALVINGS).discrepancies

        def control():
            support_in = mdl.spectrum.support(u_in)
            frozen = Spectrum(lambda g, u: 1 if g in support_in else 0,
                              lambda u: support_in)
            return solver.check_wall_continuity(
                mdl, u_in, u_out, R, theta, zetas(), halvings=self.HALVINGS,
                spectrum_override=frozen).discrepancies

        jump_pt = ModelPoint(inp["jump_u"], 1.0, THETA_FIXED)

        def jumps():
            sol = solver.solve(mdl, jump_pt)
            return max(solver.ray_jump_defect(mdl, sol, i)
                        for i in range(len(sol.grids)))

        where = (f"phi={inp['phi']:.6f} u_in={_fmt(u_in)} "
                 f"u_out={_fmt(u_out)} R={R} theta=({theta[0]:.6f},"
                 f"{theta[1]:.6f})")
        return [Op("continuity", where, genuine),
                Op("continuity_control", where, control),
                Op("near_wall_jumps", _point_desc(jump_pt), jumps,
                   expect="RayProximityError")]

    def check(self, inp, results):
        from checks import near_wall_jump_checks, wall_checks
        out = []
        if "continuity" in results and "continuity_control" in results:
            out += wall_checks(results["continuity"],
                               results["continuity_control"])
        if "near_wall_jumps" in results:
            # once the near-ray fault is mended the check passes or fails
            # on its own; it never enters accuracy_digits
            out += near_wall_jump_checks(results["near_wall_jumps"])
        return out


class Certify:
    """The three independent routes plus ray checks, one of each per item.

    A round is two items, one per arc of the wall.  ks: the pentagon
    identity at order 12 with the K1K2 / K2K1 control, chamber generators
    across the wall on the item's arc, two automorphism-property samples
    at order 6.  trees: tree sum at cutoff 4 against the solver at the
    middles of the 2 widest sectors x 2 charges.  OV: 12 solver/oracle
    samples.  Rays: jumps, reality and radial limit at 3 strong-coupling
    points, the first of them the tree point.
    """

    name = "certify"
    cal_reps = 1
    round_s = 4.0
    ORDER = 12
    CHAMBER_ORDER = 8
    AUTO_ORDER = 6
    AUTO_SAMPLES = 2
    CUTOFF = 4
    OV_SAMPLES = 12
    RAY_GAP_MIN = 0.3
    Q_RAY = 0.03
    RAY_POINTS = 3

    def __init__(self, hk, seed: int):
        self.hk = hk
        self.rng = np.random.default_rng([seed, 3])
        self.warm_rng = np.random.default_rng([seed, 3, 0])
        self.gen = hk["models"].pentagon_model()
        charge = hk["lattice"].charge
        self.G1, self.G2 = charge(1, 0), charge(0, 1)
        self._degree3 = [charge(a, b) for a in range(-3, 4)
                         for b in range(-3, 4) if abs(a) + abs(b) == 3]

    def setup(self):
        self.model = self.hk["models"].pentagon_model()
        self.ov = self.hk["models"].ov_model()

    def _strong_point(self, rng):
        """Seeded strong-coupling u and theta; R sets the leading correction
        exp(-2 pi R min|Z|) to Q_RAY, so every point has visible corrections
        of one size."""
        ModelPoint = self.hk["semiflat"].ModelPoint
        while True:
            r = float(rng.uniform(0.9, 1.4))
            u = r * cmath.exp(1j * float(rng.uniform(-math.pi, math.pi)))
            theta = (float(rng.uniform(0, TWO_PI)),
                     float(rng.uniform(0, TWO_PI)))
            if self.gen.chamber(u) != "in":
                continue
            z1, z2 = self.gen.Z.basis_values(u)
            d = abs(cmath.phase(z1 / z2))
            if min(d, math.pi - d) < self.RAY_GAP_MIN:
                continue
            min_z = min(abs(z1), abs(z2))
            R = math.log(1.0 / self.Q_RAY) / (TWO_PI * min_z)
            return ModelPoint(u, R, theta)

    def _ov_samples(self, rng):
        ModelPoint = self.hk["semiflat"].ModelPoint
        out = []
        for k in range(self.OV_SAMPLES):
            R = (0.5, 1.0, 2.0)[k % 3]
            u = (0.3 + 0.5 * float(rng.random())) \
                * cmath.exp(1j * float(rng.uniform(-2.6, 2.6)))
            theta = (float(rng.uniform(0, TWO_PI)),
                     float(rng.uniform(0, TWO_PI)))
            zeta = (0.4 + 1.3 * float(rng.random())) \
                * cmath.exp(1j * float(rng.uniform(0, TWO_PI)))
            # keep zeta off the two electric rays, which sit at -+u/|u|
            for _ in range(40):
                if min(abs(cmath.phase(zeta / (s * u / abs(u))))
                       for s in (1, -1)) >= 0.05:
                    break
                zeta *= cmath.exp(0.31j)
            out.append((ModelPoint(u, R, theta), zeta))
        return out

    def _item(self, rng, upper: bool):
        phi = float(rng.uniform(0.5, 2.6)) if upper \
            else float(rng.uniform(-2.6, -0.5))
        w = self.hk["models"].pentagon_wall_point(self.gen, phi)
        pairs = [tuple(self._degree3[int(rng.integers(len(self._degree3)))]
                       for _ in range(2)) for _ in range(self.AUTO_SAMPLES)]
        return dict(phi=phi, upper=upper, w=w, pairs=pairs,
                    points=[self._strong_point(rng)
                            for _ in range(self.RAY_POINTS)],
                    ov=self._ov_samples(rng),
                    reality_offsets=[float(rng.uniform(-0.8, 0.8))
                                     for _ in range(2)],
                    reality_moduli=[float(rng.uniform(0.5, 1.5))
                                    for _ in range(2)])

    def next_round(self, warm: bool = False):
        if warm:
            return [self._item(self.warm_rng, upper=True)]
        return [self._item(self.rng, upper) for upper in (True, False)]

    def ops(self, inp):
        hk = self.hk
        ks, solver, trees = hk["ks"], hk["solver"], hk["trees"]
        mdl = self.model
        G1, G2 = self.G1, self.G2
        grading = ks.ConeGrading(mdl.lattice, (G1, G2))
        state = {}

        def K(gamma, order, power=1):
            return ks.ks_transform(grading, gamma, power, order)

        def identity():
            o = self.ORDER
            lhs = ks.ordered_product([K(G1, o), K(G2, o)])
            rhs = ks.ordered_product([K(G2, o), K(G1 + G2, o), K(G1, o)])
            ctrl = ks.ordered_product([K(G2, o), K(G1, o)])
            return lhs, rhs, lhs, ctrl

        def chamber():
            w = inp["w"]
            u_in, u_out = 0.97 * w, 1.03 * w
            z = mdl.Z.basis_values(u_in)
            sign = 1.0 if inp["upper"] else -1.0
            mid = z[0] / abs(z[0]) + sign * z[1] / abs(z[1])
            mid /= abs(mid)
            cone = (mid * cmath.exp(-0.7j), mid * cmath.exp(0.7j))
            o = self.CHAMBER_ORDER
            a_in = ks.spectrum_generator(mdl, u_in, cone, o)
            a_out = ks.spectrum_generator(mdl, u_out, cone, o)
            return a_in, a_out, ks.TorusAutomorphism.identity(
                a_in.grading, o)

        def automorphism():
            o = self.AUTO_ORDER
            auto = ks.ordered_product([K(G1, o), K(G2, o),
                                       K(G1 + G2, o, power=-2)])
            return [(auto.image_cofactor(a) * auto.image_cofactor(b),
                     auto.image_cofactor(a + b)) for a, b in inp["pairs"]]

        pt = inp["points"][0]

        def tree_compare():
            sol = solver.solve(mdl, pt, tol_iter=1e-13)
            state["sol"] = sol
            integ = trees.TreeIntegrator(mdl, pt, sol.grids)
            gap = 0.0
            for zeta in wide_sector_zetas(sol):
                for gamma in (G1, G2):
                    tv = trees.series_solution(mdl, pt, gamma, zeta,
                                               self.CUTOFF, integrator=integ)
                    ref = solver.evaluate(mdl, sol, gamma, zeta)
                    gap = max(gap, abs(tv.log_value - ref.log_value))
            min_z = min(g.ray.min_abs_z() for g in sol.grids)
            return gap, min_z, sol.spec.eps_quad

        def ov_oracle():
            worst, electric = 0.0, 0.0
            for p, zeta in inp["ov"]:
                sol = solver.solve(self.ov, p)
                got = solver.evaluate(self.ov, sol, G1, zeta)
                want = hk["models"].ov_oracle(self.ov, p, G1, zeta)
                worst = max(worst, abs(got.value - want.value)
                            / abs(want.value))
                e = solver.upsilon(self.ov, sol, G2, zeta)
                if e != 0.0:
                    electric = e
            return worst, electric

        def rays_at(sol):
            jump = max(solver.ray_jump_defect(mdl, sol, i)
                       for i in range(len(sol.grids)))
            reality = 0.0
            for zeta in wide_sector_zetas(sol, inp["reality_offsets"],
                                          inp["reality_moduli"]):
                for gamma in (G1, G2, G1 + G2):
                    lhs = solver.evaluate(mdl, sol, gamma,
                                          -1.0 / zeta.conjugate()).value
                    rhs = solver.evaluate(mdl, sol, -gamma,
                                          zeta).value.conjugate()
                    reality = max(reality, abs(lhs - rhs) / abs(lhs))
            angles = sorted(g.ray.angle for g in sol.grids)
            direction = cmath.exp(1j * 0.5 * (angles[0] + angles[1]))
            radial = [solver.radial_limit(mdl, sol, gamma, direction)
                      for gamma in (G1, G2)]
            return jump, reality, radial

        def rays():
            sols = [state["sol"]] + [solver.solve(mdl, p, tol_iter=1e-13)
                                     for p in inp["points"][1:]]
            return [rays_at(sol) for sol in sols]

        pdesc = _point_desc(pt)
        return [Op("ks_identity", f"order={self.ORDER}", identity),
                Op("ks_chamber", f"phi={inp['phi']:.6f}", chamber),
                Op("ks_automorphism", " ".join(
                    f"a={a.coeffs} b={b.coeffs}" for a, b in inp["pairs"]),
                   automorphism),
                Op("tree_compare", pdesc, tree_compare),
                Op("ov_oracle", f"{len(inp['ov'])} OV samples", ov_oracle),
                Op("ray_checks", "; ".join(_point_desc(p)
                                           for p in inp["points"]), rays)]

    def check(self, inp, results):
        import checks as c
        out = []
        if "ks_identity" in results:
            out += c.identity_checks(*results["ks_identity"])
        if "ks_chamber" in results:
            out += c.chamber_checks(*results["ks_chamber"])
        for lhs, rhs in results.get("ks_automorphism", []):
            out += c.automorphism_checks(lhs, rhs)
        if "tree_compare" in results:
            gap, min_z, eps_quad = results["tree_compare"]
            out += c.tree_checks(gap, inp["points"][0].R, self.CUTOFF,
                                 min_z, eps_quad)
        if "ov_oracle" in results:
            out += c.ov_checks(*results["ov_oracle"])
        for per_point in results.get("ray_checks", []):
            out += c.ray_checks(*per_point)
        return out


WORKLOADS = {w.name: w for w in (MetricGrid, WallApproach, Certify)}


# ---------------------------------------------------------------------------
# Running


class Runner:
    """Runs the ops of items, a calibration slice after every op.

    ``op_times`` and ``slices`` interleave: slices[0] runs before the first
    op, slices[k + 1] right after op k.
    """

    def __init__(self, workload, calib, tracer=None, reps=None):
        self.w = workload
        self.calib = calib
        self.tracer = tracer
        self.reps = workload.cal_reps if reps is None else reps
        self.ops: dict[str, list[int]] = {}
        self.op_s: dict[str, float] = {}
        self.op_times: list[float] = []
        self.slices: list[float] = []
        self.slice_parts: list[tuple[float, ...]] = []
        self.failures: list[str] = []
        self.checks: list[list] = []
        self.failed_checks: list[str] = []
        self.where = ""

    def calibrate(self) -> None:
        parts = self.calib.slice_parts(self.reps)
        self.slice_parts.append(parts)
        self.slices.append(sum(parts))

    def run_item(self, inp) -> tuple[float, dict]:
        """Run every op of one item; returns raw seconds and the results."""
        results = {}
        ops = self.w.ops(inp)
        self.where = "; ".join(sorted({op.where for op in ops}))
        tracer = self.tracer
        item_s = 0.0
        for op in ops:
            counts = self.ops.setdefault(op.kind, [0, 0])
            counts[0] += 1
            if tracer is not None:
                tracer.active = True
            start = time.perf_counter()
            try:
                results[op.kind] = op.fn()
            except Exception as exc:  # boundary: record and go on
                counts[1] += 1
                known = " (known fault)" if op.expect == \
                    type(exc).__name__ else ""
                self.failures.append(
                    f"FAILED {op.kind}: {type(exc).__name__}{known}: "
                    f"{exc} at {op.where}")
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.active = False
            item_s += elapsed
            self.op_s[op.kind] = self.op_s.get(op.kind, 0.0) + elapsed
            self.op_times.append(elapsed)
            if self.slices:
                self.calibrate()
        return item_s, results

    def speed_factor(self) -> float:
        """NOMINAL_SLICE_S over the slice time, weighted by adjacent ops.

        Each slice stands for the half of the op before and the half of the
        op after it, so the factor follows the host speed the ops saw.
        """
        d = [0.0] + self.op_times + [0.0]
        weights = [0.5 * (a + b) for a, b in zip(d[:-1], d[1:])]
        mean = sum(w * s for w, s in zip(weights, self.slices)) \
            / sum(weights)
        return self.calib.NOMINAL_SLICE_S / mean

    def check_item(self, inp, results) -> None:
        checks = self.w.check(inp, results)
        self.checks.append(checks)
        for c in checks:
            if not c.ok:
                self.failed_checks.append(
                    f"CHECK FAILED {self.w.name} {c.name}: defect "
                    f"{c.defect:.3e} vs tolerance {c.tol:.3e} "
                    f"at {self.where}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    hk = import_hkforge()
    import calib
    workload = WORKLOADS[args.workload](hk, args.seed)
    workload.setup()
    warm = workload.next_round(warm=True)[0]
    # set-up is the import-and-build phase plus the warm-up item's ops; a
    # slice after the first phase (standing for both its ends) and after
    # every op calibrates it like the timed phase
    runner = Runner(workload, calib, reps=SETUP_CAL_REPS)
    pre_s = time.perf_counter() - _T0
    runner.calibrate()
    runner.slices.append(runner.slices[0])
    runner.slice_parts.append(runner.slice_parts[0])
    runner.op_times.append(pre_s)
    warm_s, warm_results = runner.run_item(warm)
    setup_raw = pre_s + warm_s
    runner.check_item(warm, warm_results)
    out = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "setup_raw_s": setup_raw,
        "setup_s": setup_raw * runner.speed_factor(),
        "warmup_ok": not runner.failed_checks,
    }
    if args.setup_only:
        for line in runner.failed_checks:
            print(line)
        out["correct"] = not runner.failed_checks
        print(json.dumps(out))
        return 0

    # the warm-up item counts neither as attempted nor as failed
    warm_failed_checks = list(runner.failed_checks)
    runner = Runner(workload, calib)
    tracer = None
    if args.trace:
        sys.path.insert(0, HERE)
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        runner.tracer = tracer
        trace_rounds = max(1, round(args.seconds / workload.round_s))
    raw: list[float] = []
    rounds = 0
    runner.calibrate()
    start = time.perf_counter()
    while True:
        for inp in workload.next_round():
            item_s, results = runner.run_item(inp)
            raw.append(item_s)
            runner.check_item(inp, results)
        rounds += 1
        if args.trace:
            if rounds >= trace_rounds:
                break
        elif time.perf_counter() - start >= args.seconds:
            break
    if tracer:
        tracer.uninstall()

    for line in runner.failures + warm_failed_checks + runner.failed_checks:
        print(line)
    factor = runner.speed_factor()
    cal = [r * factor for r in raw]
    from checks import accuracy_digits, digits_by_check
    out.update({
        "correct": not (runner.failed_checks or warm_failed_checks),
        "rounds": rounds,
        "items": len(raw),
        "item_raw_s": raw,
        "item_cal_s": cal,
        "slice_s": runner.slices,
        "slice_parts_s": runner.slice_parts,
        "ops": runner.ops,
        "op_raw_s": runner.op_s,
        "attempted": sum(v[0] for v in runner.ops.values()),
        "failed": sum(v[1] for v in runner.ops.values()),
        "accuracy_digits": accuracy_digits(runner.checks),
        "digits_by_check": digits_by_check(runner.checks),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "wall_s": time.perf_counter() - start,
        "os_threads": os_threads(),
    })
    if tracer:
        from spans import per_layer_metrics
        self_s, counts = tracer.snapshot()
        self_cal = {k: v * factor for k, v in self_s.items()}
        out["per_layer"] = per_layer_metrics(self_cal, counts, len(raw),
                                             sum(cal))
        out["near_pairs"] = counts.get("solver.near_pairs", 0)
        out["kernels"] = counts.get("solver.kernels", 0)
        out["absent"] = tracer.absent
        out["self_cal_s"] = self_cal
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
