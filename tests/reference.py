"""Test-only references: the least-squares Laurent fit of sampled two-forms,
the semiflat two-form family, the closed-form Gibbons-Hawking metric of the
OV model, the pentagon periods continued one step at a time, the OV oracle
as QUADPACK ran it, the tree sum taken tree by tree, the KS
automorphisms composed by series substitution, and the off-grid evaluation
taken ray by ray with its coefficients from ``Lattice.pair``, and the
directed value on a ray by Richardson extrapolation from off the ray.

None shares code with the pipeline it checks: the fit takes varpi only
through its samples, the OV metric is a Bessel sum (GMN, arXiv:0807.4723)
with no ray integral at all, and the step-by-step continuation calls
``np.roots`` and sums each cycle on its own, where
``PentagonPeriods.state`` batches the whole path.  The QUADPACK oracle
serves only as a control: it shows what ``models.ov_oracle`` missed before
it took its own Gauss-Kronrod rule.  The tree-by-tree sum lists the trees
from the spectrum's support, finds each charge's ray by its direction and
takes X^sf from ``xsf_log`` at that ray's nodes; of the tree sum's code it
shares only the solver's kernel builders, ``_kernels`` and ``_fold_near``,
through ``cauchy_integral`` here.  The substitution route builds a KS word
from series powers, inverses and substitutions, where ``ks`` applies each
factor's binomial series to the monomials; it shares only ``ConeGrading``
and the ``TwistedSeries`` product.  The ray-by-ray evaluation applies
``kernel_rows`` here and gathers the ``_near_term`` continuation per ray,
as ``_unfolded_apply`` in ``tests/test_solver.py`` does for the sweep; of
``ray_integrals`` it shares only ``_kernels`` and ``_near_term``.  The
Richardson limit takes the log-corrections at two angular offsets from the
ray, where no kernel pole lies within ``ON_RAY_ANGLE``, so it reads none of
the closed-form +-i0 boundary value that ``evaluate(..., side)`` takes.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.integrate import quad
from scipy.special import k0, k1

from hkforge.geometry import LaurentFit, metric_from_triple
from hkforge.ks import TwistedSeries
from hkforge.lattice import Charge, DegeneratePointError, charge
from hkforge.semiflat import (dlog_xsf_matrix, omega3_sf, omega_plus_sf,
                              pairing_two_form, theta_eval, xsf_log)
from hkforge.solver import (FOUR_PI_I, ON_RAY_ANGLE, _fold_near, _kernels,
                            _near_term, upsilon)

TREE_BUDGET = 200_000  # most trees the enumeration lists
EPS_TAIL = 1e-16       # scale exp(-2 pi R n |Z|) down to which towers run
SIDE_OFFSET = 2e-4     # farther angular offset of the Richardson limit


def kernel_rows(grid, w) -> np.ndarray:
    """The plain Cauchy kernel rows of one grid at poles ``w``, close
    entries 0: the one-ray case of ``solver._kernels``."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    return _kernels([grid], w[None])[0]


def cauchy_integral(grid, f, w) -> np.ndarray:
    """int_{-S}^{S} coth((s - w)/2) f(s) ds at poles ``w`` on one grid, the
    near poles' continuation folded in as ``ray_integrals`` folds it; the
    result keeps the leading axes of the node data ``f``, poles last."""
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    rows = kernel_rows(grid, w)
    _fold_near(grid, rows, w)
    return (grid.weights * f) @ rows.T


def pairing_coefficients(model, grids, charges) -> np.ndarray:
    """(U, C): -Omega <gamma, gamma'> / 4 pi i, one ``Lattice.pair`` call
    per entry, rows the unknowns gamma' ray-major.  Only ``grid.ray`` is
    read."""
    lat = model.lattice
    return np.array([[-om_s * lat.pair(gamma, gamma_s) / FOUR_PI_I
                      for gamma in charges] for grid in grids
                     for gamma_s, om_s in zip(grid.ray.charges,
                                              grid.ray.omegas)]
                    ).reshape(-1, len(charges))


def unfolded_ray_integrals(grids, rays, density, coefs, zetas, side=None,
                           skip=None):
    """``ray_integrals`` ray by ray at a 1-d array of zetas: per ray read,
    kernel_rows @ (weights * f) plus the ``_near_term`` gather at its near
    poles, then the coefficients.  The gather of ray ``skip`` is left out
    (a control).  Returns the integrals and their largest term, one row's
    integral times its coefficient."""
    zetas = np.asarray(zetas, dtype=complex)
    coefs, rays = np.asarray(coefs), np.asarray(rays)
    total = np.zeros(density.shape[:-2] + zetas.shape + coefs.shape[1:],
                     dtype=complex)
    big = 0.0
    for r, grid in enumerate(grids):
        sources = np.flatnonzero((rays == r) & coefs.any(axis=1))
        if not len(sources):
            continue
        w = np.log(zetas / grid.ray.direction)
        if side is not None:
            on = np.abs(w.imag) < ON_RAY_ANGLE
            w[on] = w.real[on] + side * 1e-300j
        f = density[..., sources, :]
        rows = kernel_rows(grid, w)
        acc = (grid.weights * f) @ rows.T
        near = np.abs(w.imag) < grid.near_angle
        if near.any() and r != skip:
            idx, op = _near_term(grid, rows[near], w[near])
            acc[..., near] += np.sum(op * f[..., idx], axis=-1)
        total += np.swapaxes(acc, -1, -2) @ coefs[sources]
        big = max(big, float(np.max(np.abs(acc)[..., None] * np.abs(
            coefs[sources])[:, None, :])))
    return total, big


def richardson_side_limit(model, solution, gamma, zeta0, side) -> complex:
    """X_gamma on the ray through zeta0 from the ``side`` (+1
    counterclockwise, -1 clockwise) by two-point Richardson in the angle:
    the log-corrections u at offsets SIDE_OFFSET and SIDE_OFFSET / 2 on
    that side, extrapolated linearly to the ray, 2 u(d / 2) - u(d)."""
    u1, u2 = (upsilon(model, solution, gamma,
                      zeta0 * cmath.exp(1j * side * d), side)
              for d in (SIDE_OFFSET, SIDE_OFFSET / 2.0))
    return cmath.exp(xsf_log(model, solution.point, gamma, zeta0)
                     + 2.0 * u2 - u1)


def laurent_fit(zetas, samples) -> LaurentFit:
    """Split varpi samples into simple-pole, constant and linear parts.

    Least squares of every matrix entry against [1/zeta, 1, zeta]; the
    reality of the family ties the linear coefficient to the conjugate of
    the pole coefficient, and both identifications are reported as defects.
    """
    zs = np.asarray(zetas, dtype=complex)
    basis = np.stack([1.0 / zs, np.ones_like(zs), zs], axis=1)
    stacked = np.reshape(samples, (len(zs), 16))
    coeffs, *_ = np.linalg.lstsq(basis, stacked, rcond=None)
    residual = float(np.max(np.abs(basis @ coeffs - stacked)))
    a, b, c = (coeffs[k].reshape(4, 4) for k in range(3))
    return LaurentFit(omega_plus=2j * a, omega_3=b.real.copy(),
                      residual=residual,
                      omega3_imag=float(np.max(np.abs(b.imag))),
                      conj_defect=float(np.max(np.abs(c + np.conj(a)))))


def varpi_sf(model, point, zeta) -> np.ndarray:
    """Semiflat two-form family from the analytic coordinate derivatives."""
    return pairing_two_form(model.lattice,
                            dlog_xsf_matrix(model, point, zeta),
                            scale=1.0 / (8.0 * math.pi ** 2 * point.R))


def spread_zetas(grids, per_sector: int = 3) -> list[complex]:
    """Unit zetas at the quarter, half and three-quarter points (for
    ``per_sector`` 3) of every sector between adjacent rays."""
    angles = sorted(g.ray.angle for g in grids)
    ends = angles[1:] + [angles[0] + 2 * math.pi]
    return [complex(np.exp(1j * (a + (b - a) * (k + 1) / (per_sector + 1))))
            for a, b in zip(angles, ends) for k in range(per_sector)]


def ov_gibbons_hawking(model, point, terms: int | None = None) -> np.ndarray:
    """The OV metric in (Re u, Im u, theta_1, theta_2), Lambda 1.

    With theta_1 magnetic and theta_2 electric,
        g = (dtheta_1 + A)^2 / (2 pi R V) + V h,
    V = -log|u| + sum_n 2 cos(n theta_2) K_0(2 pi R n |u|) and
    h = diag(R / 2 pi, R / 2 pi, 1 / (8 pi^3 R)) on (x, y, theta_2).  The
    connection A is the semiflat one plus R |u| sum_n 2 sin(n theta_2)
    K_1(2 pi R n |u|) dphi, with phi = arg u; the semiflat metric is the
    same form with the sums dropped, and it supplies A's semiflat part.
    ``terms`` keeps only n <= terms (a control); by default the sums run
    until their terms fall below 1e-18.
    """
    r, R, theta_e = abs(point.u), point.R, point.theta[1]
    x = 2.0 * math.pi * R * r
    n = np.arange(1, (math.ceil(42.0 / x) if terms is None else terms) + 1)
    v = -math.log(r) + float(np.sum(2.0 * np.cos(n * theta_e) * k0(n * x)))
    twist = R * r * float(np.sum(2.0 * np.sin(n * theta_e) * k1(n * x)))
    g_sf = metric_from_triple(omega_plus_sf(model, point),
                              omega3_sf(model, point)).g
    conn = g_sf[2] / g_sf[2, 2]
    conn[:2] += twist * np.array([-point.u.imag, point.u.real]) / r ** 2
    g = np.outer(conn, conn) / (2.0 * math.pi * R * v)
    g[[0, 1, 3], [0, 1, 3]] += v * np.array(
        [R / (2 * math.pi), R / (2 * math.pi), 1.0 / (8 * math.pi ** 3 * R)])
    return g


def stepwise_periods_state(periods, u: complex):
    """``PentagonPeriods.state`` continued one step at a time.

    At each step point, ``np.roots`` of the cubic, the permutation of the
    roots closest to the previous step's, and each cycle's Gauss-Chebyshev
    sums on their own; the step rule, base-point signs and crossing count
    are those of ``state``.  Uses only ``periods``' constants and its
    ``_path_to`` and ``_d_distance``.
    """
    n = periods.N_NODES
    k = np.arange(1, n + 1)
    t2 = np.cos(k * math.pi / (n + 1))
    w2 = (math.pi / (n + 1)) * np.sin(k * math.pi / (n + 1)) ** 2
    t1 = np.cos((2 * k - 1) * math.pi / (2 * n))

    def tracked_sqrt(vals):
        s = np.sqrt(vals.astype(complex))
        dots = np.real(s[1:] * np.conj(s[:-1]))
        s[1:] *= np.cumprod(np.where(dots < 0.0, -1.0, 1.0))
        return s

    def raw_pair(za, zb, zc):
        m, w = 0.5 * (za + zb), 0.5 * (zb - za)
        ts = np.concatenate([t2, t1])
        order = np.argsort(-ts)
        g = np.empty(2 * n, dtype=complex)
        g[order] = tracked_sqrt(m + w * ts[order] - zc)
        z_val = (2j * w * w / math.pi) * np.sum(w2 * g[:n])
        dz_val = (-1j / math.pi) * (math.pi / n) * np.sum(1.0 / g[n:])
        return complex(z_val), complex(dz_val)

    def periods_at(roots):
        ra, rb, rc = roots
        return raw_pair(rb, rc, ra) + raw_pair(ra, rb, rc)

    def roots_step(prev, u):
        r = np.roots([1.0, 0.0, -3.0, complex(u)])
        best, best_cost = None, None
        for perm in itertools.permutations(range(3)):
            cost = sum(abs(r[p] - prev[k]) for k, p in enumerate(perm))
            if best_cost is None or cost < best_cost:
                best, best_cost = perm, cost
        return np.array([r[p] for p in best], dtype=complex)

    def match_sign(z, dz, z_prev):
        return (z, dz) if abs(z - z_prev) <= abs(-z - z_prev) else (-z, -dz)

    u = complex(u)
    if periods._d_distance(u) < periods.D_TOL:
        raise DegeneratePointError(f"u={u} on the pentagon discriminant")
    roots = np.array([-math.sqrt(3.0), 0.0, math.sqrt(3.0)], dtype=complex)
    z1, dz1, z2, dz2 = periods_at(roots)
    s1 = -1.0 if z1.imag > 0 else 1.0
    s2 = 1.0 if z2.real > 0 else -1.0
    z1, dz1, z2, dz2 = s1 * z1, s1 * dz1, s2 * z2, s2 * dz2
    crossings, eta_prev, pos = 0, (z1 / z2).imag, 0.0 + 0.0j
    for target in periods._path_to(u)[1:]:
        leg = target - pos
        length = abs(leg)
        if length < 1e-15:
            continue
        done = 0.0
        while done < length - 1e-15:
            here = pos + leg * (done / length)
            step = min(periods.MAX_STEP, length - done,
                       0.45 * max(periods._d_distance(here),
                                  2.0 * periods.D_TOL))
            done = min(length, done + step)
            roots = roots_step(roots, pos + leg * (done / length))
            raw = periods_at(roots)
            z1, dz1 = match_sign(raw[0], raw[1], z1)
            z2, dz2 = match_sign(raw[2], raw[3], z2)
            eta = (z1 / z2).imag
            if eta == 0.0 or eta_prev * eta < 0.0:
                crossings += 1
            eta_prev = eta
        pos = target
    return roots, z1, dz1, z2, dz2, crossings


def quadpack_ov_log(model, point, gamma, zeta) -> tuple[complex, float]:
    """log X_gamma of the OV model by ``scipy.integrate.quad``, Omega 1.

    The integrand is the sum over both electric rays of
    <gamma, g> (zeta' + zeta) / (zeta' - zeta) log(1 - X_g) on zeta' = d e^s,
    taken in s with no break point, its real and imaginary parts in two
    QUADPACK passes (epsabs 1e-13, epsrel 1e-12, limit 400) over the span
    where the integrand's bound falls below 1e-13.  Returns the log value
    and the larger of the two error estimates.
    """
    rays = []
    for sign in (1, -1):
        g = sign * charge(0, 1)
        z = model.Z.of(g, point.u)
        rays.append((model.lattice.pair(gamma, g), -z / abs(z),
                     math.pi * point.R * z, 1j * theta_eval(model.lattice,
                                                             point, g)))

    def part(s: float, k: int) -> float:
        val = 0.0
        for pairing, d, a, b in rays:
            zp = d * math.exp(s)
            w = a / zp + b + zp * a.conjugate()
            em1, sh = math.expm1(w.real), math.sin(0.5 * w.imag)
            sx = 2.0 * (em1 + 1.0) * sh
            val += pairing * (zp + zeta) / (zp - zeta) * cmath.log(
                complex(sx * sh - em1, -sx * math.cos(0.5 * w.imag)))
        return val.imag if k else val.real

    sine = math.sin(min(abs(cmath.phase(zeta / d)) for _, d, *_ in rays))
    bound = 2.0 * sum(abs(p) for p, *_ in rays) / sine
    span = math.acosh(max(1.0, math.log(bound / 1e-13)
                          / (2 * abs(rays[0][2]))))
    (re, e_re), (im, e_im) = (
        quad(part, -span, span, args=(k,), epsabs=1e-13, epsrel=1e-12,
             limit=400, full_output=1)[:2] for k in (0, 1))
    total = (re + 1j * im) / (-4j * math.pi)
    return xsf_log(model, point, gamma, zeta) + total, max(e_re, e_im)


class TreeBudgetError(RuntimeError):
    """Enumeration would exceed TREE_BUDGET trees."""


def multicover(spectrum, gamma: Charge, u: complex) -> Fraction:
    """c(gamma) = sum over the n dividing gamma of Omega(gamma / n) / n^2."""
    return sum((Fraction(spectrum.omega(Charge(tuple(
        c // n for c in gamma.coeffs)), u), n * n)
        for n in range(1, gamma.content() + 1)
        if all(c % n == 0 for c in gamma.coeffs)), Fraction(0))


@dataclass(frozen=True)
class DecoratedTree:
    """Rooted tree with charge decorations; children in canonical order."""

    decoration: Charge
    children: tuple["DecoratedTree", ...] = ()

    def canonical_key(self):
        return (self.decoration.coeffs,
                tuple(c.canonical_key() for c in self.children))

    def degree(self) -> int:
        return self.decoration.l1_degree() + sum(c.degree()
                                                 for c in self.children)

    def height(self) -> int:
        return 1 + max((c.height() for c in self.children), default=-1)

    def aut_order(self) -> int:
        order = 1
        for child in self.children:
            order *= child.aut_order()
        run = 1
        for prev, cur in zip(self.children, self.children[1:]):
            if prev.canonical_key() == cur.canonical_key():
                run += 1
            else:
                order *= math.factorial(run)
                run = 1
        order *= math.factorial(run)
        return order


def tree_weight(model, tree: DecoratedTree, u: complex) -> Fraction:
    """c(T): automorphism factor, node multicovers, edge pairings."""
    w = Fraction(1, tree.aut_order())
    stack = [tree]
    while stack:
        node = stack.pop()
        w *= multicover(model.spectrum, node.decoration, u)
        if not w:
            return Fraction(0)
        for child in node.children:
            p = model.lattice.pair(node.decoration, child.decoration)
            if p == 0:
                return Fraction(0)
            w *= p
            stack.append(child)
    return w


def decorations(model, u: complex, cutoff: int) -> dict[Charge, Fraction]:
    """c(gamma) of the multiples of the support's charges with nonzero c
    and degree within the cutoff, by degree."""
    charges = {n * base for base in model.spectrum.support(u)
               for n in range(1, cutoff // base.l1_degree() + 1)}
    weights = {g: multicover(model.spectrum, g, u) for g in sorted(
        charges, key=lambda g: (g.l1_degree(), g.coeffs))}
    return {g: c for g, c in weights.items() if c}


def enumerate_trees(model, u: complex, degree_cutoff: int
                    ) -> list[tuple[DecoratedTree, Fraction]]:
    """All isomorphism classes of nonzero-weight trees up to the cutoff.

    Tree degree is the summed L1 degree of the decorations, matching the
    exp(-2 pi R sum|Z|) suppression of the corresponding integrals.  Trees
    with a vanishing parent-child pairing are pruned while building, so
    every returned tree has a nonzero weight.  More than TREE_BUDGET trees
    raise ``TreeBudgetError``.
    """
    lat = model.lattice
    decos = decorations(model, u, degree_cutoff)
    # pool: trees of degree < cutoff in a stable order (by degree, then
    # canonical key), usable as children of anything built later
    pool: list[DecoratedTree] = []
    pool_degree: list[int] = []
    levels: dict[int, list[DecoratedTree]] = {}
    count = 0

    def multisets(total: int, start: int):
        """Child multisets of degree sum ``total``, from pool[start:]."""
        if total == 0:
            yield ()
            return
        for i in range(start, len(pool)):
            d = pool_degree[i]
            if d > total:
                break  # pool degrees are nondecreasing
            for rest in multisets(total - d, i):
                yield (pool[i],) + rest

    for k in range(1, degree_cutoff + 1):
        level = []
        for gamma in decos:
            d = gamma.l1_degree()
            if d > k:
                continue
            for kids in multisets(k - d, 0):
                if any(lat.pair(gamma, kid.decoration) == 0 for kid in kids):
                    continue
                level.append(DecoratedTree(gamma, kids))
                count += 1
                if count > TREE_BUDGET:
                    raise TreeBudgetError(
                        f"more than {TREE_BUDGET} trees below degree "
                        f"{degree_cutoff}")
        levels[k] = level
        if k < degree_cutoff:
            for tree in sorted(level, key=lambda t: t.canonical_key()):
                pool.append(tree)
                pool_degree.append(k)

    out = []
    for k in range(1, degree_cutoff + 1):
        for tree in levels[k]:
            w = tree_weight(model, tree, u)
            if w:
                out.append((tree, w))
    return out


def tower_tails(model, point, degree_cutoff: int
                ) -> list[tuple[DecoratedTree, Fraction]]:
    """Single nodes n * beta past the cutoff down to the EPS_TAIL scale."""
    tails = []
    for base in model.spectrum.support(point.u):
        scale = 2.0 * math.pi * point.R * abs(model.Z.of(base, point.u))
        n = degree_cutoff // base.l1_degree() + 1
        while n * scale < -math.log(EPS_TAIL):
            c = multicover(model.spectrum, n * base, point.u)
            if c:
                tails.append((DecoratedTree(n * base), c))
            n += 1
    return tails


class TreeReference:
    """Tree-by-tree integrals G_T at one point on given grids.

    A charge's ray is the grid whose direction is -Z/|Z| to 1e-9, and its
    X^sf is ``xsf_log`` at that ray's nodes.  A tree's root integrand is
    X^sf of its root times its children's integrals (1/4 pi i) int K at the
    root's nodes; G_T is the same integral of it at zeta.
    """

    def __init__(self, model, point, grids):
        self.model, self.point, self.grids = model, point, grids
        self._rays: dict[Charge, int] = {}

    def ray_index(self, gamma: Charge) -> int:
        if gamma not in self._rays:
            z = self.model.Z.of(gamma, self.point.u)
            self._rays[gamma] = next(
                (i for i, grid in enumerate(self.grids)
                 if abs(grid.ray.direction + z / abs(z)) < 1e-9), None)
        if self._rays[gamma] is None:
            raise ValueError(f"no quadrature ray matches the charge {gamma}")
        return self._rays[gamma]

    def xsf_nodes(self, gamma: Charge) -> np.ndarray:
        grid = self.grids[self.ray_index(gamma)]
        return np.exp(xsf_log(self.model, self.point, gamma,
                              grid.zeta_nodes))

    def _integral(self, gamma: Charge, f: np.ndarray, zetas) -> np.ndarray:
        """(1/4 pi i) int K f over gamma's ray at ``zetas``."""
        grid = self.grids[self.ray_index(gamma)]
        return cauchy_integral(grid, f, np.log(
            np.asarray(zetas) / grid.ray.direction)) / FOUR_PI_I

    def root_integrand(self, tree: DecoratedTree) -> np.ndarray:
        nodes = self.grids[self.ray_index(tree.decoration)].zeta_nodes
        vals = self.xsf_nodes(tree.decoration)
        for child in tree.children:
            vals = vals * self._integral(child.decoration,
                                         self.root_integrand(child), nodes)
        return vals

    def g_integral(self, tree: DecoratedTree, zeta):
        """G_T at an off-ray zeta (a number or a 1-d array)."""
        out = self._integral(tree.decoration, self.root_integrand(tree),
                             np.atleast_1d(zeta))
        return out if np.ndim(zeta) else out[0]

    def integrals(self, trees, zetas) -> list[np.ndarray]:
        """G_T at the zetas for each tree, from a dense (1/4 pi i) int K
        operator per ray pair and one root integrand per distinct subtree:
        ``g_integral`` for many trees at once."""
        ops, memo = {}, {}

        def integral(child: Charge, root: Charge, f):
            key = (self.ray_index(child), self.ray_index(root))
            if key not in ops:
                n = self.grids[key[0]].s_nodes.size
                ops[key] = self._integral(
                    child, np.eye(n), self.grids[key[1]].zeta_nodes)
            return f @ ops[key]

        def root(tree):
            key = tree.canonical_key()
            if key not in memo:
                vals = self.xsf_nodes(tree.decoration)
                for child in tree.children:
                    vals = vals * integral(child.decoration, tree.decoration,
                                           root(child))
                memo[key] = vals
            return memo[key]

        return [self._integral(tree.decoration, root(tree), zetas)
                for tree in trees]


# -- the KS automorphisms by series substitution ------------------------------


def series_power(series, n: int):
    """series^n by repeated squaring; a negative n inverts first."""
    if n < 0:
        return series_power(series_inverse(series), -n)
    result = TwistedSeries.constant(series.grading, series.order)
    base = series
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def series_inverse(series):
    """1 / series as c0^-1 times the geometric series in the rest."""
    grading, order = series.grading, series.order
    c0 = series.coords[grading.zero]
    inv0 = c0 if abs(c0) == 1 else Fraction(1, c0)
    step = TwistedSeries(grading, order, {
        k: -c * inv0 for k, c in series.coords.items() if k != grading.zero})
    out = term = TwistedSeries.constant(grading, order)
    for _ in range(order):
        term = term * step
        out = out + term
    return out.scaled(inv0)


class SubstitutedAutomorphism:
    """A KS word composed factor by factor through series substitution.

    Each K_gamma^p is stored by its basis cofactors, the binomial series
    (1 - X_gamma)^{p <gamma, e_i>} summed term by term.  Images of other
    charges are products of powers of those cofactors, and the word grows
    one factor at a time on the right, (A F)^* X = A^*(F^* X), by
    substituting A into the cofactors of F.  Of ``ks`` it shares ``ConeGrading`` and
    the ``TwistedSeries`` product, which ``tests/test_ks.py`` holds to its
    own product over charge keys.
    """

    def __init__(self, grading, order: int, factors=()):
        self.grading, self.order = grading, order
        basis = grading.lattice.basis()
        self.cofactors = tuple(TwistedSeries.constant(grading, order)
                               for _ in basis)
        for gamma, power in factors:
            self.cofactors = self._then(self._factor(gamma, power))

    def _factor(self, gamma, power):
        step = self.grading.coordinates(gamma)
        return tuple(TwistedSeries(self.grading, self.order, {
            tuple(k * s for s in step):
                (-1) ** k * _binomial(power * self.grading.lattice.pair(
                    gamma, e), k)
            for k in range(self.order // sum(step) + 1)})
            for e in self.grading.lattice.basis())

    def _then(self, cofactors):
        """Cofactors of the word extended by F on the right:
        (A F)^* X_i = A^*(X_i S^F_i) = X_i S^A_i A^*(S^F_i)."""
        return tuple(s * self.substitute(s_f)
                     for s, s_f in zip(self.cofactors, cofactors))

    def image_cofactor(self, gamma: Charge):
        out = TwistedSeries.constant(self.grading, self.order)
        for s, c in zip(self.cofactors, gamma.coeffs):
            out = out * series_power(s, c)
        return out

    def substitute(self, series):
        out = TwistedSeries(self.grading, self.order, {})
        for k, c in series.coords.items():
            mono = TwistedSeries(self.grading, self.order, {k: c})
            out = out + mono * self.image_cofactor(self.grading.charge(k))
        return out


def _binomial(m: int, k: int) -> int:
    """binom(m, k) for an integer m of either sign."""
    if m >= 0:
        return math.comb(m, k) if k <= m else 0
    return (-1) ** k * math.comb(k - m - 1, k)
