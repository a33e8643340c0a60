import cmath
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from hkforge import cli, geometry, ks, solver, trees
from hkforge.cli import content_hash, load_solution, main
from hkforge.lattice import ConditionReport, charge
from hkforge.models import pentagon_wall_point
from hkforge.semiflat import (CoordinateValue, ModelPoint, omega3_sf,
                              omega_plus_sf)
from reference import laurent_fit, varpi_sf


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_signed(path, payload):
    """Write an edited solution payload under a hash of its new content."""
    path.write_text(json.dumps({**payload, "hash": content_hash(payload)}))


def doubled_first_upsilon(payload):
    """The payload's first stored upsilon array, doubled in place."""
    entry = payload["rays"][0]["charges"][0]
    entry["upsilon"] = [[2.0 * a, 2.0 * b] for a, b in entry["upsilon"]]
    return entry


class TestExitCodes:
    def test_wcf_check_passes(self, capsys):
        code, out, _ = run(capsys, "wcf-check", "--model", "pentagon",
                           "--order", "6")
        assert code == 0
        assert "pentagon identity: PASS order 6" in out

    def test_ov_solve_single_iteration(self, capsys):
        code, out, _ = run(capsys, "solve", "--model", "ov", "--u", "0.5,0",
                           "--R", "1", "--theta", "0.3,1.1")
        assert code == 0
        assert "converged in 1 iteration(s)" in out

    def test_r_too_small_is_check_failure(self, capsys):
        code, _, err = run(capsys, "solve", "--model", "pentagon",
                           "--u", "0,0", "--R", "0.01", "--theta", "0.3,1.1")
        assert code == 1
        assert "R too small" in err

    @pytest.mark.parametrize("argv, message", [
        (("solve", "--model", "pentagon", "--u", "2,0", "--R", "1",
          "--theta", "0.3,1.1"), "on the pentagon discriminant"),
        (("tree-compare", "--model", "pentagon", "--u", "0.6,0.3", "--R",
          "1", "--theta", "0.37,1.29", "--charge", "0,1", "--zeta",
          f"{math.cos(0.1245)},{math.sin(0.1245)}"),
         "request a directed limit"),
        # {wall} is the u of the phi 0.9 wall point, exactly
        (("solve", "--model", "pentagon", "--u", "{wall}", "--R", "0.35",
          "--theta", "0.37,1.29"), "non-proportional charges"),
    ], ids=["discriminant", "on-ray", "at-wall"])
    def test_domain_edge_is_one_line_failure(self, capsys, pentagon, argv,
                                             message):
        w = pentagon_wall_point(pentagon, 0.9)
        code, _, err = run(capsys, *(a.format(wall=f"{w.real!r},{w.imag!r}")
                                     for a in argv))
        assert code == 1
        assert message in err
        assert len(err.strip().splitlines()) == 1

    def test_overflowing_value_is_one_line_error(self, capsys):
        # |X| past the float range at this zeta: a ValueError naming the
        # log value, not an OverflowError traceback
        code, _, err = run(capsys, "tree-compare", "--model", "ov",
                           "--u=-0.1656,-0.1046", "--R", "7.29",
                           "--theta", "1.4,2.3", "--zeta", "635.7,-401.7")
        assert code == 1
        assert err.startswith("error: ") and "log X = " in err
        assert len(err.strip().splitlines()) == 1

    def test_unknown_model_is_error(self, capsys):
        code, _, err = run(capsys, "model-info", "nosuchmodel")
        assert code == 1

    def test_negative_r_is_usage_error(self, capsys):
        code, _, err = run(capsys, "solve", "--model", "ov", "--u", "0.5,0",
                           "--R", "-1", "--theta", "0.3,1.1")
        assert code == 2
        assert "usage error" in err

    @pytest.mark.parametrize("argv", [
        ("ov-compare", "--count", "0"),
        ("ov-compare", "--count", "1", "--r-list", "1,-1"),
        ("decay-scan", "--model", "pentagon", "--u", "1.2,0", "--R-list", "2"),
        ("decay-scan", "--model", "pentagon", "--u", "1.2,0",
         "--R-list", "2,2"),
        ("decay-scan", "--model", "pentagon", "--u", "1.2,0",
         "--R-list=-1,2"),
        ("metric", "--model", "pentagon", "--u", "1.5,0.2", "--R", "2",
         "--theta", "0.37,1.29", "--emit-grid", "-3"),
        ("solve", "--model", "ov", "--u", "0.5,0", "--R", "1",
         "--theta", "0.3,1.1", "--max-iter", "0"),
        ("solve", "--model", "ov", "--u", "0.5,0", "--R", "nan",
         "--theta", "0.3,1.1"),
        ("validate", "--model", "pentagon", "--grid", "-5"),
        ("semiflat-sample", "--model", "ov", "--u", "0.5,0", "--R", "1",
         "--theta", "0.3,1.1", "--zeta-grid", "0"),
        # --theta and --charge of another length than the lattice rank
        ("solve", "--model", "ov", "--u", "0.5,0", "--R", "1",
         "--theta", "0.3"),
        ("metric", "--model", "pentagon", "--u", "1.5,0.2", "--R", "2",
         "--theta", "0.37,1.29,0.5"),
        ("semiflat-sample", "--model", "ov", "--u", "0.5,0", "--R", "1",
         "--theta", "0.3"),
        ("decay-scan", "--model", "pentagon", "--u", "1.2,0",
         "--theta", "0.37"),
        ("wall-check", "--model", "pentagon", "--theta", "0.37"),
        ("tree-compare", "--model", "ov", "--u", "0.5,0", "--R", "1",
         "--theta", "0.3,1.1", "--zeta", "0.6,0.5", "--charge", "1,0,0"),
        # a wall separation outside (0, 1) and nonpositive gates
        ("wall-check", "--model", "pentagon", "--sep", "0"),
        ("wall-check", "--model", "pentagon", "--sep", "1.5"),
        ("wall-check", "--model", "pentagon", "--sep=-0.02"),
        ("wall-check", "--model", "pentagon", "--min-order", "0"),
        ("decay-scan", "--model", "pentagon", "--u", "1.2,0",
         "--tol-rel", "-1"),
        ("decay-scan", "--model", "pentagon", "--u", "1.2,0",
         "--tol-rel", "0"),
        # a zero charge, whose log X is 0 on both routes
        ("tree-compare", "--model", "pentagon", "--u", "1.5,0.2", "--R", "1",
         "--theta", "0.37,1.29", "--cutoff", "3", "--zeta", "0.555,-0.832",
         "--charge", "0,0"),
        # non-finite values, which compare as within every gate or crash
        # deep in a solve
        ("tree-compare", "--model", "pentagon", "--u", "1.5,0.2", "--R", "1",
         "--theta", "0.37,1.29", "--zeta", "nan,0"),
        ("tree-compare", "--model", "pentagon", "--u", "1.5,0.2", "--R", "1",
         "--theta", "0.37,1.29", "--zeta", "inf,0"),
        ("metric", "--model", "pentagon", "--u", "1.5,0.2", "--R", "inf",
         "--theta", "0.37,1.29"),
        ("decay-scan", "--model", "pentagon", "--u", "1.2,0",
         "--R-list", "1,inf"),
        ("ov-compare", "--tol", "inf"),
        ("solve", "--model", "ov", "--u", "nan,0", "--R", "1",
         "--theta", "0.3,1.1"),
        ("solve", "--model", "ov", "--u", "0.5,0", "--R", "1",
         "--theta", "inf,1.1"),
        ("decay-scan", "--model", "pentagon", "--u", "inf,0"),
        # a non-finite wall angle read as a bracket that misses the wall
        ("wall-check", "--model", "pentagon", "--phi", "nan"),
        ("wall-check", "--model", "pentagon", "--phi", "inf"),
        # a seed numpy refuses, and a zeta where X has no value
        ("ov-compare", "--seed", "-1"),
        ("tree-compare", "--model", "pentagon", "--u", "1.5,0.2", "--R", "1",
         "--theta", "0.37,1.29", "--zeta", "0,0"),
        # a ray grid of one node, which has no node spacing
        ("solve", "--model", "pentagon", "--u", "1.5,0.2", "--R", "1",
         "--theta", "0.37,1.29", "--nodes", "1", "--panels", "1"),
    ])
    def test_degenerate_input_is_usage_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "usage error" in err

    def test_bad_complex_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--model", "ov", "--u", "half", "--R", "1",
                  "--theta", "0,0"])
        assert exc.value.code == 2


def genuine_control(monkeypatch):
    """The wall check's control solved with the genuine spectrum."""
    wall = solver.check_wall_continuity
    monkeypatch.setattr(solver, "check_wall_continuity", lambda *a,
                        spectrum_override=None, **kw: wall(*a, **kw))


def gateless_cutoff_bound(monkeypatch):
    """An infinite layer gate and a reference 1e-3 rad off, so that the
    1e-11 cutoff bound alone decides."""
    evaluate = solver.evaluate
    monkeypatch.setattr(trees, "layer_gate", lambda *args: math.inf)
    monkeypatch.setattr(solver, "evaluate", lambda m, s, g, z:
                        evaluate(m, s, g, z * cmath.exp(1e-3j)))


def indefinite_metric(monkeypatch):
    """A metric whose eigenvalues are all negative."""
    triple = geometry.metric_from_triple
    monkeypatch.setattr(geometry, "metric_from_triple", lambda *forms:
                        dataclasses.replace(triple(*forms),
                                            eigenvalues=-np.ones(4)))


class TestFailLines:
    @pytest.mark.parametrize("argv, patch, line", [
        (("validate", "--model", "ov", "--grid", "4"),
         lambda mp: mp.setattr(cli, "validate_conditions", lambda m, n_grid:
                               ConditionReport("ov", 4, {"closure": 1.0})),
         "FAIL: residual above 1e-08"),
        (("wcf-check", "--model", "ov"), None,
         "wcf-check: only the pentagon model carries a wall"),
        (("wall-check", "--model", "ov"), None,
         "wall-check: only the pentagon model carries a wall"),
        (("wcf-check", "--model", "pentagon", "--order", "3"),
         lambda mp: mp.setattr(ks, "check_wcf", lambda lhs, rhs: (False, 3)),
         "pentagon identity: FAIL first discrepancy at degree 3"),
        (("wall-check", "--model", "pentagon", "--halvings", "1",
          "--min-order", "5"), None, "FAIL: continuity order 1.000 < 5.0"),
        (("wall-check", "--model", "pentagon", "--halvings", "1"),
         genuine_control, "FAIL: negative control unexpectedly continuous"),
        (("tree-compare", "--model", "pentagon", "--u", "0.6,0.3", "--R", "1",
          "--theta", "0.37,1.29", "--cutoff", "4", "--zeta", "0.9,0.4"),
         gateless_cutoff_bound,
         "FAIL: tree series disagrees beyond the cutoff bound"),
        (("metric", "--model", "pentagon", "--u", "0.45,0.25", "--R", "3",
          "--theta", "0.37,1.29", "--semiflat-only"), indefinite_metric,
         "FAIL: metric not positive definite at this point"),
        # the tolerance reads back as given, not rounded to 0.0%
        (("decay-scan", "--model", "pentagon", "--u", "1.2,0",
          "--R-list", "1.5,2.5,3.5", "--tol-rel", "1e-6"), None,
         "FAIL: decay-rate error above 0.0001%"),
    ], ids=["validate", "wcf-refusal", "wall-refusal", "wcf-discrepancy",
            "wall-order", "wall-control", "tree-bound", "metric", "decay-tol"])
    def test_failed_gate_is_last_line(self, capsys, monkeypatch, argv, patch,
                                      line):
        if patch:
            patch(monkeypatch)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        assert out.splitlines()[-1] == line


class TestDeterminism:
    def test_solve_output_identical(self, capsys, monkeypatch):
        argv = ("solve", "--model", "ov", "--u", "0.4,0.1", "--R", "1.5",
                "--theta", "0.2,0.9")
        calls = []
        iterate = solver.iterate
        monkeypatch.setattr(solver, "iterate", lambda *a, **kw:
                            calls.append(1) or iterate(*a, **kw))
        _, out1, _ = run(capsys, *argv)
        # both runs solve: the second must not read the first's solution
        solver._SOLVED.clear()
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2
        assert len(calls) == 2

    def test_ov_compare_seeded(self, capsys):
        argv = ("ov-compare", "--count", "3", "--seed", "5")
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestSolutionFiles:
    def test_roundtrip_and_jump_check(self, capsys, tmp_path):
        path = tmp_path / "sol.json"
        code, out, _ = run(capsys, "solve", "--model", "ov", "--u", "0.5,0",
                           "--R", "1", "--theta", "0.3,1.1",
                           "--out", str(path))
        assert code == 0 and path.exists()
        code, out, _ = run(capsys, "jump-check", "--solution", str(path))
        assert code == 0
        assert "worst jump defect" in out

    def test_fewer_panels_roundtrip(self, capsys, tmp_path):
        # a point that takes fewer than 16 panels: the file's node counts
        # match the rebuilt layout, while a file of another layout is refused
        path = tmp_path / "sol.json"
        code, out, _ = run(capsys, "solve", "--model", "pentagon",
                           "--u", "1.5,0.2", "--R", "2",
                           "--theta", "0.37,1.29", "--out", str(path))
        assert code == 0
        panels = int(out.split("panels per ray: ")[1].split()[0])
        assert panels < 16 and "(at most --panels 16)" in out
        assert "eps_quad 1e-12" in out
        payload = json.loads(path.read_text())
        counts = {len(c["upsilon"]) for ray in payload["rays"]
                  for c in ray["charges"]}
        assert counts == {16 * panels}
        _, _, loaded = load_solution(str(path))
        assert loaded.panels == panels
        assert loaded.recheck_residual <= 10 * loaded.tol_iter
        code, out, _ = run(capsys, "jump-check", "--solution", str(path))
        assert code == 0
        other = tmp_path / "other.json"
        run(capsys, "solve", "--model", "pentagon", "--u", "1.5,0.2",
            "--R", "1", "--theta", "0.37,1.29", "--out", str(other))
        foreign = json.loads(other.read_text())
        payload["rays"] = foreign["rays"]
        write_signed(path, payload)
        code, _, err = run(capsys, "jump-check", "--solution", str(path))
        assert code == 1
        assert "charge table mismatch" in err

    def test_jump_check_default_tolerance(self, capsys, tmp_path,
                                          monkeypatch):
        # ray jumps are held to the recheck's bound, 1e-9 at the default
        # tolerance; a defect of 1e-8, under the former fixed 1e-7, fails
        path = tmp_path / "sol.json"
        run(capsys, "solve", "--model", "ov", "--u", "0.5,0", "--R", "1",
            "--theta", "0.3,1.1", "--out", str(path))
        monkeypatch.setattr(solver, "ray_jump_defect", lambda m, s, i: 1e-8)
        code, out, _ = run(capsys, "jump-check", "--solution", str(path))
        assert code == 1
        assert "(tolerance 1e-09)" in out
        assert "FAIL: ray jumps deviate" in out

    def test_jump_check_near_aligned_rays(self, capsys, tmp_path):
        # 1.2 x the phi 0.9 wall point: two rays within 0.2 rad
        path = tmp_path / "sol.json"
        code, _, _ = run(capsys, "solve", "--model", "pentagon",
                         "--u", "1.158,1.459", "--R", "1",
                         "--theta", "0.37,1.29", "--out", str(path))
        assert code == 0
        code, out, _ = run(capsys, "jump-check", "--solution", str(path))
        assert code == 0
        assert "worst jump defect" in out

    def test_tampered_hash_refused(self, capsys, tmp_path):
        # the hash covers the stored data as well as the configuration
        path = tmp_path / "sol.json"
        run(capsys, "solve", "--model", "pentagon", "--u", "1.5,0.2",
            "--R", "1", "--theta", "0.37,1.29", "--out", str(path))
        signed = path.read_text()
        for tamper in (lambda p: p["config"]["point"].update(R=2.0),
                       doubled_first_upsilon):
            payload = json.loads(signed)
            tamper(payload)
            path.write_text(json.dumps(payload))
            code, _, err = run(capsys, "jump-check", "--solution", str(path))
            assert code == 1
            assert "hash mismatch" in err

    def test_missing_field_is_one_line_failure(self, capsys, tmp_path):
        path = tmp_path / "sol.json"
        run(capsys, "solve", "--model", "ov", "--u", "0.5,0", "--R", "1",
            "--theta", "0.3,1.1", "--out", str(path))
        payload = json.loads(path.read_text())
        del payload["rays"][1]["charges"][0]["upsilon"]
        path.write_text(json.dumps(payload))
        code, _, err = run(capsys, "jump-check", "--solution", str(path))
        assert code == 1
        assert err.strip().endswith(
            "missing field rays[1].charges[0].upsilon")
        assert len(err.strip().splitlines()) == 1

    def test_loaded_data_feed_evaluation(self, capsys, tmp_path):
        # a rescaled upsilon array, re-signed, still loads; evaluation
        # must read the loaded data, not the discarded solve's
        path = tmp_path / "sol.json"
        run(capsys, "solve", "--model", "pentagon", "--u", "1.5,0.2",
            "--R", "1", "--theta", "0.37,1.29", "--out", str(path))
        payload = json.loads(path.read_text())
        entry = doubled_first_upsilon(payload)
        write_signed(path, payload)
        model, point, loaded = load_solution(str(path))

        fresh = solver.solve(model, point)
        gamma_s = charge(*entry["charge"])
        rescaled = fresh.upsilon.copy()
        rescaled[solver.unknowns(fresh.grids).index((0, gamma_s))] = [
            complex(a, b) for a, b in entry["upsilon"]]
        want = dataclasses.replace(fresh, upsilon=rescaled)
        gamma = next(g for g in model.lattice.basis()
                     if model.lattice.pair(g, gamma_s) != 0)
        zeta = solver.midsector_zetas(fresh, 1)[0]
        got = solver.upsilon(model, loaded, gamma, zeta)
        assert got == solver.upsilon(model, want, gamma, zeta)
        solved = solver.upsilon(model, fresh, gamma, zeta)
        assert abs(got - solved) > 1e-3 * abs(solved)

    def test_load_runs_no_solve(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "sol.json"
        run(capsys, "solve", "--model", "pentagon", "--u", "1.5,0.2",
            "--R", "1", "--theta", "0.37,1.29", "--out", str(path))
        calls = []
        original = solver.iterate

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(solver, "iterate", counted)
        _, _, loaded = load_solution(str(path))
        assert calls == []
        # the diagnostics describe the stored solve and its data
        payload = json.loads(path.read_text())
        assert loaded.iterations == payload["iterations"]
        assert loaded.residual == payload["residual"]
        assert loaded.recheck_residual < 10 * loaded.tol_iter

    def test_non_finite_value_refused(self, capsys, tmp_path):
        # a NaN upsilon entry, re-signed, passes the hash; the load refuses
        # it, where the sweep and the jumps would read it as a pass
        path = tmp_path / "sol.json"
        run(capsys, "solve", "--model", "pentagon", "--u", "1.5,0.2",
            "--R", "1", "--theta", "0.37,1.29", "--out", str(path))
        payload = json.loads(path.read_text())
        payload["rays"][1]["charges"][0]["upsilon"][5][0] = math.nan
        write_signed(path, payload)
        code, _, err = run(capsys, "jump-check", "--solution", str(path))
        assert code == 1
        assert err.strip().endswith("non-finite value at "
                                    "payload.rays[1].charges[0].upsilon[5][0]")

    def test_nan_defect_fails_closed(self, capsys, tmp_path, monkeypatch,
                                     pentagon):
        # a NaN node value makes every defect it reaches NaN; a NaN defect
        # on a later ray, or a NaN recheck residual, fails the check
        path = tmp_path / "sol.json"
        run(capsys, "solve", "--model", "pentagon", "--u", "1.5,0.2",
            "--R", "1", "--theta", "0.37,1.29", "--out", str(path))
        _, _, loaded = load_solution(str(path))
        upsilon = loaded.upsilon.copy()
        upsilon[1, 5] = math.nan
        # numpy warns as a NaN enters exp; the result is what is tested
        with np.errstate(invalid="ignore"):
            bad = dataclasses.replace(loaded, upsilon=upsilon)
            assert all(math.isnan(solver.ray_jump_defect(pentagon, bad, i))
                       for i in range(len(bad.grids)))
        monkeypatch.setattr(solver, "ray_jump_defect",
                            lambda m, s, i: math.nan if i == 1 else 0.0)
        code, out, _ = run(capsys, "jump-check", "--solution", str(path))
        assert code == 1
        assert "worst jump defect: nan" in out
        assert "FAIL: ray jumps deviate" in out
        monkeypatch.setattr(solver, "recheck", lambda *args: math.nan)
        code, out, _ = run(capsys, "jump-check", "--solution", str(path))
        assert code == 1
        assert "not a fixed point" in out

    def test_jump_check_rejects_non_fixed_point(self, capsys, tmp_path):
        # a doubled upsilon array, re-signed, passes the hash and its jumps
        # stay within tolerance, but one sweep shows it is no fixed point
        path = tmp_path / "sol.json"
        run(capsys, "solve", "--model", "pentagon", "--u", "1.5,0.2",
            "--R", "1", "--theta", "0.37,1.29", "--out", str(path))
        payload = json.loads(path.read_text())
        doubled_first_upsilon(payload)
        write_signed(path, payload)
        code, out, _ = run(capsys, "jump-check", "--solution", str(path))
        assert code == 1
        assert "not a fixed point" in out
        # a stored tolerance of 1 passed the same data (worst jump defect
        # 1.3e-8); the file can tighten the gate but not loosen it
        payload["config"]["tol_iter"] = 1.0
        write_signed(path, payload)
        code, out, _ = run(capsys, "jump-check", "--solution", str(path))
        assert code == 1
        assert "not a fixed point" in out
        assert "> 1e-09 (10 x min(tol_iter 1, 1e-10))" in out


class TestReports:
    def test_model_info(self, capsys):
        code, out, _ = run(capsys, "model-info", "pentagon")
        assert code == 0
        assert "vanishing cycles" in out

    def test_validate_ov(self, capsys):
        code, out, _ = run(capsys, "validate", "--model", "ov",
                           "--grid", "8")
        assert code == 0
        assert "pass" in out

    def test_semiflat_sample_table(self, capsys):
        code, out, _ = run(capsys, "semiflat-sample", "--model", "ov",
                           "--u", "0.5,0", "--R", "1", "--theta", "0.3,1.1",
                           "--zeta-grid", "3")
        assert code == 0
        rows = [l for l in out.splitlines() if l and not l.startswith("zeta")]
        assert len(rows) == 6  # 3 zetas x 2 basis charges

    def test_tree_compare(self, capsys):
        code, out, _ = run(capsys, "tree-compare", "--model", "ov",
                           "--u", "0.5,0", "--R", "1", "--theta", "0.3,1.1",
                           "--cutoff", "2", "--zeta", "0.6,0.5")
        assert code == 0
        assert "agreement bound" in out

    def test_tree_compare_gate_fails(self, capsys, monkeypatch):
        # a reference turned 1e-3 rad off the requested zeta breaks the gate
        evaluate = solver.evaluate
        monkeypatch.setattr(solver, "evaluate", lambda m, s, g, z:
                            evaluate(m, s, g, z * cmath.exp(1e-3j)))
        code, out, _ = run(capsys, "tree-compare", "--model", "pentagon",
                           "--u", "0.6,0.3", "--R", "1",
                           "--theta", "0.37,1.29", "--cutoff", "4",
                           "--zeta", "0.9,0.4")
        assert code == 1
        assert "FAIL: tree series gap exceeds the next-layer gate" in out

    def test_tree_compare_nan_gate_fails(self, capsys, monkeypatch):
        # a gate that comes out NaN fails the comparison instead of passing
        monkeypatch.setattr(trees, "layer_gate", lambda *args: math.nan)
        code, out, _ = run(capsys, "tree-compare", "--model", "ov",
                           "--u", "0.5,0", "--R", "1", "--theta", "0.3,1.1",
                           "--cutoff", "2", "--zeta", "0.6,0.5")
        assert code == 1
        assert "FAIL: tree series gap exceeds the next-layer gate" in out

    def test_tree_compare_low_r(self, capsys):
        # near the smallest R the solver accepts (|X^sf| peaks at 0.898)
        # the layers shrink unevenly; the correct cutoff-4 sum must pass
        code, out, _ = run(capsys, "tree-compare", "--model", "pentagon",
                           "--u", "0.6,0.3", "--R", "0.0201",
                           "--theta", "0.37,1.29", "--cutoff", "4",
                           "--zeta", "0.555,-0.832", "--charge", "0,1")
        assert code == 0
        assert "FAIL" not in out

    def test_tree_compare_cutoff_8(self, capsys):
        # resummed by root and degree, nine degrees take no tree list
        code, out, _ = run(capsys, "tree-compare", "--model", "pentagon",
                           "--u", "0.6,0.3", "--R", "1",
                           "--theta", "0.37,1.29", "--cutoff", "8",
                           "--zeta", "0.9,0.4")
        assert code == 0
        assert "FAIL" not in out
        assert "next layer |S_9 - S_8|" in out

    def test_tree_compare_charge_below_spectral_cutoff(self, capsys):
        # at R 3.2 the rays of +-e1 fall below the spectral cutoff, so the
        # solve drops them, and the tree sum takes its charges from the rays
        code, out, err = run(capsys, "tree-compare", "--model", "pentagon",
                             "--u", "1.2,0", "--R", "3.2",
                             "--theta", "0.37,1.29", "--zeta", "0.3,0.95")
        assert code == 0, err
        assert "FAIL" not in out

    def test_tree_compare_no_active_ray(self, capsys):
        # at R 100 no charge clears the spectral cutoff: both routes are X^sf
        code, out, err = run(capsys, "tree-compare", "--model", "pentagon",
                             "--u", "0.6,0.3", "--R", "100",
                             "--theta", "0.37,1.29", "--cutoff", "4",
                             "--zeta", "0.9,0.4")
        assert code == 0, err
        assert "FAIL" not in out
        assert "     4   " in out and out.count("0.000e+00") == 5

    def test_ov_compare_nan_fails(self, capsys, monkeypatch):
        # a NaN value is the worst error, not one that max() drops
        monkeypatch.setattr(solver, "evaluate", lambda m, s, g, z:
                            CoordinateValue.from_log(g, z, complex(math.nan)))
        code, out, _ = run(capsys, "ov-compare", "--count", "3")
        assert code == 1
        assert "worst relative error nan" in out
        assert "FAIL: above tolerance" in out

    def test_ov_compare_no_active_ray(self, capsys):
        code, out, err = run(capsys, "ov-compare", "--count", "3",
                             "--r-list", "50")
        assert code == 0, err
        assert "over 3 samples" in out

    def test_wcf_dump_series(self, capsys):
        code, out, _ = run(capsys, "wcf-check", "--model", "pentagon",
                           "--order", "3", "--dump-series")
        assert code == 0
        assert "(0, 1) : 1/1" in out

    def test_wcf_dump_series_pinned(self, capsys):
        # the 61 lines the exact-rational algebra printed at order 8
        code, out, _ = run(capsys, "wcf-check", "--model", "pentagon",
                           "--order", "8", "--dump-series")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a75e9e2345aed88303b5051c5ff92e134acf59defe69727029e322d014beaa6d")

    def test_metric_prints_defects(self, capsys):
        code, out, _ = run(capsys, "metric", "--model", "pentagon",
                           "--u", "1.5,0.2", "--R", "2",
                           "--theta", "0.37,1.29")
        assert code == 0
        [line] = [l for l in out.splitlines() if "laurent residual" in l]
        defect = float(line.split("reality defect ")[1])
        assert defect < 1e-12

    def test_metric_next_to_a_wall(self, capsys, pentagon):
        # 1.0025 x the phi 0.9 wall (R 0.35): two sector midpoints lie
        # within RAY_AVOIDANCE_ANGLE of a ray, and the Laurent residual
        # is sampled away from them
        u = 1.0025 * pentagon_wall_point(pentagon, 0.9)
        code, out, _ = run(capsys, "metric", "--model", "pentagon",
                           "--u", f"{u.real!r},{u.imag!r}", "--R", "0.35",
                           "--theta", "0.37,1.29")
        assert code == 0
        assert "laurent residual" in out

    def test_metric_semiflat_only(self, capsys, monkeypatch, pentagon):
        metrics = []
        triple = geometry.metric_from_triple
        monkeypatch.setattr(geometry, "metric_from_triple", lambda *forms:
                            metrics.append(triple(*forms)) or metrics[-1])
        code, out, _ = run(capsys, "metric", "--model", "pentagon",
                           "--u", "0.45,0.25", "--R", "3",
                           "--theta", "0.37,1.29", "--semiflat-only")
        assert code == 0
        assert "eigenvalues" in out
        assert "laurent residual" not in out
        # g is the closed-form semiflat metric, and within rounding of the
        # reference Laurent fit of sampled semiflat two-forms
        point = ModelPoint(0.45 + 0.25j, 3.0, (0.37, 1.29))
        [got] = [m.g for m in metrics]
        assert np.array_equal(got, triple(omega_plus_sf(pentagon, point),
                                          omega3_sf(pentagon, point)).g)
        zetas = solver.midsector_zetas(solver.build_grids(pentagon, point),
                                       12)
        fit = laurent_fit(zetas, varpi_sf(pentagon, point, np.array(zetas)))
        fitted = triple(fit.omega_plus, fit.omega_3).g
        assert np.max(np.abs(got - fitted)) <= 1e-14 * np.max(np.abs(fitted))

    @pytest.mark.parametrize("model, u", [("pentagon", "0.45,0.25"),
                                          ("ov", "0.55,0")])
    def test_semiflat_metric_needs_no_rays(self, capsys, model, u):
        # R 0.001 is far below the smallest R a solve accepts
        code, out, err = run(capsys, "metric", "--model", model, "--u", u,
                             "--R", "0.001", "--theta", "0.37,1.29",
                             "--semiflat-only")
        assert (code, err) == (0, "")
        assert "eigenvalues" in out

    def test_decay_scan(self, capsys):
        code, out, _ = run(capsys, "decay-scan", "--model", "pentagon",
                           "--u", "1.2,0", "--theta", "0.37,1.29",
                           "--R-list", "1.5,2.5,3.5", "--tol-rel", "0.05")
        assert code == 0
        assert "fitted slope" in out

    def test_decay_scan_nan_fails(self, capsys, monkeypatch):
        # a NaN slope fails the decay check instead of passing it
        monkeypatch.setattr(solver, "correction_decay", lambda *args:
                            solver.DecayReport([1.0, 2.0], [1e-3, 1e-6],
                                               math.nan, -6.0))
        code, out, _ = run(capsys, "decay-scan", "--model", "pentagon",
                           "--u", "1.2,0")
        assert code == 1
        assert "relative error nan%" in out
        assert "FAIL: decay-rate error above" in out

    def test_decay_scan_no_active_ray(self, capsys):
        code, out, err = run(capsys, "decay-scan", "--model", "pentagon",
                             "--u", "1.2,0", "--R-list", "50,60")
        assert code == 1
        assert err.strip().splitlines() == [
            "error: no active charge at R=50.0: every exp(-2 pi R |Z|) "
            "is below SPECTRAL_CUTOFF"]

    def test_wall_check_short(self, capsys, monkeypatch):
        calls = []
        iterate = solver.iterate
        monkeypatch.setattr(solver, "iterate", lambda *a, **kw:
                            calls.append(1) or iterate(*a, **kw))
        code, out, _ = run(capsys, "wall-check", "--model", "pentagon",
                           "--phi", "0.9", "--sep", "0.02", "--R", "0.35",
                           "--halvings", "1")
        assert code == 0
        assert "wall continuity: PASS" in out
        # two solves per pair, 2 pairs, genuine and control, where the
        # control's in-side solves are the genuine ones, stored; the probe
        # zetas come from grids alone
        assert len(calls) == 6

    def test_metric_grid_rows(self, capsys, tmp_path):
        out_path = tmp_path / "grid.txt"
        code, out, _ = run(capsys, "metric", "--model", "pentagon",
                           "--u", "0.45,0.25", "--R", "3",
                           "--theta", "0.37,1.29", "--semiflat-only",
                           "--emit-grid", "2", "--grid-out", str(out_path))
        assert code == 0
        rows = [l for l in out_path.read_text().splitlines()
                if not l.startswith("#")]
        assert len(rows) == 2


class TestColdStart:
    def test_scipy_never_loads(self):
        # a fresh process: importing the CLI, `metric`, `wall-check` and
        # `ov-compare`, which runs the OV oracle, never load SciPy
        script = textwrap.dedent("""
            import sys
            from hkforge.cli import main
            seen = ["scipy" in sys.modules]
            main(["metric", "--model", "pentagon", "--u", "0.45,0.25",
                  "--R", "3", "--theta", "0.37,1.29"])
            seen.append("scipy" in sys.modules)
            main(["wall-check", "--model", "pentagon", "--phi", "0.9",
                  "--sep", "0.02", "--R", "0.35"])
            seen.append("scipy" in sys.modules)
            main(["ov-compare", "--count", "1"])
            seen.append("scipy" in sys.modules)
            print(seen)
        """)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-c", script], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.splitlines()[-1] == "[False, False, False, False]"
