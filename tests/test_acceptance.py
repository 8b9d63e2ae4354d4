"""End-to-end acceptance battery.

Each test prints a single ACCEPTANCE <k> PASS/FAIL line; the assertion
carries the same verdict so the suite fails loudly when a criterion does.
"""

import math

import numpy as np
import pytest

from multibeta.beta import (CubeSample, QuadratureSpec, beta_integralgeometric,
                            beta_p_cube, beta_p_restricted, carleson_sum,
                            combined_beta, cube_beta, restricted_line_betas)
from multibeta.calibration import C_HOLD, C_REC, CARLESON_RATIO
from multibeta.cli import main as cli_main
from multibeta.funcmodel import (default_catalog, default_parabolic_catalog,
                                 make_field)
from multibeta.geometry import (Ball, Box, DyadicBox, Hyperplane,
                                ParabolicBox, estimate_line_measure,
                                estimate_plane_measure)
from multibeta.parabolic import (ParabolicSample, combine_affine_bound,
                                 dt_carleson_quotient, holder_exponent_check,
                                 horizontal_affinity, parabolic_beta2,
                                 rademacher_probe, vertical_osc)
from multibeta.reconstruct import planar_beta2, verify_reconstruction
from multibeta.rng import stream


def report(k, ok, detail=""):
    print(f"ACCEPTANCE {k} {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"acceptance criterion {k} failed: {detail}"


def random_boxes(n, count, seed):
    rng = stream(seed, "boxes", n)
    out = []
    for _ in range(count):
        lo = rng.uniform(0.0, 0.5, n)
        sides = rng.uniform(0.1, 0.5, n)
        out.append(Box(tuple(lo), tuple(sides)))
    return out


def random_parabolic_boxes(n, count, seed):
    rng = stream(seed, "pboxes", n)
    out = []
    for _ in range(count):
        side = rng.uniform(0.1, 0.5)
        lo = rng.uniform(0.0, 0.5, n - 1)
        t0 = rng.uniform(0.0, 0.5)
        out.append(ParabolicBox(Box(tuple(lo), (side,) * (n - 1)), t0, side * side))
    return out


def test_acceptance_1_affine_annihilation():
    quad = QuadratureSpec(nodes=9, restricted_nodes=17, mc_samples=64, seed=0)
    worst = 0.0
    for n in (1, 2, 3):
        fld = make_field("affine", n, a=0.3 * np.arange(1, n + 1), b=-0.2)
        box = Box((0.0,) * n, (1.0,) * n)
        for p in (1, 2, math.inf):
            worst = max(worst, beta_p_cube(fld, box, p, quad).value)
        if n >= 2:
            d = np.asarray((1.0,) + (0.3,) * (n - 1))
            _, line = restricted_line_betas(fld, box, [(0.5,) * n], [d / np.linalg.norm(d)],
                                            (2,), quad)
            worst = max(worst, line[2][0])
            plane = Hyperplane((1.0,) * n, 0.5 * n)
            worst = max(worst, beta_p_restricted(fld, box, plane, 2, quad).value)
            worst = max(worst, beta_integralgeometric(fld, box, 1, math.inf, 2, quad).value)
            worst = max(worst, combined_beta(fld, box, quad))
    for n in (2, 3):
        psi = make_field("p_additive", n, space="affine",
                         space_params={"a": [0.4] * (n - 1), "b": 0.1}, time="zero")
        pbox = ParabolicBox(Box((0.0,) * (n - 1), (1.0,) * (n - 1)), 0.0, 1.0)
        sample = ParabolicSample.of(psi, pbox, quad)
        worst = max(worst, horizontal_affinity(sample))
        worst = max(worst, vertical_osc(sample))
        worst = max(worst, parabolic_beta2(sample))
        worst = max(worst, dt_carleson_quotient(sample)[0])
    report(1, worst <= 1e-10, f"max coefficient {worst!r}")


def test_acceptance_2_norm_monotonicity():
    quad = QuadratureSpec(nodes=9)
    pairs = ((1, 2), (2, 4), (2, math.inf))
    worst_gap = -math.inf
    checked = 0
    for n in (1, 2):
        boxes = random_boxes(n, 100, 2)
        for fld in default_catalog(n):
            for box in boxes:
                s = CubeSample.of(fld, box, quad)
                vals = {p: cube_beta(s, p).value for p in (1, 2, 4, math.inf)}
                for p, q in pairs:
                    worst_gap = max(worst_gap, vals[p] - vals[q])
                    checked += 1
    report(2, worst_gap <= 1e-9, f"max beta_p - beta_q = {worst_gap!r} over {checked} pairs")


def test_acceptance_3_grassmannian_normalization():
    count = 100_000
    ok = True
    details = []
    for n in (2, 3):
        ball = Ball((0.0,) * n, 1.0)
        enclosing = Box((-1.2,) * n, (2.4,) * n)
        for label, est in (("plane", estimate_plane_measure),
                           ("line", estimate_line_measure)):
            mean, se = est(enclosing, ball, count, 0)
            hit = abs(mean - 1.0) <= 3.0 * se
            ok = ok and hit
            details.append(f"{label} n={n}: {mean:.4f}+-{se:.4f}")
        # translation invariance: shifted ball, same normalization
        shift = (0.3, -0.2, 0.1)[:n]
        shifted = Ball(shift, 1.0)
        sbox = Box(tuple(s - 1.2 for s in shift), (2.4,) * n)
        mean, se = estimate_plane_measure(sbox, shifted, count, 1)
        ok = ok and abs(mean - 1.0) <= 3.0 * se
        details.append(f"shifted plane n={n}: {mean:.4f}+-{se:.4f}")
    report(3, ok, "; ".join(details))


def test_acceptance_4_carleson_packing():
    quad = QuadratureSpec(nodes=9)
    fld1 = make_field("pwlinear", 1, xs=[0.0, 1.0 / 3.0, 1.0], ys=[1.0 / 3.0, 0.0, 2.0 / 3.0])
    rep1 = carleson_sum(fld1, DyadicBox(0, (0,), (2,)), 3.0, 10, "beta2", quad)
    ratios = [rep1.per_scale[j + 1] / rep1.per_scale[j] for j in range(3, 10)]
    decay_ok = all(0.35 <= r <= 0.65 for r in ratios)
    bound_ok = all(rep1.ratios[J] <= CARLESON_RATIO[1] for J in range(4, 11))

    fld2 = make_field("pwlinear", 2, xs=[0.0, 1.0 / 3.0, 1.0], ys=[1.0 / 3.0, 0.0, 2.0 / 3.0])
    rep2 = carleson_sum(fld2, DyadicBox(0, (0, 0), (2, 2)), 3.0, 6, "beta2", quad)
    bound2_ok = rep2.ratios[-1] <= CARLESON_RATIO[2]
    report(4, decay_ok and bound_ok and bound2_ok,
           f"decay {min(ratios):.3f}..{max(ratios):.3f}, "
           f"S/L|Q0| n=1 {rep1.ratios[-1]:.5f} n=2 {rep2.ratios[-1]:.5f}")


def test_acceptance_5_parabolic_certificate():
    quad = QuadratureSpec(nodes=9)
    worst_cert = -math.inf
    worst_dom = -math.inf
    for n in (2, 3):
        boxes = random_parabolic_boxes(n, 100, 5)
        for psi in default_parabolic_catalog(n):
            for pbox in boxes:
                sample = ParabolicSample.of(psi, pbox, quad)
                _, residual_sq, cert = combine_affine_bound(sample)
                worst_cert = max(worst_cert, float(residual_sq - cert["bound"]))
                # infimum dominance: the optimal space-only fit beats the
                # time-averaged map in the same (unnormalized) units
                b2 = parabolic_beta2(sample)
                mass_opt = b2 ** 2 * pbox.diameter ** (pbox.dim + 3)
                mass_avg = residual_sq * pbox.volume
                worst_dom = max(worst_dom, float(mass_opt - mass_avg))
    report(5, worst_cert <= 1e-10 and worst_dom <= 1e-12,
           f"max residual-bound gap {worst_cert!r}, max dominance gap {worst_dom!r}")


def test_acceptance_6_l_restricted_consistency():
    quad = QuadratureSpec(nodes=9)
    ok = True
    details = []
    for n in (1, 2):
        box = Box((0.0,) * n, (1.0,) * n)
        for fld in default_catalog(n):
            free = beta_p_cube(fld, box, 2, quad)
            L_big = max(2.0 * free.fitted.lipschitz, 0.5)
            tied = beta_p_cube(fld, box, 2, quad, L=L_big)
            ok = ok and tied.value >= free.value - 1e-12
            ok = ok and abs(tied.value - free.value) <= 1e-10
            prev = math.inf
            for L in np.linspace(0.05, L_big, 10):
                val = beta_p_cube(fld, box, 2, quad, L=float(L)).value
                ok = ok and val >= free.value - 1e-12
                ok = ok and val <= prev + 1e-12
                prev = val
    # parabolic counterpart
    psi = make_field("p_additive", 2, space="cone", space_params={"x0": [0.3]}, time="sin")
    pbox = ParabolicBox(Box((0.0,), (1.0,)), 0.0, 1.0)
    sample = ParabolicSample.of(psi, pbox, quad)
    free_p = parabolic_beta2(sample)
    prev = math.inf
    for L in np.linspace(0.1, 3.0, 10):
        val = parabolic_beta2(sample, L=float(L))
        ok = ok and val >= free_p - 1e-12 and val <= prev + 1e-12
        prev = val
    ok = ok and abs(parabolic_beta2(sample, L=10.0) - free_p) <= 1e-10
    report(6, ok, "constrained >= free, equality when feasible, monotone in L")


def test_acceptance_7_holder_exponent():
    quad = QuadratureSpec(nodes=9)
    psi = make_field("p_additive", 2, space="cone", space_params={"x0": [0.0]}, time="sin")
    rng = stream(11, "holder-boxes")
    boxes = []
    for _ in range(64):
        side = rng.uniform(0.1, 0.4)
        x0 = rng.uniform(-0.5, 0.5)
        t0 = rng.uniform(0.0, 0.5)
        boxes.append(ParabolicBox(Box((x0,), (side,)), t0, side * side))
    rep = holder_exponent_check(psi, boxes, 2.0, quad, c_hold=C_HOLD[2])
    reproduced = abs(rep.c_hold - C_HOLD[2]) <= 1e-3 * C_HOLD[2]
    report(7, not rep.violations and reproduced and rep.exponent == pytest.approx(0.4),
           f"fitted {rep.c_hold!r} vs frozen {C_HOLD[2]!r}, violations {len(rep.violations)}")


def recon_catalog(n):
    rng = stream(3, "pw")
    xs = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.1, 0.9, 4)]))
    ys = rng.uniform(-0.3, 0.3, 6)
    return [
        make_field("cone", n, x0=[0.5] * n),
        make_field("bump", n, x0=[0.5, 0.4, 0.6][:n], scale=0.4),
        make_field("pwlinear", n, xs=list(xs), ys=list(ys)),
    ]


def test_acceptance_8_reconstruction_inequality():
    quad = QuadratureSpec(nodes=13, restricted_nodes=25, mc_samples=600, seed=7)
    ok = True
    details = []
    for n in (2, 3):
        box = Box((0.0,) * n, (1.0,) * n)
        for fld in recon_catalog(n):
            rep = verify_reconstruction(fld, box, c=1.0 / 20.0, seed=7, quad=quad)
            ok = ok and rep.selection.accepted
            ok = ok and rep.beta2_small_direct <= C_REC[n] * rep.combined_large
            details.append(f"{fld.kind} n={n}: ratio {rep.ratio_direct:.3f}")
            if n == 2:
                strip = planar_beta2(fld, box.dilate(1.0 / 20.0),
                                     rep.meta["direction"], quad)
                if rep.beta2_small_direct > 1e-12:
                    rel = abs(strip - rep.beta2_small_direct) / rep.beta2_small_direct
                    ok = ok and rel <= 0.02
    report(8, ok, "; ".join(details))


def test_acceptance_9_rademacher_probe():
    quad = QuadratureSpec(nodes=9)
    radii = [2.0 ** (-k) for k in range(3, 10)]
    psi = make_field("p_additive", 2, space="square", time="sin")
    rng = stream(9, "probe-pts")
    slopes = []
    for _ in range(10):
        p = (float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 1.0)))
        slopes.append(rademacher_probe(psi, p, radii, quad).slope)
    smooth_ok = all(s >= 0.9 for s in slopes)

    vee = make_field("p_additive", 2, space="cone", space_params={"x0": [0.0]},
                     time="zero")
    probe = rademacher_probe(vee, (0.0, 0.0), radii, quad)
    kink_ok = all(e >= 0.2 for e in probe.eps)
    report(9, smooth_ok and kink_ok,
           f"min smooth slope {min(slopes):.3f}, min kink eps {min(probe.eps):.3f}")


def test_acceptance_10_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["verify", "--out", str(out), "--quiet"]) == 0
        outs.append(out)
    same = (outs[0] / "verify.csv").read_bytes() == (outs[1] / "verify.csv").read_bytes()
    report(10, same, "verify.csv byte-identical across reruns")
