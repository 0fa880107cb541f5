"""Acceptance suite: every exit criterion as one test printing one line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines. All comparisons are exact (rational arithmetic); the two
statistical criteria use thresholds frozen from a pilot calibration run.
"""

import random
from fractions import Fraction
from itertools import combinations

from skewlie import (ExactMatrix, SampleConfig, SkewAlgebra, abelian, algebra3,
                     aut_dimension, basis_vec, build_HL, build_M, classify,
                     derivation_space, determinant, filiform5, heisenberg,
                     hom_check, homlie_space, is_homlie, is_lie, is_nilpotent,
                     killing_determinant, orbit_dimension, random_algebra,
                     rank, run_experiment, transport, vec_of_endo)
from skewlie.classify import (HEISENBERG, TAGS, ns1_family, ns2_family,
                              sol_family)
from skewlie.errors import UnsupportedDimError
from skewlie.structmats import derivation_defect, hom_jacobi_defect

from helpers import (COUNTEREXAMPLE4_HL_DET, counterexample4, gamma2_family,
                     normal_form_of,
                     ns1_kernel_generator, ns2_kernel_generator, rand_algebra,
                     rand_endo, rand_fraction, rand_invertible,
                     rand_nonzero_fraction, rigid_dim4, sol_kernel_generator,
                     sol_kernel_generators_b2_zero)

# Frozen from the calibration pilot (seed 42, height 2, 200 trials:
# observed dim-3 rank-8 fraction 0.985, dim-4 non-Hom-Lie fraction 1.00).
GENERICITY_THRESHOLD = Fraction(95, 100)


def report(label, checks):
    failed = [name for name, ok in checks if not ok]
    line = ("PASS " if not failed else "FAIL ") + label
    if failed:
        line += " [" + ", ".join(failed) + "]"
    print(line)
    assert not failed, line


def test_c01_heisenberg_profile():
    h = heisenberg()
    report("criterion 1: Heisenberg profile", [
        ("rank 3", orbit_dimension(h) == 3),
        ("derivation dim 6", derivation_space(h).dim == 6),
        ("nilpotent", is_nilpotent(h)),
        ("classified", classify(h).tag == HEISENBERG),
        ("hom-lie kernel dim 9", homlie_space(h).dim == 9),
    ])


def test_c02_rank8_algebra_with_diagonal_derivation():
    a = algebra3(0, 1, 0, 0, 0, 2, 1, 0, 0)
    ders = derivation_space(a)
    c = ders.basis[0][1, 1] if ders.dim else 0
    spans_target = (ders.dim == 1 and c != 0
                    and ders.basis[0] == ExactMatrix([[0, 0, 0], [0, c, 0], [0, 0, -c]]))
    report("criterion 2: rank-8 algebra, derivation line diag(0,1,-1)", [
        ("rank 8", orbit_dimension(a) == 8),
        ("derivation space is the stated line", spans_target),
    ])


def test_c03_gamma2_family():
    lie_only_at_minus_one = all(
        is_lie(gamma2_family(g2)) == (g2 == -1)
        for g2 in (-1, 0, 1, 2, -2, Fraction(1, 2), Fraction(-3, 4)))
    pattern_ok = True
    ders = derivation_space(gamma2_family(1))
    for f in ders.basis:
        pattern_ok &= f.row(0) == (0, 0, 0) and f.column(0) == (0, 0, 0)
        pattern_ok &= f[2, 2] == -f[1, 1]
    report("criterion 3: e1e2=e2, e1e3=g2*e3, e2e3=e1 family", [
        ("Lie iff g2 = -1", lie_only_at_minus_one),
        ("rank 6 at g2 = -1", orbit_dimension(gamma2_family(-1)) == 6),
        ("rank 6 at g2 = 1", orbit_dimension(gamma2_family(1)) == 6),
        ("kernel dim 3 at g2 = 1", ders.dim == 3),
        ("kernel pattern at g2 = 1", pattern_ok),
    ])


def test_c04_solvable_line_normal_form():
    a = SkewAlgebra(3, {(1, 3): (0, 0, 1)})
    report("criterion 4: normal form e1e3=e3", [
        ("rank 5", orbit_dimension(a) == 5),
        ("aut dimension 4", aut_dimension(a) == 4),
    ])


def test_c05_two_solvable_rank_fixtures():
    a = algebra3(0, 0, 1, 0, 1, 0, 0, 0, 0)  # e1e2=e3, e1e3=e2
    b = algebra3(0, 1, 0, 0, 0, 1, 0, 0, 0)  # e1e2=e2, e1e3=e3
    report("criterion 5: solvable rank fixtures", [
        ("rank 5", orbit_dimension(a) == 5),
        ("rank 3", orbit_dimension(b) == 3),
    ])


def test_c06_sol_family_draws():
    rng = random.Random(4242)
    checks = []
    for t in range(10):
        b1, g1, g2 = (rand_fraction(rng) for _ in range(3))
        b2 = rand_nonzero_fraction(rng)
        a = sol_family(b1, g1, b2, g2)
        m = build_M(a)
        gen = sol_kernel_generator(b1, g1, b2, g2)
        checks.append((f"draw {t} rank 8", rank(m) == 8))
        checks.append((f"draw {t} generator in kernel",
                       all(x == 0 for x in m.apply(gen))))
        checks.append((f"draw {t} killing det",
                       killing_determinant(a) == -b2 ** 2))
    for t in range(10):
        b1 = rand_nonzero_fraction(rng)
        g1, g2 = rand_fraction(rng), rand_fraction(rng)
        a = sol_family(b1, g1, 0, g2)
        m = build_M(a)
        gens = sol_kernel_generators_b2_zero(b1, g1, g2)
        checks.append((f"zero draw {t} rank 7", rank(m) == 7))
        checks.append((f"zero draw {t} generators in kernel",
                       all(all(x == 0 for x in m.apply(g)) for g in gens)))
        checks.append((f"zero draw {t} killing det", killing_determinant(a) == 0))
    report("criterion 6: solvable non-Lie family, 20 draws", checks)


def test_c07_nonsolvable_family_draws():
    rng = random.Random(4243)
    checks = []
    for t in range(20):
        b2, a3 = rand_nonzero_fraction(rng), rand_nonzero_fraction(rng)
        g2, b3, g3 = (rand_nonzero_fraction(rng) for _ in range(3))
        a = ns1_family(b2, g2, a3, b3, g3)
        m = build_M(a)
        gen = ns1_kernel_generator(b2, g2, a3, b3, g3)
        checks.append((f"ns1 draw {t} rank 8", rank(m) == 8))
        checks.append((f"ns1 draw {t} generator in kernel",
                       all(x == 0 for x in m.apply(gen)) and any(gen)))
    for t in range(20):
        a2, b3 = rand_nonzero_fraction(rng), rand_nonzero_fraction(rng)
        b2, g2, g3 = (rand_nonzero_fraction(rng) for _ in range(3))
        a = ns2_family(a2, b2, g2, b3, g3)
        m = build_M(a)
        gen = ns2_kernel_generator(a2, b2, g2, b3, g3)
        checks.append((f"ns2 draw {t} rank 8", rank(m) == 8))
        checks.append((f"ns2 draw {t} generator in kernel",
                       all(x == 0 for x in m.apply(gen)) and any(gen)))
    for t in range(5):
        b2, a3 = rand_nonzero_fraction(rng), rand_nonzero_fraction(rng)
        checks.append((f"ns1 Lie subcase {t} rank 6",
                       rank(build_M(ns1_family(b2, 0, a3, 0, 0))) == 6))
        a2 = rand_nonzero_fraction(rng)
        checks.append((f"ns2 Lie subcase {t} rank 6",
                       rank(build_M(ns2_family(a2, rand_fraction(rng), 0,
                                               -a2, 0))) == 6))
    report("criterion 7: non-solvable families, kernels and ranks", checks)


def test_c08_every_dim3_sample_is_homlie():
    cfg = SampleConfig(dim=3, trials=500, seed=2024, height=2)
    identity = ExactMatrix.identity(3)
    all_kernel = True
    all_homlie = True
    identity_iff_lie = True
    for i in range(cfg.trials):
        a = random_algebra(cfg, i)
        space = homlie_space(a)
        all_kernel &= space.dim >= 6
        all_homlie &= is_homlie(a)
        identity_iff_lie &= hom_check(a, identity) == is_lie(a)
    report("criterion 8: 500 dim-3 samples are Hom-Lie", [
        ("kernel dim >= 6", all_kernel),
        ("is_homlie", all_homlie),
        ("identity twist iff Lie", identity_iff_lie),
    ])


def test_c09_dim4_fixtures():
    c4 = counterexample4()
    hl = build_HL(c4)
    r4 = rigid_dim4()
    report("criterion 9: dimension-4 fixtures", [
        ("counterexample rank 16", rank(hl) == 16),
        ("counterexample determinant frozen",
         determinant(hl) == COUNTEREXAMPLE4_HL_DET),
        ("counterexample not Hom-Lie", not is_homlie(c4)),
        ("generic example rank 16", orbit_dimension(r4) == 16),
        ("generic example aut dim 0", aut_dimension(r4) == 0),
    ])


def test_c10_dim2_profile():
    cfg = SampleConfig(dim=2, trials=200, seed=77, height=3)
    count = 0
    ok_rank = ok_der = ok_lie = True
    for i in range(cfg.trials):
        a = random_algebra(cfg, i)
        if not a.products:
            continue
        count += 1
        ok_rank &= orbit_dimension(a) == 2
        ok_der &= derivation_space(a).dim == 2
        ok_lie &= is_lie(a)
        if count == 50:
            break
    report("criterion 10: 50 non-abelian dim-2 samples", [
        ("50 samples found", count == 50),
        ("rank 2", ok_rank),
        ("derivation dim 2", ok_der),
        ("all Lie", ok_lie),
    ])


def test_c11_filiform_family():
    report("criterion 11: 5-dimensional filiform family", [
        ("(1,0,0,1) not Lie", not is_lie(filiform5(1, 0, 0, 1))),
        ("(1,0,0,1) Hom-Lie", is_homlie(filiform5(1, 0, 0, 1))),
        ("(1,0,1,0) Lie", is_lie(filiform5(1, 0, 1, 0))),
    ])


def test_c12_matrix_vs_direct_oracle():
    checks = []
    for dim in (2, 3, 4, 5):
        rng = random.Random(9000 + dim)
        m_ok = True
        hl_ok = True
        for _ in range(100):
            a = rand_algebra(rng, dim=dim, height=2)
            f = rand_endo(rng, dim, height=2)
            image = build_M(a).apply(vec_of_endo(f))
            direct = []
            for (i, j) in combinations(range(1, dim + 1), 2):
                direct.extend(derivation_defect(a, f, basis_vec(dim, i),
                                                basis_vec(dim, j)))
            m_ok &= list(image) == direct
            if dim >= 3:
                image = build_HL(a).apply(vec_of_endo(f))
                direct = []
                for (i, j, k) in combinations(range(1, dim + 1), 3):
                    direct.extend(hom_jacobi_defect(
                        a, f, basis_vec(dim, i), basis_vec(dim, j),
                        basis_vec(dim, k)))
                hl_ok &= list(image) == direct
        checks.append((f"dim {dim} derivation operator", m_ok))
        if dim >= 3:
            checks.append((f"dim {dim} hom-jacobi operator", hl_ok))
    try:
        build_HL(abelian(2))
        dim2_raises = False
    except UnsupportedDimError:
        dim2_raises = True
    checks.append(("dim 2 hom-jacobi matrix is rejected", dim2_raises))
    report("criterion 12: matrix route equals direct evaluation (100 per dim)",
           checks)


def test_c13_classification_soundness_and_invariance():
    rng = random.Random(1313)
    all_tagged = True
    all_sound = True
    all_invariant = True
    for _ in range(100):
        a = rand_algebra(rng, dim=3, height=2)
        res = classify(a)
        all_tagged &= res.tag in TAGS
        all_sound &= transport(a, res.witness) == normal_form_of(res)
        p = rand_invertible(rng, 3)
        b = transport(a, p)
        all_invariant &= (classify(b).tag == res.tag
                          and orbit_dimension(b) == orbit_dimension(a)
                          and homlie_space(b).dim == homlie_space(a).dim)
    report("criterion 13: witnesses exact, tags and invariants basis-independent", [
        ("every algebra tagged", all_tagged),
        ("witness transport reproduces the normal form", all_sound),
        ("tag, rank, hom-lie dim invariant", all_invariant),
    ])


def test_c14_genericity_statistics():
    r3 = run_experiment(SampleConfig(dim=3, trials=200, seed=42, height=2))
    r4 = run_experiment(SampleConfig(dim=4, trials=200, seed=42, height=2))
    rank8_fraction = Fraction(r3.rank_histogram_M.get(8, 0), r3.trials)
    non_homlie_fraction = Fraction(r4.trials - r4.homlie_count, r4.trials)
    report("criterion 14: genericity statistics at seed 42", [
        (f"dim-3 rank-8 fraction {rank8_fraction} >= 95/100",
         rank8_fraction >= GENERICITY_THRESHOLD),
        (f"dim-4 non-Hom-Lie fraction {non_homlie_fraction} >= 95/100",
         non_homlie_fraction >= GENERICITY_THRESHOLD),
        ("dim-3 all Hom-Lie", r3.homlie_count == r3.trials),
    ])
