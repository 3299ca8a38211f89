"""Acceptance suite: one test per exit criterion, exact arithmetic throughout.

Every check is exact (tolerance zero).  Each test prints a single
PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s` to see
them inline.
"""

import random
import time

import pytest

from conftest import (
    CORPUS,
    abelian,
    g2_algebra,
    g3_algebra,
    g3_cocycle,
    g3b_algebra,
    random_cochain,
    random_pair,
    random_reynolds_data,
    unimodular,
    zero_representation,
)
from oracles import act_L, act_R, dense_kernel, verify_polynomial_system
from prelie.algebra import (
    PreLieAlgebra,
    check_derivation,
    check_prelie,
    check_representation,
    regular_representation,
)
from prelie.brackets import (
    check_maurer_cartan,
    check_twisted_mc,
    d_K,
    cocycle_structure,
    derived_bracket,
    ternary_bracket,
    untwisted_structure,
)
from prelie.cochain import Cochain, coboundary, coboundary_matrix, cochain_keys
from prelie.deformation import (
    check_linear_deformation,
    element_coboundary,
    is_cocycle,
    rigidity_probe,
)
from prelie.linalg import Matrix, add_vec, basis_vec, scale_vec, sub_vec
from prelie.nsprelie import (
    NSPreLie,
    check_ns_prelie,
    compatible_ns_from_invertible,
    ns_from_nijenhuis,
    ns_from_reynolds,
    reynolds_from_ns,
    subadjacent,
)
from prelie.opcohomology import (
    induced_representation,
    operator_coboundary,
    operator_coboundary_matrix,
)
from prelie.reynolds import (
    ReynoldsData,
    check_graph_subalgebra,
    check_rcw_reynolds,
    derivation_from_reynolds,
    gauge_transform,
    induced_product,
    reynolds_from_derivation,
    semidirect,
    shift_operator,
    star_product,
)
from prelie.scalars import QQ, PrimeField
from prelie.search import SearchSpec, exhaustive_search


def report(n, ok, text):
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {n} failed: {text}"


# ---------------------------------------------------------------------------


def test_criterion_1_worked_example_reproduction():
    """Vanishing-third-row family + exhaustive predicate/polynomial sweep."""
    t0 = time.time()
    failures = []

    for p in (2, 3):
        field = PrimeField(p)
        a = PreLieAlgebra.build(field, 3, {(2, 2, 1): 1})
        rep = regular_representation(a)
        H = Cochain.from_entries(field, 2, 3, 3, {((2,), 2): (0, 0, 1)})
        # every operator with vanishing third row is accepted
        count = 0
        elements = field.elements()
        for flat in range(p ** 6):
            digits = []
            ix = flat
            for _ in range(6):
                digits.append(elements[ix % p])
                ix //= p
            K = Matrix(field, [digits[0:3], digits[3:6],
                               [field.zero] * 3])
            if not check_rcw_reynolds(a, rep, H, K).ok:
                failures.append(("slice", p, flat))
            count += 1
        assert count == p ** 6

        sweep = verify_polynomial_system(field)
        if not sweep.equivalent:
            failures.append(("sweep", p, sweep.mismatches[:3]))
        expected_total = {2: 512, 3: 19683}[p]
        if sweep.total != expected_total:
            failures.append(("total", p, sweep.total))

    elapsed = time.time() - t0
    ok = not failures and elapsed < 10.0
    report(1, ok,
           f"worked-example family and 18-polynomial sweep, F2 (512) and F3 "
           f"(19683), {elapsed:.2f}s (< 10s), failures={failures}")


def test_criterion_2_ns_tables():
    """Entry-for-entry reproduction of both NS tables."""
    t0 = time.time()
    problems = []

    a2 = g2_algebra()
    for (c, d) in [(1, 0), (1, 1), (2, 3)]:
        ns = ns_from_nijenhuis(a2, Matrix(QQ, [[c, d], [0, c]]))
        expect = {
            "tri": {(1, 0): (-c, 0), (1, 1): (0, c)},
            "trl": {(1, 0): (-c, 0), (1, 1): (-d, c)},
            "circ": {(1, 0): (c, 0), (1, 1): (-d, -c)},
        }
        for name, table in expect.items():
            tensor = getattr(ns, name)
            for i in range(2):
                for j in range(2):
                    want = tuple(QQ(x) for x in table.get((i, j), (0, 0)))
                    if tensor[i][j] != want:
                        problems.append((c, d, name, i, j))
        if not check_ns_prelie(QQ, ns.tri, ns.trl, ns.circ).ok:
            problems.append((c, d, "axioms"))
        if not check_prelie(QQ, subadjacent(ns).product).ok:
            problems.append((c, d, "subadjacent"))

    a3 = g3b_algebra()
    for (dd, ee, ff) in [(1, 1, 0), (1, 1, 1)]:
        N = Matrix(QQ, [[dd, 0, 0], [0, ee, ff], [0, 0, ee]])
        ns = ns_from_nijenhuis(a3, N)
        expect = {
            "tri": {(2, 1): (0, ee, 0), (2, 2): (0, 0, -ee)},
            "trl": {(2, 1): (0, ee, 0), (2, 2): (0, ff, -ee)},
            "circ": {(2, 1): (0, -ee, 0), (2, 2): (0, ff, ee)},
        }
        for name, table in expect.items():
            tensor = getattr(ns, name)
            for i in range(3):
                for j in range(3):
                    want = tuple(QQ(x) for x in table.get((i, j), (0, 0, 0)))
                    if tensor[i][j] != want:
                        problems.append((dd, ee, ff, name, i, j))
        if not check_ns_prelie(QQ, ns.tri, ns.trl, ns.circ).ok:
            problems.append((dd, ee, ff, "axioms"))
        if not check_prelie(QQ, subadjacent(ns).product).ok:
            problems.append((dd, ee, ff, "subadjacent"))

    elapsed = time.time() - t0
    ok = not problems and elapsed < 1.0
    report(2, ok, f"both NS tables, every parameter choice, {elapsed:.2f}s "
                  f"(< 1s), problems={problems}")


def test_criterion_3_differentials_square_to_zero():
    """d∘d = 0 and d_K∘d_K = 0 on >= 200 randomized verified instances."""
    rng = random.Random(2024)
    failures = 0
    algebra_instances = 0
    operator_instances = 0

    while algebra_instances < 120:
        a, rep = random_pair(rng, max_dim=3)
        degree = rng.randint(1, 3)
        f = random_cochain(rng, QQ, degree, a.dim, rep.dim_v)
        if not coboundary(a, rep, coboundary(a, rep, f)).is_zero():
            failures += 1
        algebra_instances += 1

    while operator_instances < 80:
        data = random_reynolds_data(rng, max_dim=3)
        degree = rng.randint(1, 2)
        f = random_cochain(rng, QQ, degree, data.rep.dim_v, data.algebra.dim)
        if not operator_coboundary(data, operator_coboundary(data, f)).is_zero():
            failures += 1
        operator_instances += 1

    total = algebra_instances + operator_instances
    ok = failures == 0 and total >= 200
    report(3, ok, f"{total} randomized instances (120 algebra + 80 operator), "
                  f"{failures} failures")


def test_criterion_4_bracket_anchor_identities():
    """d_K = (-1)^(n-1) dK-cohomology on >= 100 instances; closed forms exact."""
    rng = random.Random(777)
    failures = 0
    instances = 0

    while instances < 100:
        data = random_reynolds_data(rng, max_dim=2 if instances % 2 else 3)
        n = 1 + (instances % 2)
        f = random_cochain(rng, QQ, n, data.rep.dim_v, data.algebra.dim)
        dk = d_K(data, f)
        pd = operator_coboundary(data, f)
        want = pd if n % 2 == 1 else -pd
        if dk != want:
            failures += 1
        instances += 1

    # closed forms for the binary and ternary brackets at degree 1
    closed_failures = 0
    for _ in range(20):
        a, rep = random_pair(rng, max_dim=3)
        from conftest import random_two_cocycle

        H = random_two_cocycle(rng, a, rep)
        K = Matrix(QQ, [[QQ(rng.randint(-2, 2)) for _ in range(rep.dim_v)]
                        for _ in range(a.dim)])
        kc = Cochain.from_matrix(K)
        b = derived_bracket(untwisted_structure(a, rep), kc, kc)
        t = ternary_bracket(cocycle_structure(a, rep, H), kc, kc, kc)
        for u in range(rep.dim_v):
            for v in range(rep.dim_v):
                eu = basis_vec(QQ, rep.dim_v, u)
                ev = basis_vec(QQ, rep.dim_v, v)
                Ku, Kv = K.column(u), K.column(v)
                inner = add_vec(act_L(rep, Ku, ev), act_R(rep, Kv, eu))
                if b.eval_basis((u, v)) != scale_vec(
                        QQ(2), sub_vec(a.mul(Ku, Kv), K.apply(inner))):
                    closed_failures += 1
                if t.eval_basis((u, v)) != scale_vec(
                        QQ(6), K.apply(H.eval([Ku, Kv]))):
                    closed_failures += 1

    ok = failures == 0 and closed_failures == 0 and instances >= 100
    report(4, ok, f"{instances} d_K/differential comparisons at degrees 1-2 and "
                  f"20 closed-form bundles, failures={failures + closed_failures}")


def _f2_two_dim_bundles():
    F2 = PrimeField(2)
    bundles = []
    # abelian algebra, zero actions, nonzero weight
    a = abelian(F2, 2)
    rep = zero_representation(a, 2)
    H = Cochain.from_entries(F2, 2, 2, 2, {((0,), 0): (0, 1), ((1,), 1): (1, 0)})
    from prelie.cochain import check_two_cocycle

    assert check_two_cocycle(a, rep, H).ok
    bundles.append((a, rep, H))
    # nilpotent product e2.e2 = e1 with its regular representation
    b = PreLieAlgebra.build(F2, 2, {(1, 1, 0): 1})
    repb = regular_representation(b)
    d2 = coboundary_matrix(b, repb, 2)
    vec = next(v for v in dense_kernel(d2) if any(v))
    keys = cochain_keys(2, 2)
    Hb = Cochain(F2, 2, 2, 2, [vec[i * 2:(i + 1) * 2] for i in range(len(keys))])
    assert check_two_cocycle(b, repb, Hb).ok
    bundles.append((b, repb, Hb))
    return F2, bundles


def test_criterion_5_exhaustive_theorem_equivalences():
    """rcw <=> graph <=> MC, and twisted <=> shifted, exhaustive over F2."""
    t0 = time.time()
    F2, bundles = _f2_two_dim_bundles()
    disagreements = 0
    pairs_checked = 0
    singles_checked = 0

    for a, rep, H in bundles:
        all_K = []
        for ix in range(2 ** 4):
            bits = [(ix >> k) & 1 for k in range(4)]
            all_K.append(Matrix(F2, [[bits[0], bits[1]], [bits[2], bits[3]]]))
        verdicts = {}
        for K in all_K:
            direct = check_rcw_reynolds(a, rep, H, K).ok
            graph = check_graph_subalgebra(a, rep, H, K).ok
            mc = check_maurer_cartan(a, rep, H, K).ok
            if not direct == graph == mc:
                disagreements += 1
            verdicts[K] = direct
            singles_checked += 1
        for K in all_K:
            if not verdicts[K]:
                continue
            data = ReynoldsData.build(a, rep, H, K)
            for K2 in all_K:
                twisted = check_twisted_mc(data, K2).ok
                direct_sum = check_rcw_reynolds(a, rep, H, K + K2).ok
                if twisted != direct_sum:
                    disagreements += 1
                pairs_checked += 1

    elapsed = time.time() - t0
    ok = disagreements == 0 and elapsed < 60.0
    report(5, ok, f"{singles_checked} operators and {pairs_checked} twisted "
                  f"pairs over F2, {disagreements} disagreements, "
                  f"{elapsed:.1f}s (< 60s)")


def test_criterion_6_construction_reverification():
    """Every construction re-checks its postcondition on >= 50 random bundles."""
    rng = random.Random(31337)
    count = 0
    invertible_count = 0
    gauge_nontrivial = 0
    shift_nontrivial = 0

    while count < 50:
        data = random_reynolds_data(rng, max_dim=3)
        a, rep, H, K = data.algebra, data.rep, data.cocycle, data.operator

        semidirect(a, rep, H)          # re-verified pre-Lie internally
        induced_product(data)          # re-verified + morphism property
        ns = ns_from_reynolds(data)    # re-verified axioms + subadjacent match
        back = reynolds_from_ns(ns)    # full verification chain with K = id
        assert back.operator == Matrix.identity(a.field, ns.dim)

        # gauge with a nilpotent B K drawn from the 1-cocycle space;
        # kernel coordinates are (algebra index, module coordinate)-major
        d1 = coboundary_matrix(a, rep, 1)
        m = rep.dim_v
        basis = list(dense_kernel(d1))
        chosen = None
        for v in basis:
            B = Matrix(QQ, [[v[x * m + t] for x in range(a.dim)]
                            for t in range(m)])
            bk = B * K
            if (bk * bk).is_zero():
                chosen = B
                if not bk.is_zero():
                    break
        if chosen is None:
            chosen = Matrix.zero(QQ, m, a.dim)
        if not (chosen * K).is_zero():
            gauge_nontrivial += 1
        gauge_transform(data, Cochain.from_matrix(chosen))

        # shift by a random h with id - hK invertible
        for _ in range(6):
            h = random_cochain(rng, QQ, 1, a.dim, m, -1, 1)
            hk = h.as_matrix() * K
            if (Matrix.identity(QQ, m) - hk).inverse() is not None:
                shift_operator(data, h)
                if not hk.is_zero():
                    shift_nontrivial += 1
                break

        if K.rows == K.cols and K.inverse() is not None:
            ns2 = compatible_ns_from_invertible(data)
            assert ns2.star_tensor() == a.product
            invertible_count += 1
        count += 1

    # weighted operators: derivation round trips
    roundtrips = 0
    rng2 = random.Random(11)
    while roundtrips < 50:
        a = g3_algebra()
        alpha, beta = rng2.randint(-4, 4), rng2.randint(-4, 4)
        D = Matrix(QQ, [[alpha, 0, 0], [0, 2 * beta, 0], [0, 0, beta]])
        lam = QQ(rng2.choice([-2, -1, 1, 2, 3]))
        shifted = D - Matrix.identity(QQ, 3).scale(lam)
        if shifted.inverse() is None:
            continue
        K = reynolds_from_derivation(a, D, lam)
        assert derivation_from_reynolds(a, K, lam) == D
        star_product(a, K, lam)  # all four postconditions re-verified
        roundtrips += 1

    ok = count >= 50 and roundtrips >= 50 and invertible_count >= 10 \
        and gauge_nontrivial >= 5 and shift_nontrivial >= 10
    report(6, ok, f"{count} bundles through all constructions "
                  f"({invertible_count} invertible, {gauge_nontrivial} nontrivial "
                  f"gauges, {shift_nontrivial} nontrivial shifts), "
                  f"{roundtrips} derivation round-trips")


def test_criterion_7_deformation_suite():
    """Cocycle directions pass order t, non-cocycles fail; difference law;
    deterministic rigidity verdicts on the fixed bundles."""
    rng = random.Random(99)
    problems = []

    cocycle_hits = 0
    noncocycle_hits = 0
    attempts = 0
    while (cocycle_hits < 25 or noncocycle_hits < 20) and attempts < 200:
        attempts += 1
        data = random_reynolds_data(rng, max_dim=3)
        n, m = data.algebra.dim, data.rep.dim_v
        d1 = operator_coboundary_matrix(data, 1)
        basis = list(dense_kernel(d1))
        if basis and cocycle_hits < 25:
            K1 = Matrix.zero(QQ, n, m)
            for v in basis:
                K1 = K1 + Matrix(QQ, [[v[u * n + t] for u in range(m)]
                                      for t in range(n)]).scale(QQ(rng.randint(-2, 2)))
            rep_t1 = check_linear_deformation(data, K1).parts["order_t1"]
            if not rep_t1.ok:
                problems.append("cocycle direction rejected")
            cocycle_hits += 1
        if noncocycle_hits < 20:  # some bundles have no non-cocycles at all
            for _ in range(4):
                K1 = Matrix(QQ, [[QQ(rng.randint(-2, 2)) for _ in range(m)]
                                 for _ in range(n)])
                if not is_cocycle(data, K1):
                    if check_linear_deformation(data, K1).parts["order_t1"].ok:
                        problems.append("non-cocycle accepted at order t")
                    noncocycle_hits += 1
                    break

    diff_hits = 0
    for _ in range(20):
        data = random_reynolds_data(rng, max_dim=3)
        n, m = data.algebra.dim, data.rep.dim_v
        x = tuple(QQ(rng.randint(-2, 2)) for _ in range(n))
        K1 = Matrix(QQ, [[QQ(rng.randint(-2, 2)) for _ in range(m)]
                         for _ in range(n)])
        K1p = K1 - element_coboundary(data, x)
        if (K1 - K1p) != element_coboundary(data, x):
            problems.append("difference law failed")
        diff_hits += 1

    # deterministic rigidity verdicts on the two finite-field fixtures
    F2 = PrimeField(2)
    a = PreLieAlgebra.build(F2, 3, {(2, 2, 1): 1})
    rep = regular_representation(a)
    H = Cochain.from_entries(F2, 2, 3, 3, {((2,), 2): (0, 0, 1)})
    g3fix = ReynoldsData.build(a, rep, H, Matrix(F2, [[1, 0, 0], [0, 0, 0],
                                                      [0, 0, 0]]))
    r1 = rigidity_probe(g3fix)
    r1b = rigidity_probe(g3fix)
    if r1 != r1b:
        problems.append("rigidity probe nondeterministic")
    if (r1.cocycle_count, r1.nijenhuis_count, r1.image_count,
            r1.criterion_holds) != (512, 8, 1, False):
        problems.append(f"unexpected rigidity verdict {r1}")

    ab = abelian(F2, 1)
    dim1 = ReynoldsData.build(ab, regular_representation(ab),
                              Cochain.zero(F2, 2, 1, 1), Matrix.identity(F2, 1))
    r2 = rigidity_probe(dim1)
    if (r2.cocycle_count, r2.nijenhuis_count, r2.image_count,
            r2.criterion_holds) != (2, 2, 1, False):
        problems.append(f"unexpected dim-1 verdict {r2}")

    ok = not problems and cocycle_hits >= 25 and noncocycle_hits >= 20 \
        and diff_hits == 20
    report(7, ok, f"{cocycle_hits} cocycle and {noncocycle_hits} non-cocycle "
                  f"directions, {diff_hits} difference-law instances, rigidity "
                  f"verdicts frozen; problems={problems}")


def test_criterion_8_cli_determinism():
    """Byte-identical CLI reruns on the corpus."""
    import io
    import json
    from contextlib import redirect_stderr, redirect_stdout

    from prelie.cli import main

    def run(*args):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(args))
        return code, out.getvalue()

    commands = [
        ("check", "prelie", str(CORPUS / "empty-product.json")),
        ("check", "reynolds", str(CORPUS / "g3-k-rowzero.json")),
        ("check", "cocycle", str(CORPUS / "g3.json")),
        ("check", "mc", str(CORPUS / "g3-k-rowzero.json")),
        ("check", "ns", str(CORPUS / "ns2.json")),
        ("check", "ns", str(CORPUS / "ns3.json")),
        ("check", "nijenhuis", str(CORPUS / "nijenhuis2.json")),
        ("check", "nijenhuis", str(CORPUS / "nijenhuis3.json")),
        ("cohomology", "--of", "operator", "--degree", "1",
         str(CORPUS / "g3-k-e11.json")),
        ("cohomology", "--of", "algebra", "--degree", "1",
         str(CORPUS / "g3.json")),
        ("construct", "semidirect", str(CORPUS / "g3.json")),
        ("construct", "induced", str(CORPUS / "g3-k-rowzero.json")),
        ("construct", "ns-from-nijenhuis", str(CORPUS / "nijenhuis2.json")),
        ("construct", "ns-from-nijenhuis", str(CORPUS / "nijenhuis3.json")),
        ("construct", "ns-from-reynolds", str(CORPUS / "g3-k-rowzero.json")),
        ("construct", "reynolds-from-ns", str(CORPUS / "ns2.json")),
        ("construct", "star", str(CORPUS / "weighted-star.json")),
        ("construct", "gauge", str(CORPUS / "g3-gauge-shift.json")),
        ("construct", "shift", str(CORPUS / "g3-gauge-shift.json")),
        ("construct", "compatible-ns", str(CORPUS / "g3-k-invertible.json")),
        ("construct", "deformed-product", str(CORPUS / "nijenhuis2.json")),
        ("check", "weighted", str(CORPUS / "weighted-star.json")),
        ("check", "d-reynolds", str(CORPUS / "unital-d-reynolds.json")),
        ("check", "morphism", str(CORPUS / "morphism-identity.json")),
        ("check", "rep", str(CORPUS / "g3.json")),
        ("check", "reynolds", str(CORPUS / "g3-k-invertible.json")),
        ("deform", "rigidity", "--bundle", str(CORPUS / "g3-f2-e11.json")),
        ("deform", "nijenhuis", "--bundle", str(CORPUS / "g3-f2-e11.json")),
        ("deform", "rigidity", "--bundle", str(CORPUS / "dim1-abelian-f2.json")),
        ("search", "--predicate", "rcw-reynolds", "--bundle",
         str(CORPUS / "g3.json"), "--field", "f2", "--shape", "3x3"),
        ("dk-consistency", str(CORPUS / "g3-k-rowzero.json"), "--degree", "1"),
        ("mc-check", str(CORPUS / "g3-k-rowzero.json")),
    ]
    mismatches = []
    for args in commands:
        c1, o1 = run(*args)
        c2, o2 = run(*args)
        if (c1, o1) != (c2, o2):
            mismatches.append(args)

    ok = not mismatches
    report(8, ok, f"{len(commands)} corpus commands re-run byte-identically; "
                  f"mismatches={mismatches}")
