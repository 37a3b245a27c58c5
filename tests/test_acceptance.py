"""End-to-end acceptance suite.

Each criterion prints exactly one "[criterion N] PASS/FAIL" line directly
on the terminal (bypassing capture), plus indented notes where a result
needs recording.  Heavy shared work lives in the oracle_grid fixture.
"""

import json
import time

import mpmath
import pytest

import expected_tables
import helpers
from conftest import GRID_PAIRS
from igraphjac import (
    jacobian_via_companion,
    mahler_constant,
    mahler_integral,
    normalize,
    tree_count_resultant,
)
from igraphjac.asymptotics import asymptotic_ratio
from igraphjac.igraph import GraphParams
from igraphjac.cli import EXIT_OK, main


def announce(capsys, num, ok):
    with capsys.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}")


def note(capsys, text):
    with capsys.disabled():
        print(f"    note: {text}")


def checked(capsys, num, body):
    try:
        body()
    except BaseException:
        announce(capsys, num, False)
        raise
    announce(capsys, num, True)


def cli_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line]


def test_criterion_1_jacobian_table_23(capsys):
    """Companion-route CLI reproduction of the (2,3) table, n = 4..35."""

    def body():
        started = time.monotonic()
        code, records = cli_json(
            capsys,
            ["jacobian", "--n", "4..35", "--k", "2", "--l", "3",
             "--method", "companion", "--json"],
        )
        elapsed = time.monotonic() - started
        assert code == EXIT_OK
        assert len(records) == 32
        for rec in records:
            n = rec["params"]["n"]
            torsion, printed_tau = expected_tables.JAC_23[n]
            got = tuple(int(d) for d in rec["torsion"])
            assert got == helpers.canonical_invariant_factors(torsion)
            assert rec["free_rank"] == 1
            if n in expected_tables.TAU_COLUMN_TYPOS_23:
                # the published tau column contradicts its own torsion
                # factors here; the factors (confirmed independently) win
                assert int(rec["tau"]) == expected_tables.TAU_COLUMN_TYPOS_23[n]
            else:
                assert int(rec["tau"]) == printed_tau
        assert elapsed < 300
        note(capsys, f"32 rows in {elapsed:.2f}s; published tau column "
                     "carries a one-digit typo at n=24 (see decisions ledger)")

    checked(capsys, 1, body)


def test_criterion_2_jacobian_table_34(capsys):
    """CLI reproduction of the (3,4) table, n = 5..25."""

    def body():
        code, records = cli_json(
            capsys,
            ["jacobian", "--n", "5..25", "--k", "3", "--l", "4", "--json"],
        )
        assert code == EXIT_OK
        assert len(records) == 21
        for rec in records:
            n = rec["params"]["n"]
            torsion, printed_tau = expected_tables.JAC_34[n]
            got = tuple(int(d) for d in rec["torsion"])
            assert got == helpers.canonical_invariant_factors(torsion)
            assert int(rec["tau"]) == printed_tau
        # the published n=20 basis is not a divisibility chain; pin its
        # canonical form explicitly
        assert helpers.canonical_invariant_factors((8, 12, 120, 79080, 79080)) == (
            4, 24, 120, 79080, 79080,
        )

    checked(capsys, 2, body)


def test_criterion_3_route_equivalence(capsys, oracle_grid):
    """Companion and Laplacian Smith pipelines agree on the whole grid."""

    def body():
        assert len(oracle_grid) == 333  # 9 pairs, n = 3..40, minus loop cases
        assert {(inst.raw[1], inst.raw[2]) for inst in oracle_grid} == set(GRID_PAIRS)
        for inst in oracle_grid:
            assert inst.via_companion == inst.via_laplacian
            assert inst.via_companion.free_rank == 1

    checked(capsys, 3, body)


def test_criterion_4_tree_count_triple_agreement(capsys, oracle_grid):
    """Kirchhoff, resultant and Chebyshev counts coincide as plain ints, and
    the count obeys the divisibility and cube lower-bound invariants."""

    def body():
        for inst in oracle_grid:
            counts = (inst.kirchhoff, inst.resultant, inst.chebyshev)
            assert [type(c) for c in counts] == [int] * 3, inst.raw
            tau = inst.kirchhoff
            assert inst.resultant == tau
            assert inst.chebyshev == tau  # proved inside at 256 bits
            n = inst.params.n
            assert tau % n == 0
            assert tau >= n**3
            assert inst.via_companion.order == tau

    checked(capsys, 4, body)


def test_criterion_5_square_decomposition(capsys, oracle_grid):
    """tau = multiplier * n * a^2 exactly, multiplier 6 exactly on even n
    with two odd steps; the diagnostic names the supported labeling."""

    def body():
        samples = []
        for inst in oracle_grid:
            p, dec = inst.params, inst.decomposition
            assert dec.multiplier * p.n * dec.a * dec.a == inst.resultant
            expected = 6 if (p.n % 2 == 0 and p.k % 2 and p.l % 2) else 1
            assert dec.multiplier == expected
            samples.append((p, dec))
        report = helpers.sixfold_rule_report(samples)
        assert report["rule"] == "multiplier 6 iff n even and k+l even"
        assert report["odd_n_conflicts"] == []
        assert report["six_with_even_sum"] > 0
        assert report["six_with_odd_sum"] == 0
        note(capsys, f"data supports: {report['rule']} "
                     "(the even-sum labeling of the published statement, "
                     "not the swapped labeling in the published proof list)")

    checked(capsys, 5, body)


def test_criterion_6_growth_constant_table(capsys):
    """All printed growth-constant cells reproduced at 4 decimals, and the
    root-product and integral routes agree within summed error bounds."""

    def body():
        assert len(expected_tables.GROWTH_4DP) == 28
        strict_misses = []
        for (k, l), printed in sorted(expected_tables.GROWTH_4DP.items()):
            constant = mahler_constant(k, l)
            integral = mahler_integral(k, l)
            with mpmath.workprec(96):
                gap = abs(constant.value - integral.value)
                assert gap <= constant.error_bound + integral.error_bound
                target = int(printed.replace(".", ""))
                trunc = int(mpmath.floor(constant.value * 10000))
                rounded = int(mpmath.floor(constant.value * 10000 + mpmath.mpf("0.5")))
                # the published grid mixes truncation (27 cells) with one
                # rounded cell, so either rendering counts as agreement
                assert target in (trunc, rounded)
                if abs(constant.value - mpmath.mpf(printed)) > mpmath.mpf("5e-5"):
                    strict_misses.append((k, l))
        note(capsys, f"28 published cells (not 25) all match at 4 decimals; "
                     f"{len(strict_misses)} are truncations lying just past "
                     "the naive half-ulp window (see decisions ledger)")

    checked(capsys, 6, body)


def test_criterion_7_degree_16_polynomial(capsys):
    """The (2,3) growth constant satisfies its published minimal polynomial."""

    def body():
        poly = expected_tables.A23_MIN_POLY
        constant = mahler_constant(2, 3)
        with mpmath.workprec(300):
            residual = abs(helpers.evaluate(poly, constant.value))
            assert residual < mpmath.mpf("1e-10")
            # palindromic degree 16: also a sanity root count
            assert len(expected_tables.A23_MIN_POLY) == 17

    checked(capsys, 7, body)


def test_criterion_8_rank_13_stress_case(capsys):
    """I(170,3,4): full-rank group, order equals the resultant count, and
    both published large primes divide the last invariant factor."""

    def body():
        started = time.monotonic()
        p = normalize(expected_tables.RANK13_N, 3, 4)
        group = jacobian_via_companion(p)
        tau = tree_count_resultant(p)
        elapsed = time.monotonic() - started
        assert group.rank == 13 == 2 * p.k + 2 * p.l - 1
        assert group.order == tau
        largest = group.torsion[-1]
        assert largest % expected_tables.RANK13_P == 0
        assert largest % expected_tables.RANK13_Q == 0
        assert group.torsion == expected_tables.RANK13_TORSION
        assert tau == expected_tables.RANK13_TAU
        assert elapsed < 120
        note(capsys, f"rank 13 confirmed in {elapsed:.2f}s")

    checked(capsys, 8, body)


def test_criterion_9_asymptotic_ratios(capsys):
    """Finite-n proxies for the growth law tau ~ n A^n / (k^2 + l^2)."""

    def body():
        # closed-form family: errors decay like A^(-2n)
        p = normalize(20, 1, 1)
        ratio = asymptotic_ratio(p, tree_count_resultant(p), mahler_constant(1, 1))
        assert abs(ratio.value - 1) < mpmath.mpf("1e-10")

        # published exact count at the far end of the (2,3) table
        p = normalize(35, 2, 3)
        published = expected_tables.JAC_23[35][1]
        ratio = asymptotic_ratio(p, published, mahler_constant(2, 3))
        assert abs(ratio.value - 1) < mpmath.mpf("1e-2")

        # deviation strictly shrinks along n = 10, 20, 40 for (1,2)
        constant = mahler_constant(1, 2)
        deviations = []
        for n in (10, 20, 40):
            p = normalize(n, 1, 2)
            r = asymptotic_ratio(p, tree_count_resultant(p), constant)
            deviations.append(abs(r.value - 1))
        assert deviations[0] > deviations[1] > deviations[2]

    checked(capsys, 9, body)


def test_criterion_10_rank_bound_probe(capsys):
    """The (17,2,3) group's generator count against the 2k+2l-1 bound.

    Whether the bound is attained there is left open: the test only pins
    the window and records the observed value.
    """

    def body():
        p = GraphParams(17, 2, 3)
        group = jacobian_via_companion(p)
        assert 2 <= group.rank <= 2 * p.k + 2 * p.l - 1 == 9
        attained = "attained" if group.rank == 9 else "not attained"
        note(capsys, f"observed rank {group.rank} of bound 9 at n=17 "
                     f"({attained} here; the published row has 8 factors "
                     "while the bound-sharpness discussion suggests 9)")

    checked(capsys, 10, body)
