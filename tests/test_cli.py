import json
import os

import mpmath
import pytest

from igraphjac import DENSE_CEILING, cli, treecount, jacobian_via_laplacian, tree_count_kirchhoff
from igraphjac.errors import InternalInconsistency
from igraphjac.igraph import GraphParams
from igraphjac.jacobian import AbelianGroup
from igraphjac.treecount import ROUNDING_GUARD
from igraphjac.cli import EXIT_INCONSISTENT, EXIT_OK, EXIT_PRECISION, EXIT_USAGE, main

import expected_tables
import helpers


def run_json_lines(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line]


class TestJacobianCommand:
    def test_single_instance_json(self, capsys):
        code, records = run_json_lines(
            capsys, ["jacobian", "--n", "4", "--k", "2", "--l", "3", "--json"]
        )
        assert code == EXIT_OK
        (rec,) = records
        assert rec["params"] == {"n": 4, "k": 2, "l": 3}
        assert rec["torsion"] == ["7", "28"]
        assert rec["free_rank"] == 1
        assert rec["tau"] == "196"
        assert rec["checks"] == {"rank_lower": True, "rank_upper": True}

    def test_range_with_skips(self, capsys):
        code, records = run_json_lines(
            capsys, ["jacobian", "--n", "3..6", "--k", "3", "--l", "4", "--json"]
        )
        assert code == EXIT_OK
        by_n = {rec["params"]["n"]: rec for rec in records}
        assert by_n[3]["error"] == "LoopError"
        assert by_n[4]["error"] == "LoopError"
        assert "torsion" in by_n[5] and "torsion" in by_n[6]

    def test_disconnected_skip_reports_components(self, capsys):
        code, records = run_json_lines(
            capsys, ["jacobian", "--n", "4..5", "--k", "2", "--l", "2", "--json"]
        )
        assert code == EXIT_OK
        by_n = {rec["params"]["n"]: rec for rec in records}
        assert by_n[4]["error"] == "DisconnectedError"
        assert by_n[4]["components"] == 2
        # gcd(k, l) cancels for n = 5: the graph is the (5,1,1) prism
        assert by_n[5]["torsion"]

    def test_methods_agree(self, capsys):
        code, records = run_json_lines(
            capsys,
            ["jacobian", "--n", "10..14", "--k", "2", "--l", "3", "--method", "both", "--json"],
        )
        assert code == EXIT_OK
        for rec in records:
            assert rec["methods_used"] == ["companion", "laplacian"]

    def test_disagreeing_routes_give_error_records(self, capsys, monkeypatch):
        companion = cli.jacobian_via_companion

        def off_by_n(p):
            g = companion(p)
            return AbelianGroup(g.torsion[:-1] + (g.torsion[-1] * p.n,), g.free_rank)

        monkeypatch.setattr(cli, "jacobian_via_companion", off_by_n)
        code, records = run_json_lines(
            capsys,
            ["jacobian", "--n", "10..12", "--k", "2", "--l", "3", "--method", "both", "--json"],
        )
        assert code == EXIT_INCONSISTENT
        assert [rec["params"]["n"] for rec in records] == [10, 11, 12]
        for rec in records:
            assert rec["error"] == "InternalInconsistency"
            assert rec["detail"].startswith("routes disagree: ")
            p = GraphParams(rec["params"]["n"], 2, 3)
            for name, route in (("companion", off_by_n), ("laplacian", jacobian_via_laplacian)):
                assert f"{name}={route(p)}" in rec["detail"]

    @pytest.mark.parametrize(
        "torsion, failed",
        [((2,) * 6, "rank_upper"), ((5,), "rank_lower")],
        ids=["rank_upper", "rank_lower"],
    )
    def test_rank_outside_the_bounds_fails_its_check(self, capsys, monkeypatch, torsion, failed):
        # I(7,1,2) allows 2 to 2k + 2l - 1 = 5 torsion generators
        monkeypatch.setattr(cli, "jacobian_via_companion", lambda p: AbelianGroup(torsion, 1))
        code, [rec] = run_json_lines(
            capsys, ["jacobian", "--n", "7", "--k", "1", "--l", "2", "--method", "companion", "--json"]
        )
        assert code == EXIT_INCONSISTENT
        assert "error" not in rec
        assert rec["torsion"] == [str(d) for d in torsion]
        assert rec["checks"] == {"rank_lower": failed != "rank_lower", "rank_upper": failed != "rank_upper"}

    def test_text_mode(self, capsys):
        code = main(["jacobian", "--n", "5", "--k", "1", "--l", "2"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "I(5,1,2)" in out
        assert "[2, 10, 10, 10]" in out


class TestTreesCommand:
    def test_all_methods(self, capsys):
        code, records = run_json_lines(
            capsys, ["trees", "--n", "5", "--k", "1", "--l", "2", "--method", "all", "--json"]
        )
        assert code == EXIT_OK
        (rec,) = records
        assert rec["tau"] == "2000"
        assert rec["a"] == "20"
        assert rec["multiplier"] == 1
        assert sorted(rec["methods_used"]) == ["chebyshev", "kirchhoff", "resultant"]
        assert rec["checks"] == {"divisible_by_n": True, "cube_bound": True}

    def test_multiplier_six_case(self, capsys):
        code, records = run_json_lines(
            capsys, ["trees", "--n", "4", "--k", "1", "--l", "1", "--json"]
        )
        assert code == EXIT_OK
        assert records[0]["multiplier"] == 6
        assert records[0]["tau"] == "384"

    def test_auto_switches_to_resultant_above_gate(self, capsys):
        code, records = run_json_lines(
            capsys, ["trees", "--n", "100", "--k", "2", "--l", "3", "--json"]
        )
        assert code == EXIT_OK
        assert records[0]["methods_used"] == ["resultant"]
        assert int(records[0]["tau"]) % 100 == 0

    def test_sweep_goes_on_past_failing_graphs(self, capsys):
        # 32 bits stop sufficing for the Chebyshev count of (2,3) near n = 39
        argv = ["trees", "--n", "30..45", "--k", "2", "--l", "3",
                "--method", "chebyshev", "--precision", "32", "--json"]
        code, records = run_json_lines(capsys, argv)
        assert code == EXIT_PRECISION
        assert [rec["params"]["n"] for rec in records] == list(range(30, 46))
        assert "tau" in records[0]
        assert records[-1]["error"] == "PrecisionExhausted"
        # a single graph keeps its exit code and gets the same record
        code, (rec,) = run_json_lines(capsys, argv[:2] + ["45"] + argv[3:])
        assert code == EXIT_PRECISION
        assert rec["error"] == "PrecisionExhausted"

    def test_precision_record_names_the_rounding_guard(self, capsys, monkeypatch):
        # the detail states the test that failed, not root-noise digits; roots
        # moved 2^-40 off the real axis give the count an imaginary part far
        # above the guard while its magnitude keeps plenty of headroom
        roots = treecount._quotient_roots
        monkeypatch.setattr(
            treecount, "_quotient_roots",
            lambda k, l, bits: [x + mpmath.mpc(0, 2**-40) for x in roots(k, l, bits)],
        )
        argv = ["trees", "--n", "60", "--k", "2", "--l", "3", "--method", "chebyshev", "--json"]
        code, (rec,) = run_json_lines(capsys, argv)
        assert code == EXIT_PRECISION
        assert rec == {
            "params": {"n": 60, "k": 2, "l": 3},
            "error": "PrecisionExhausted",
            "detail": f"count is not within {ROUNDING_GUARD} of an integer at 256 bits; "
                      "increase precision_bits",
        }

    def test_inconsistency_outranks_precision_failure(self, capsys, monkeypatch):
        chebyshev = cli.tree_count_chebyshev

        def broken_at_31(p, precision_bits):
            if p.n == 31:
                raise InternalInconsistency("injected")
            return chebyshev(p, precision_bits=precision_bits)

        monkeypatch.setattr(cli, "tree_count_chebyshev", broken_at_31)
        code, records = run_json_lines(
            capsys,
            ["trees", "--n", "30..45", "--k", "2", "--l", "3",
             "--method", "chebyshev", "--precision", "32", "--json"],
        )
        assert code == EXIT_INCONSISTENT
        assert records[1]["error"] == "InternalInconsistency"
        assert len(records) == 16

    def test_disagreeing_routes_give_error_records(self, capsys, monkeypatch):
        resultant = cli.tree_count_resultant
        monkeypatch.setattr(cli, "tree_count_resultant", lambda p: resultant(p) + p.n)
        code, records = run_json_lines(
            capsys,
            ["trees", "--n", "10..12", "--k", "2", "--l", "3", "--method", "all", "--json"],
        )
        assert code == EXIT_INCONSISTENT
        assert [rec["params"]["n"] for rec in records] == [10, 11, 12]
        for rec in records:
            assert rec["error"] == "InternalInconsistency"
            n = rec["params"]["n"]
            tau = tree_count_kirchhoff(GraphParams(n, 2, 3))
            assert rec["detail"] == (
                f"routes disagree: chebyshev={tau}, kirchhoff={tau}, resultant={tau + n}"
            )

    def test_count_that_is_not_a_square_gives_error_records(self, capsys, monkeypatch):
        # 2 tau = multiplier * n * 2a^2 fails the square split of the summary
        resultant = cli.tree_count_resultant
        monkeypatch.setattr(cli, "tree_count_resultant", lambda p: 2 * resultant(p))
        code, records = run_json_lines(
            capsys,
            ["trees", "--n", "10..12", "--k", "2", "--l", "3", "--method", "resultant", "--json"],
        )
        assert code == EXIT_INCONSISTENT
        assert [rec["params"]["n"] for rec in records] == [10, 11, 12]
        assert all(rec["error"] == "NotASquare" for rec in records)

    def test_count_below_the_cube_fails_its_check(self, capsys, monkeypatch):
        # 44 = 11 * 2^2 splits as a square, but 44 < 11^3
        monkeypatch.setattr(cli, "tree_count_resultant", lambda p: 44)
        code, [rec] = run_json_lines(
            capsys, ["trees", "--n", "11", "--k", "2", "--l", "3", "--method", "resultant", "--json"]
        )
        assert code == EXIT_INCONSISTENT
        assert (rec["tau"], rec["a"], rec["multiplier"]) == ("44", "2", 1)
        assert rec["checks"] == {"divisible_by_n": True, "cube_bound": False}

    def test_dense_route_above_ceiling_is_usage_error(self, capsys):
        # the whole command fails up front: no sweep stops halfway
        code = main(["trees", "--n", "395..405", "--k", "2", "--l", "3",
                     "--method", "kirchhoff", "--json"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert f"capped at n = {DENSE_CEILING}" in captured.err

    def test_counts_beyond_default_digit_limit(self, capsys):
        # tau(I(8000,1,1)) has 4580 digits, past Python's 4300-digit default
        code, (rec,) = run_json_lines(capsys, ["trees", "--n", "8000", "--k", "1", "--l", "1", "--json"])
        assert code == EXIT_OK
        assert len(rec["tau"]) == 4580

    def test_published_row(self, capsys):
        code, records = run_json_lines(
            capsys, ["trees", "--n", "25", "--k", "3", "--l", "4", "--json"]
        )
        assert code == EXIT_OK
        assert records[0]["tau"] == "312061332000250000"


class TestAsymptoticCommand:
    def test_routes_agree(self, capsys):
        code, records = run_json_lines(
            capsys, ["asymptotic", "--k", "1", "--l", "1", "--precision", "128", "--json"]
        )
        assert code == EXIT_OK
        (rec,) = records
        assert rec["agree"] is True
        assert rec["constant"].startswith("3.7320508")
        assert rec["integral"].startswith("3.7320508")

    def test_digits_follow_error_bounds_at_64_bits(self, capsys):
        argv = ["asymptotic", "--k", "2", "--l", "3", "--precision", "64"]
        assert main(argv) == EXIT_OK
        text = capsys.readouterr().out
        # the published cell is truncated, not rounded to 4.842
        assert "4-decimal value: 4.8419\n" in text
        code, (rec,) = run_json_lines(capsys, argv + ["--json"])
        assert code == EXIT_OK
        assert rec["constant"] == "4.841992943028164"
        assert f"= {rec['constant']}  (err <= {rec['constant_error_bound']})" in text
        for key in ("constant", "integral"):
            digits = len(rec[key].replace(".", ""))
            last_place = 10.0 ** (1 - digits)  # both values lie in [1, 10)
            assert last_place >= float(rec[key + "_error_bound"]) > last_place / 100

    @pytest.mark.parametrize("k,l", [(9, 14), (11, 18), (20, 21), (30, 31)])
    def test_wide_steps_agree(self, capsys, k, l):
        # cells whose integrand oscillates k + l times per period
        code, (rec,) = run_json_lines(
            capsys,
            ["asymptotic", "--k", str(k), "--l", str(l), "--precision", "64", "--json"],
        )
        assert code == EXIT_OK
        assert rec["agree"] is True

    @pytest.mark.parametrize(
        "k,l,bits,line",
        [
            (1, 1, 96, '{"k": 1, "l": 1, "precision_bits": 96, "constant": "3.7320508075688772935274463", "constant_error_bound": "1.2059e-26", "integral": "3.7320508075688773", "integral_error_bound": "1.1628e-17", "agree": true}'),
            (1, 2, 64, '{"k": 1, "l": 2, "precision_bits": 64, "constant": "4.390256884515514", "constant_error_bound": "6.0927e-17", "integral": "4.3902569", "integral_error_bound": "1.5345e-8", "agree": true}'),
            (1, 2, 128, '{"k": 1, "l": 2, "precision_bits": 128, "constant": "4.39025688451551360466360009793798007", "constant_error_bound": "3.3029e-36", "integral": "4.3902568845155136", "integral_error_bound": "6.4365e-18", "agree": true}'),
            (1, 2, 208, '{"k": 1, "l": 2, "precision_bits": 208, "constant": "4.39025688451551360466360009793798006863952482817475390974634", "constant_error_bound": "2.7321e-60", "integral": "4.39025688451551360466360009793798007", "integral_error_bound": "2.2647e-36", "agree": true}'),
            (2, 3, 64, '{"k": 2, "l": 3, "precision_bits": 64, "constant": "4.841992943028164", "constant_error_bound": "6.7196e-17", "integral": "4.84199294", "integral_error_bound": "8.7882e-10", "agree": true}'),
            (2, 3, 128, '{"k": 2, "l": 3, "precision_bits": 128, "constant": "4.84199294302816391024021354567408772", "constant_error_bound": "3.6427e-36", "integral": "4.84199294302816391", "integral_error_bound": "1.7483e-19", "agree": true}'),
            (5, 6, 64, '{"k": 5, "l": 6, "precision_bits": 64, "constant": "5.120150620086312", "constant_error_bound": "7.1056e-17", "integral": "5.12015062", "integral_error_bound": "3.1914e-10", "agree": true}'),
        ],
    )
    def test_growth_grid_records_are_pinned(self, capsys, k, l, bits, line):
        # the benchmark's growth-grid cells, byte for byte as the mpf
        # quadrature kernel printed them
        argv = ["asymptotic", "--k", str(k), "--l", str(l), "--precision", str(bits), "--json"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == line + "\n"

    def test_integral_digits_follow_precision(self, capsys):
        # the integral's bound follows --precision: 32 bits justify a few digits
        code, (rec,) = run_json_lines(
            capsys, ["asymptotic", "--k", "1", "--l", "1", "--precision", "32", "--json"]
        )
        assert code == EXIT_OK
        assert rec["agree"] is True
        assert len(rec["integral"].replace(".", "")) <= 10
        assert float(rec["integral_error_bound"]) > 1e-10
        assert rec["integral"].startswith("3.73")

    def test_ratio_probe(self, capsys):
        code, records = run_json_lines(
            capsys,
            [
                "asymptotic", "--k", "1", "--l", "2",
                "--precision", "128", "--ratio-at", "20", "--json",
            ],
        )
        assert code == EXIT_OK
        ratio = float(records[0]["ratio_at"]["ratio"])
        assert abs(ratio - 1) < 1e-2

    def test_ratio_at_that_changes_the_steps_is_rejected(self, capsys, monkeypatch):
        # 5 = 1 mod 4: I(4,1,5) is I(4,1,1), another family than A(1,5)
        def no_roots(*args, **kwargs):
            raise AssertionError("rooted before checking --ratio-at")

        monkeypatch.setattr(cli, "mahler_constant", no_roots)
        code = main(["asymptotic", "--k", "1", "--l", "5", "--ratio-at", "4", "--json"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "I(4,1,1)" in captured.err

    def test_ratio_at_with_swapped_steps(self, capsys):
        code, (rec,) = run_json_lines(
            capsys, ["asymptotic", "--k", "3", "--l", "2", "--ratio-at", "20", "--json"]
        )
        assert code == EXIT_OK
        assert (rec["k"], rec["l"]) == (3, 2)
        assert rec["ratio_at"]["n"] == 20
        assert rec["ratio_at"]["tau"] == str(tree_count_kirchhoff(GraphParams(20, 2, 3)))


class TestTableCommand:
    def test_jac23_json_matches_published(self, capsys):
        code, records = run_json_lines(capsys, ["table", "--which", "jac23", "--format", "json"])
        assert code == EXIT_OK
        assert len(records) == 32
        by_n = {rec["n"]: rec for rec in records}
        assert by_n[13]["torsion"] == ["25", "325", "325", "325"]
        for n, (torsion, tau) in expected_tables.JAC_23.items():
            if n in expected_tables.TAU_COLUMN_TYPOS_23:
                tau = expected_tables.TAU_COLUMN_TYPOS_23[n]
            assert int(by_n[n]["tau"]) == tau
            got = tuple(int(d) for d in by_n[n]["torsion"])
            assert got == helpers.canonical_invariant_factors(torsion)

    def test_a_grid_text(self, capsys):
        code = main(["table", "--which", "A"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "3.7320" in out
        assert "5.1691" in out
        # non-coprime cells print a dash
        assert "-" in out

    def test_a_csv_truncated_cells(self, capsys):
        code = main(["table", "--which", "A", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "k,l,A"
        cells = {}
        for line in lines[1:]:
            k, l, a = line.split(",")
            cells[(int(k), int(l))] = a
        # the command truncates uniformly; the published grid truncates
        # everywhere except (5,7), which was rounded up from 5.13459...
        expected = dict(expected_tables.GROWTH_4DP)
        expected[(5, 7)] = "5.1345"
        assert cells == expected

    def test_byte_stable_output(self, capsys):
        main(["table", "--which", "jac34", "--format", "json"])
        first = capsys.readouterr().out
        main(["table", "--which", "jac34", "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code = main(["table", "--which", "jac23", "--format", "csv", "--out", str(target)])
        capsys.readouterr()
        assert code == EXIT_OK
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "n,torsion,tau"
        assert len(lines) == 33

    def test_jac34_csv_and_text_rows(self, capsys):
        assert main(["table", "--which", "jac34", "--format", "csv"]) == EXIT_OK
        csv_lines = capsys.readouterr().out.splitlines()
        assert main(["table", "--which", "jac34"]) == EXIT_OK
        text_lines = capsys.readouterr().out.splitlines()
        assert csv_lines[0] == "n,torsion,tau"
        assert len(csv_lines) - 1 == len(text_lines) == len(expected_tables.JAC_34)
        tau_columns, paddings = set(), []
        for n, csv_line, text_line in zip(sorted(expected_tables.JAC_34), csv_lines[1:], text_lines):
            torsion, tau = expected_tables.JAC_34[n]
            factors = [str(d) for d in helpers.canonical_invariant_factors(torsion)]
            assert csv_line == f"{n},{' '.join(factors)},{tau}"
            group, _, tau_text = text_line.partition("  tau=")
            assert group.rstrip() == f"n={n:>3}  Z^1 + ({', '.join(factors)})"
            assert tau_text == str(tau)
            tau_columns.add(len(group))
            paddings.append(len(group) - len(group.rstrip()))
        # the torsion column is padded to one width, just wide enough for every row
        assert len(tau_columns) == 1
        assert min(paddings) == 0
        assert text_lines[0].startswith("n=  5  Z^1 + (2, 10, 10, 10) ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("rows", [1, 5000])
    def test_failed_out_write_is_usage_error(self, capsys, monkeypatch, rows):
        # a short table fails when the file is closed, a long one in the write
        records = [{"n": 4, "torsion": ["7", "28"], "tau": "196"}] * rows
        monkeypatch.setattr(cli, "_table_jac_records", lambda *a: records)
        code = main(["table", "--which", "jac23", "--format", "json", "--out", "/dev/full"])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "cannot write --out" in captured.err

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # the path is checked before any record is computed
        monkeypatch.setattr(cli, "_table_jac_records", lambda *a: pytest.fail("computed records"))
        target = tmp_path / "missing" / "t.csv"
        code = main(["table", "--which", "jac23", "--format", "csv", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert "cannot write --out" in captured.err


class TestErrorsAndUsage:
    def test_bad_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["jacobian", "--n", "4..x", "--k", "1", "--l", "2"])
        assert info.value.code == EXIT_USAGE

    def test_empty_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["trees", "--n", "9..4", "--k", "1", "--l", "2"])
        assert info.value.code == EXIT_USAGE

    def test_range_is_not_materialised(self):
        # a list of 10^12 ints would not fit in memory; never iterate this
        values = cli._parse_range("3..1000000000002")
        assert len(values) == 10**12
        assert values[-1] == 1000000000002
        assert cli._parse_range("7") == range(7, 8)

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["asymptotic", "--k", "2", "--l", "3", "--precision", "16"],
        ["trees", "--n", "5..6", "--k", "2", "--l", "3", "--method", "chebyshev", "--precision", "8"],
        ["trees", "--n", "5", "--k", "2", "--l", "3", "--precision", "many"],
    ], ids=["asymptotic-16", "trees-8", "trees-not-int"])
    def test_bad_precision_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        captured = capsys.readouterr()
        assert info.value.code == EXIT_USAGE
        assert captured.out == ""
        assert "--precision" in captured.err

    def test_invalid_params_exit_code(self, capsys):
        # n below 3 is rejected during normalization, not argparse
        code = main(["asymptotic", "--k", "0", "--l", "2"])
        assert code == EXIT_USAGE

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert "igraphjac" in capsys.readouterr().out
