from fractions import Fraction as F

import pytest

from ifsemigroups import format_cayley, ifs_eq, library_entry, parse_cayley, parse_ifs
from ifsemigroups.cli import MACHINE_HEADER, main

WORKED_IFS = "0 0.3 0.4\n1 0.1 0.25\n2 0.5 0.3\n"


@pytest.fixture
def worked_file(tmp_path):
    p = tmp_path / "example.ifs"
    p.write_text(WORKED_IFS)
    return str(p)


@pytest.fixture
def null2_file(tmp_path):
    p = tmp_path / "null2.cayley"
    p.write_text("2\n0 0\n0 0\n")
    return str(p)


class TestClassify:
    def test_null2(self, null2_file, capsys):
        assert main(["classify", null2_file]) == 0
        out = capsys.readouterr().out
        assert "regular: no" in out
        assert "intra-regular: no" in out
        assert "archimedean: yes" in out

    def test_left_zero(self, tmp_path, capsys):
        p = tmp_path / "lz.cayley"
        p.write_text("2\n0 0\n1 1\n")
        assert main(["classify", str(p)]) == 0
        out = capsys.readouterr().out
        assert "regular: yes" in out and "group: no" in out

    def test_non_associative_names_the_triple(self, tmp_path, capsys):
        p = tmp_path / "bad.cayley"
        p.write_text("2\n1 1\n0 0\n")
        assert main(["classify", str(p)]) == 2
        err = capsys.readouterr().err
        assert "(0, 0, 0)" in err

    def test_missing_file(self, capsys):
        assert main(["classify", "/nonexistent/path"]) == 2

    def test_unreadable_file_names_reason_and_path(self, tmp_path, capsys):
        missing = tmp_path / "missing.cayley"
        assert main(["classify", str(missing)]) == 2
        assert capsys.readouterr().err == f"error: No such file or directory: {missing}\n"
        assert main(["classify", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: Is a directory: {tmp_path}\n"


@pytest.mark.parametrize("command, flags", [
    ("classify", []),
    ("transform", ["--beta", "1", "--alpha", "0"]),
], ids=["classify", "transform"])
def test_non_utf8_file_names_reason_and_path(tmp_path, capsys, command, flags):
    p = tmp_path / "latin1.txt"
    p.write_bytes(b"\xff2\n0 0\n0 0\n")
    assert main([command, str(p), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: not UTF-8 (invalid start byte at byte 0): {p}\n"


class TestTransform:
    def test_worked_example_grades(self, worked_file, capsys):
        assert main(["transform", worked_file, "--beta", "0.2", "--alpha", "0.04"]) == 0
        out = capsys.readouterr().out
        assert out == "0 1/10 1/25\n1 3/50 1/100\n2 7/50 1/50\n"
        reparsed = parse_ifs(out)
        assert reparsed.mu == (F(1, 10), F(3, 50), F(7, 50))

    def test_identity_round_trip(self, worked_file, capsys):
        assert main(["transform", worked_file, "--beta", "1", "--alpha", "0"]) == 0
        out = capsys.readouterr().out
        assert ifs_eq(parse_ifs(out), parse_ifs(WORKED_IFS))

    def test_alpha_too_large_reports_bound(self, worked_file, capsys):
        code = main(["transform", worked_file, "--beta", "0.2", "--alpha", "0.06"])
        assert code == 2
        assert "max alpha = 1/20" in capsys.readouterr().err

    def test_carrier_cross_check(self, worked_file, null2_file, capsys):
        code = main(["transform", worked_file, "--beta", "1", "--alpha", "0",
                     "--cayley", null2_file])
        assert code == 2

    def test_negative_index_is_a_one_line_error(self, tmp_path, capsys):
        p = tmp_path / "negative.ifs"
        p.write_text("-1 0.2 0.3\n0 0.5 0.1\n")
        assert main(["transform", str(p), "--beta", "1", "--alpha", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "error: negative element index in '-1 0.2 0.3'\n"

    def test_huge_index_is_a_short_one_line_error(self, tmp_path, capsys):
        # the missing elements are counted, never listed or allocated in full
        p = tmp_path / "sparse.ifs"
        p.write_text("0 0.5 0.1\n1000000000000 0.2 0.3\n")
        assert main(["transform", str(p), "--beta", "1", "--alpha", "0"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 120
        assert err.startswith("error: carrier elements missing from input: [1, 2, 3]")


class TestProduct:
    def test_characteristic_product(self, tmp_path, capsys):
        cay = tmp_path / "sl.cayley"
        cay.write_text("2\n0 0\n0 1\n")
        a = tmp_path / "a.ifs"
        a.write_text("0 1 0\n1 0 1\n")
        assert main(["product", str(cay), str(a), str(a)]) == 0
        out = capsys.readouterr().out
        got = parse_ifs(out)
        assert got.mu == (F(1), F(0)) and got.nu == (F(0), F(1))


class TestCheck:
    def test_fixedpoint_order1(self, capsys):
        assert main(["check", "--theorem", "fixedpoint", "--orders", "1",
                     "--grid-step", "1/2"]) == 0
        out = capsys.readouterr().out
        assert "0 counterexamples" in out

    def test_all_order2(self, capsys):
        code = main(["check", "--orders", "2", "--all", "--grid-step", "1/2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "8 enumerated" in out and "0 counterexamples" in out

    def test_unknown_theorem_lists_ids(self, capsys):
        assert main(["check", "--theorem", "nosuch", "--orders", "1"]) == 2
        err = capsys.readouterr().err
        assert "fixedpoint" in err and "regular_product" in err

    def test_machine_mode_has_versioned_header(self, capsys):
        code = main(["check", "--orders", "1", "--theorem", "fixedpoint",
                     "--grid-step", "1/2", "--machine"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == MACHINE_HEADER
        assert lines[1].startswith("theorem=fixedpoint semigroup=order1/000")
        assert "outcome=verified" in lines[1]

    def test_bad_orders(self, capsys):
        assert main(["check", "--orders", "x"]) == 2
        assert main(["check", "--orders", "5"]) == 2

    @pytest.mark.parametrize("orders", [",", "", ",,"])
    def test_empty_orders_is_a_one_line_error(self, orders, capsys):
        assert main(["check", "--orders", orders]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and "no orders" in err

    def test_random_count_flag(self, capsys):
        code = main(["check", "--orders", "1", "--theorem", "equiv_semiprime",
                     "--grid-step", "1/2", "--random-count", "7", "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        # 3 grid subjects plus 7 seeded randoms on the order-1 semigroup
        assert "subjects=10" in out

    def test_machine_certificate_fields(self, capsys, monkeypatch):
        from fractions import Fraction as FF
        from ifsemigroups import Certificate, VerificationReport
        import ifsemigroups.cli as cli

        cert = Certificate(
            "equiv_left_ideal", "order2/003", ((0, 0), (1, 1)),
            (FF(1, 2), FF(1)), (FF(0), FF(0)),
            beta=FF(1, 4), alpha=FF(0), kind="left_ideal", points=(1, 0),
        )
        fake = VerificationReport(
            "equiv_left_ideal", "order2/003", 1, 5, 0, "counterexample", cert
        )
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: [fake])
        assert main(["check", "--orders", "2", "--all", "--machine"]) == 1
        record = capsys.readouterr().out.splitlines()[1]
        assert "outcome=counterexample" in record
        assert "cert.table=0,0;1,1" in record
        assert "cert.mu_a=1/2,1" in record
        assert "cert.beta=1/4" in record
        assert "cert.points=1,0" in record

    def test_counterexample_outcome_exits_one(self, capsys, monkeypatch):
        # the theorems hold at desk scale, so force the refuted path
        from ifsemigroups import VerificationReport
        import ifsemigroups.cli as cli

        fake = VerificationReport(
            "fixedpoint", "order1/000", 1, 1, 0, "counterexample", None
        )
        monkeypatch.setattr(cli, "run_suite", lambda *a, **k: [fake])
        assert main(["check", "--orders", "1", "--theorem", "fixedpoint"]) == 1
        assert "1 counterexample" in capsys.readouterr().out


class TestEnumerate:
    def test_count_only(self, capsys):
        assert main(["enumerate", "2", "--count-only"]) == 0
        assert capsys.readouterr().out.strip() == "8"

    def test_order1_stream(self, capsys):
        assert main(["enumerate", "1"]) == 0
        assert capsys.readouterr().out == "1\n0\n"

    def test_order_too_large(self, capsys):
        assert main(["enumerate", "4"]) == 2

    @pytest.mark.parametrize("argv", [
        ["enumerate", "0"], ["enumerate", "-1"], ["enumerate", "0", "--count-only"],
        ["check", "--orders", "0"], ["check", "--orders", "0,1"],
    ])
    def test_order_below_one_is_its_own_one_line_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "is below 1" in err and "cap" not in err

    def test_stream_reparses(self, capsys):
        assert main(["enumerate", "2"]) == 0
        blocks = capsys.readouterr().out.strip().split("\n\n")
        assert len(blocks) == 8
        for block in blocks:
            parse_cayley(block)


class TestLibrary:
    def test_listing(self, capsys):
        assert main(["library"]) == 0
        out = capsys.readouterr().out
        assert "leftzero2" in out and "chain4" in out

    def test_entry_output_reparses(self, capsys):
        assert main(["library", "monogenic2"]) == 0
        out = capsys.readouterr().out
        assert parse_cayley(out) == library_entry("monogenic2").semigroup

    def test_unknown_entry(self, capsys):
        assert main(["library", "nosuch"]) == 2
        assert "leftzero2" in capsys.readouterr().err


class TestRoundTrips:
    def test_cayley_emit_and_reparse_is_identity(self, capsys):
        for name in ("leftzero3", "cyclic4", "chain4"):
            S = library_entry(name).semigroup
            assert parse_cayley(format_cayley(S)) == S


def test_huge_grade_exponent_is_a_one_line_error(worked_file, capsys):
    assert main(["transform", worked_file, "--beta", "1e-4301", "--alpha", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: exponent of '1e-4301'") and err.count("\n") == 1
