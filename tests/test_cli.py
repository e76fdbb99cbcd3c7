import json
from importlib import resources

import jsonschema
import pytest

from goldens import GOLDEN_ORBITS
from windmills import cli


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def load_schema(name):
    text = (resources.files("windmills") / "schemas" / name).read_text()
    return json.loads(text)


class TestDecompose:
    def test_orbit_table_p29(self, capsys):
        code, out, _ = run(["decompose", "29", "--orbits"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[-1] == "total 15"
        header = lines.index("orbits (a b c d size):")
        got = set()
        for line in lines[header + 1 : -1]:
            a, b, c, d, size = map(int, line.split())
            got.add(((a, b, c, d), size))
        assert got == GOLDEN_ORBITS[29]

    def test_rejects_non_prime(self, capsys):
        code, _, err = run(["decompose", "4"], capsys)
        assert code == 2
        assert "odd prime" in err

    def test_json_output_and_schema(self, capsys):
        code, out, _ = run(["decompose", "13", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == 7
        assert [6, 2, 1, 1] in payload["solutions"]
        jsonschema.validate(payload, load_schema("decompose.v1.json"))

    def test_json_with_orbits_validates(self, capsys):
        code, out, _ = run(["decompose", "29", "--orbits", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("decompose.v1.json"))
        assert sum(o["size"] for o in payload["orbits"]) == 15

    def test_deterministic_output(self, capsys):
        _, first, _ = run(["decompose", "101", "--orbits"], capsys)
        _, second, _ = run(["decompose", "101", "--orbits"], capsys)
        assert first == second

    def test_solutions_in_descending_order(self, capsys):
        _, out, _ = run(["decompose", "13", "--format", "json"], capsys)
        sols = [tuple(s) for s in json.loads(out)["solutions"]]
        assert sols == sorted(sols, reverse=True)

    def test_rejects_oversized_input(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["decompose", str(2**63)])
        assert exc.value.code == 2


class TestTwoSquares:
    def test_p29(self, capsys):
        code, out, _ = run(["two-squares", "29"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "5 2"

    def test_both_methods_flag_agreement(self, capsys):
        code, out, _ = run(["two-squares", "13", "--method", "both"], capsys)
        assert code == 0
        assert out.splitlines() == ["3 2", "agreement: grace == fixed-point"]

    def test_single_methods(self, capsys):
        for method in ("grace", "fixed-point"):
            code, out, _ = run(["two-squares", "37", "--method", method], capsys)
            assert code == 0
            assert out.strip() == "6 1"

    def test_rejects_three_mod_four(self, capsys):
        code, _, err = run(["two-squares", "7"], capsys)
        assert code == 2
        assert "3 (mod 4)" in err


class TestLattice:
    def test_running_example_report(self, capsys):
        code, out, _ = run(["lattice", "13", "7"], capsys)
        assert code == 0
        assert "reduced basis: (-1, 2), (5, 3)" in out
        assert "minimal vector: (-1, 2)" in out
        assert "voronoi vectors: (-1, 2), (5, 3), (6, 1)" in out
        assert "(53/26, 59/26)" in out
        assert "windmill color: black" in out
        assert "standard solution: (6, 2, 1, 1)" in out

    def test_no_windmill_slope(self, capsys):
        code, out, _ = run(["lattice", "13", "1"], capsys)
        assert code == 0
        assert "no windmill basis" in out

    def test_white_slope_points_to_partner(self, capsys):
        code, out, _ = run(["lattice", "13", "6"], capsys)
        assert code == 0
        assert "windmill color: white" in out
        assert "black partner: mu = 7" in out

    def test_infinity_slope(self, capsys):
        code, out, _ = run(["lattice", "13", "inf"], capsys)
        assert code == 0
        assert "no windmill basis" in out

    def test_rejects_invalid_mu(self, capsys):
        code, _, err = run(["lattice", "13", "13"], capsys)
        assert code == 2
        assert "mu" in err

    def test_writes_svg(self, capsys, tmp_path):
        target = tmp_path / "lattice.svg"
        code, out, _ = run(["lattice", "13", "7", "--svg", str(target)], capsys)
        assert code == 0
        assert target.exists() and target.read_text().startswith("<svg")

    def test_rejects_svg_extent_above_cap(self, capsys, tmp_path):
        target = tmp_path / "lattice.svg"
        code, out, err = run(
            ["lattice", "13", "7", "--svg", str(target), "--extent", "51"], capsys
        )
        assert code == 2
        assert "extent must lie in [1, 50]" in err
        assert out == "" and not target.exists()


class TestVerify:
    @pytest.mark.parametrize(
        "mode,max_p",
        [("count", "300"), ("oracle", "200"), ("color", "100"), ("irreducible", "60")],
    )
    def test_modes_pass(self, capsys, mode, max_p):
        code, out, _ = run(["verify", "--max-p", max_p, "--mode", mode], capsys)
        assert code == 0
        assert "all pass" in out

    def test_parallel_matches_serial(self, capsys):
        _, serial, _ = run(["verify", "--max-p", "120", "--mode", "oracle"], capsys)
        _, parallel, _ = run(
            ["verify", "--max-p", "120", "--mode", "oracle", "--jobs", "2"], capsys
        )
        # identical up to the timing figure
        assert serial.split("(")[0] == parallel.split("(")[0]

    def test_json_report_validates(self, capsys):
        code, out, _ = run(
            ["verify", "--max-p", "60", "--mode", "count", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, load_schema("report.v1.json"))
        assert payload["results"]["failures"] == []
        report = cli.Report.from_json(out)
        assert report.command == "verify"

    @pytest.mark.parametrize("flag,env", [(["--jobs", "-3"], None), ([], "-1")])
    def test_rejects_jobs_below_one(self, capsys, monkeypatch, flag, env):
        if env is not None:
            monkeypatch.setenv("WINDMILL_JOBS", env)
        code, out, err = run(["verify", "--max-p", "30", "--mode", "count", *flag], capsys)
        assert code == 2
        assert "at least 1" in err and out == ""

    def test_rejects_non_numeric_jobs_env(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a refused job count must not start a pool")

        monkeypatch.setattr(cli, "Pool", no_pool)
        monkeypatch.setenv("WINDMILL_JOBS", "abc")
        code, out, err = run(["verify", "--max-p", "30", "--mode", "count"], capsys)
        assert code == 2 and out == ""
        assert "WINDMILL_JOBS" in err and "positive decimal integer" in err

    def test_irreducible_reports_duplicate_listing(self, monkeypatch):
        real = cli.irreducible_enumerate(6)
        # right length and every matrix valid, but one repeated in place of another
        monkeypatch.setattr(cli, "irreducible_enumerate", lambda n: real[:-1] + real[:1])
        message = cli.check_irreducible(6)
        assert message is not None and "duplicate" in message

    def test_clamps_jobs_to_cpu_count(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a single job must not start a pool")

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(cli, "Pool", no_pool)
        code, out, _ = run(
            ["verify", "--max-p", "30", "--mode", "count", "--jobs", "1000000",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["inputs"]["jobs"] == 1

    def test_rejects_out_of_cap_bound(self, capsys):
        code, _, err = run(
            ["verify", "--max-p", "20000", "--mode", "irreducible"], capsys
        )
        assert code == 2
        assert "accepts bounds" in err


class TestIrreducible:
    def test_count_6(self, capsys):
        code, out, _ = run(["irreducible", "6"], capsys)
        assert code == 0
        assert out.strip() == "8"

    def test_count_4(self, capsys):
        assert run(["irreducible", "4"], capsys)[1].strip() == "5"

    def test_list_identity(self, capsys):
        code, out, _ = run(["irreducible", "1", "--list"], capsys)
        assert code == 0
        assert out.splitlines() == ["1", "1 0 0 1"]

    def test_list_n6(self, capsys):
        code, out, _ = run(["irreducible", "6", "--list"], capsys)
        assert code == 0
        assert out == (
            "8\n1 0 0 6\n2 0 0 3\n2 0 1 3\n2 1 0 3\n"
            "3 0 0 2\n3 0 1 2\n3 1 0 2\n6 0 0 1\n"
        )

    def test_rejects_zero(self, capsys):
        assert run(["irreducible", "0"], capsys)[0] == 2

    def test_refused_listing_prints_nothing(self, capsys):
        code, out, err = run(["irreducible", "10001", "--list"], capsys)
        assert code == 2 and out == ""
        assert "enumeration is limited" in err


class TestTiling:
    def test_writes_figure_instance(self, capsys, tmp_path):
        target = tmp_path / "t.svg"
        code, out, _ = run(
            ["tiling", "37", "7", "5", "2", "1", "--out", str(target)], capsys
        )
        assert code == 0
        assert target.exists() and "<svg" in target.read_text()

    def test_rejects_invalid_quadruple(self, capsys, tmp_path):
        code, _, err = run(
            ["tiling", "37", "7", "5", "5", "1", "--out", str(tmp_path / "x.svg")],
            capsys,
        )
        assert code == 2
        assert "not a solution" in err

    def test_square_pair(self, capsys, tmp_path):
        target = tmp_path / "sq.svg"
        code, _, _ = run(["tiling", "5", "2", "2", "1", "1", "--out", str(target)], capsys)
        assert code == 0
        assert target.exists()


class TestReport:
    def test_json_round_trip(self):
        report = cli.Report(
            command="verify",
            inputs={"mode": "count", "max_p": 100, "jobs": 1},
            results={"checked": 24, "failures": []},
            timing_ms=12.5,
        )
        assert cli.Report.from_json(report.to_json()) == report

    def test_schema_matches(self):
        report = cli.Report("x", {}, {"ok": True}, 0.0)
        jsonschema.validate(json.loads(report.to_json()), load_schema("report.v1.json"))


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
