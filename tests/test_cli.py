import argparse
import hashlib
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goldens import GOLDEN_ORBITS
from oracles import odd_primes
import windmills
from windmills import cli, decomp, lattice2d, numtheory, render, windmill
from windmills.lattice2d import SlopeClass
from windmills.numtheory import is_prime
from windmills.render import lattice_svg


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def refuse_walk(monkeypatch):
    def walk(*args):
        raise AssertionError("a refused input must not start the walk")

    monkeypatch.setattr(decomp, "_fast_solution_raw", walk)


def drop_hit(monkeypatch):
    # a brute force short of the hit (3, 3, 2, 2) of p = 13 in both bindings:
    # check_count reads cli's, and check_oracle reads decomp's through
    # _bruteforce_rows
    real = decomp._bruteforce_hits

    def short(p):
        return (h for h in real(p) if h != (3, 3, 2, 2))

    monkeypatch.setattr(cli, "_bruteforce_hits", short)
    monkeypatch.setattr(decomp, "_bruteforce_hits", short)


def plant_color_faults(monkeypatch, faults):
    # The pick sees only a reduced basis, and the sweep may reach a
    # lattice's reduced basis with another sign or order, so the fake
    # knows a faulty slope of p = 13 by lattice membership: both vectors
    # satisfy x + mu*y = 0 (mod 13), or y = 0 (mod 13) at infinity.
    # faults maps a slope to "drop", "plant" or "flip".
    real = cli._windmill_pair_raw
    targets = [(lattice2d.SlopeClass(13, mu), fault) for mu, fault in faults.items()]

    def faulty(ax, ay, bx, by):
        pair = real(ax, ay, bx, by)
        u, v = lattice2d.IVec2(ax, ay), lattice2d.IVec2(bx, by)
        for s, fault in targets:
            if lattice2d.contains(s, u) and lattice2d.contains(s, v):
                if fault == "drop":
                    return None
                if fault == "plant":
                    return True, (1, 0), (0, 1)
                black, u, v = pair
                return not black, u, v
        return pair

    monkeypatch.setattr(cli, "_windmill_pair_raw", faulty)


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

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ["decompose", "10007", "--orbits"],
                "f843a2f09881a26db7132c24473719b08db60607f145d97fabec53695e0cfcde",
            ),
            (
                ["decompose", "10009", "--format", "json"],
                "c94e3fc1d3afea821eb48d7a2b1a14f062ea9e047da471aa130d542f88a67681",
            ),
            (
                ["decompose", "10009", "--orbits", "--format", "json"],
                "c526c11c11dc3e880fe8380f97fe50a902acd0bbcb4cd9d779cdf08095d0fae3",
            ),
            (
                ["decompose", "99991", "--orbits"],
                "64ee782423c68a431bbe7dacd2bb72262abac9ea6776f3cf78e681cf7ef5d4e9",
            ),
            (
                ["irreducible", "9973", "--list"],
                "f32b4662f4acc11e5bc589ba4fb28061508494042a21359c915495069ac7ccef",
            ),
            (
                ["irreducible", "10000", "--list"],
                "a47259721b7c6e5513c4f6f874f6c038c3af395f831ee39f952eb9fd1b1be094",
            ),
        ],
    )
    def test_output_bytes_are_pinned(self, capsys, argv, digest):
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("orbits", [False, True], ids=["rows", "orbits"])
    @pytest.mark.parametrize("p", [3, 5, 13, 101])
    def test_json_is_the_standard_encoding(self, capsys, p, orbits):
        # the listing is filled by template; its bytes are json.dumps's for
        # the same payload, built here from the object API (p = 3: two rows
        # and one orbit)
        sols = decomp.enumerate_fast(p)
        rows = sorted((sol.key for sol in sols), reverse=True)
        payload: dict = {"p": p, "count": len(rows), "solutions": rows}
        argv = ["decompose", str(p), "--format", "json"]
        if orbits:
            payload["orbits"] = [
                {"rep": entry.rep.key, "size": entry.size}
                for entry in decomp.vierergruppe_orbits(sols)
            ]
            argv.append("--orbits")
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert out == json.dumps(payload, indent=2) + "\n"

    def test_orbits_reject_a_set_not_closed_under_the_swaps(self, capsys, monkeypatch):
        # S_13 short of (13, 1, 0, 0) and (2, 6, 1, 1): the sizes of the five
        # rows' representatives sum to 5, yet two orbits are incomplete
        missing = {(13, 1, 0, 0), (2, 6, 1, 1)}
        short = [row for row in decomp._checked_rows(13)[0] if row not in missing]
        monkeypatch.setattr(cli, "_checked_rows", lambda p: (list(short), set(short)))
        code, out, err = run(["decompose", "13", "--orbits"], capsys)
        assert code == 2 and out == ""
        assert "not closed under the swap action: missing [(2, 6, 1, 1), (13, 1, 0, 0)]" in err

    @pytest.mark.parametrize(
        "extra,bound", [([], 1.6), (["--format", "json"], 3.0)], ids=["text", "json"]
    )
    def test_peak_memory_is_a_small_multiple_of_the_row_set(self, extra, bound):
        # the listing is written as it is formatted or encoded, so the traced
        # peak stays near the row set itself; a list of every formatted line,
        # a joined copy of the output or a list copy of each row would not
        p = 20011
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            rows = set(decomp._walk_rows(p))
            size = tracemalloc.get_traced_memory()[0] - start
            del rows
            with open(os.devnull, "w") as sink, redirect_stdout(sink):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                assert cli.main(["decompose", str(p), "--orbits", *extra]) == 0
                peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < bound * size, (peak, size)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_builds_no_solution_objects(self, capsys, monkeypatch, fmt):
        def no_solution(*args):
            raise AssertionError("decompose works on plain rows")

        monkeypatch.setattr(decomp, "Solution", no_solution)
        code, out, _ = run(["decompose", "101", "--orbits", "--format", fmt], capsys)
        assert code == 0 and out

    def test_refuses_walk_above_limit(self, capsys, monkeypatch):
        refuse_walk(monkeypatch)
        code, out, err = run(["decompose", "1000000007"], capsys)
        assert code == 2 and out == ""
        assert f"limited to p <= {decomp._WALK_LIMIT}" in err


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

    def test_default_above_walk_limit_is_grace_alone(self, capsys, monkeypatch):
        refuse_walk(monkeypatch)
        code, out, _ = run(["two-squares", str(10**12 + 61)], capsys)
        assert code == 0
        assert out == "848494 529205\n"
        assert 848494**2 + 529205**2 == 10**12 + 61

    @pytest.mark.parametrize("method", ["both", "fixed-point"])
    def test_refuses_walk_above_limit(self, capsys, monkeypatch, method):
        refuse_walk(monkeypatch)
        code, out, err = run(["two-squares", str(10**12 + 61), "--method", method], capsys)
        assert code == 2 and out == ""
        assert f"limited to p <= {decomp._WALK_LIMIT}" in err

    def test_reports_disagreement(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "two_squares_grace", lambda p: (2, 3))
        code, out, err = run(["two-squares", "13"], capsys)
        assert code == 1 and out == ""
        assert err == "error: methods disagree: grace (2, 3), fixed-point (3, 2)\n"


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

    @pytest.mark.parametrize("p,mu", [("2", "1"), ("15", "2")])
    def test_rejects_non_prime_in_the_words_of_every_command(self, capsys, p, mu):
        code, out, err = run(["lattice", p, mu], capsys)
        assert code == 2 and out == ""
        assert err == f"error: expected an odd prime, got {p}\n"

    def test_rejects_invalid_mu(self, capsys):
        code, _, err = run(["lattice", "13", "13"], capsys)
        assert code == 2
        assert "mu" in err

    @pytest.mark.parametrize("mu", ["abc", str(2**62)])
    def test_rejects_malformed_mu(self, capsys, mu):
        with pytest.raises(SystemExit) as exc:
            cli.main(["lattice", "13", mu])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "argument mu" in out.err

    @pytest.mark.parametrize(
        "p,digest",
        [
            (13, "03489316e0f117c22acf270488249e1ab44712d65cc5cffa8094724b2700f185"),
            (101, "006361b9344abb845fa6d037e5c3df5f488e277f948ccb2cf11ac7a6bddd5fba"),
            (103, "4b575db74a52c9bc2335614dbf5d39e0adf867a5c8ad18898ca94854ddbf729e"),
            (1009, "5db7f91aecfc97061d864e676bc63dc39197bf3e9a24523fad164bcbd3b46311"),
        ],
    )
    def test_reports_over_every_slope_are_pinned(self, p, digest):
        # the bases line prints m and f in a fixed order, so a change of which
        # element is common or where its family starts changes these bytes
        buf = io.StringIO()
        with redirect_stdout(buf):
            for mu in [*map(str, range(p)), "inf"]:
                assert cli.main(["lattice", str(p), mu]) == 0
        assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest

    @pytest.mark.parametrize("mu", ["7", "6"])
    def test_proves_p_prime_once(self, capsys, monkeypatch, mu):
        # 7 is a black slope of 13 and 6 a white one; neither builds a
        # partner slope, which would prove p prime again
        calls = []

        def counted(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(numtheory, "is_prime", counted)
        monkeypatch.setattr(lattice2d, "is_prime", counted)
        code, out, _ = run(["lattice", "13", mu], capsys)
        assert code == 0 and "standard solution" in out
        assert calls == [13]

    def test_writes_svg(self, capsys, tmp_path):
        target = tmp_path / "lattice.svg"
        code, out, _ = run(["lattice", "13", "7", "--svg", str(target)], capsys)
        assert code == 0
        assert target.exists() and target.read_text().startswith("<svg")

    @pytest.mark.parametrize("cmd", ["lattice_svg", "lattice --svg", "lattice"])
    def test_reduces_the_lattice_once(self, capsys, monkeypatch, tmp_path, cmd):
        # a reduction that changes its input is a real one; the report and the
        # picture read everything else off the pair that voronoi_cell reduced,
        # and hand it to a reduction that returns it unchanged or to none
        real = lattice2d._reduce_raw
        effective = []

        def counted(*basis):
            out = real(*basis)
            if out != basis:
                effective.append(basis)
            return out

        monkeypatch.setattr(lattice2d, "_reduce_raw", counted)
        monkeypatch.setattr(windmill, "_reduce_raw", counted)
        if cmd == "lattice_svg":
            lattice_svg(SlopeClass(13, 7), 8)
        else:
            argv = ["lattice", "13", "7"]
            if cmd == "lattice --svg":
                argv += ["--svg", str(tmp_path / "lattice.svg")]
            assert run(argv, capsys)[0] == 0
        assert len(effective) == 1

    @pytest.mark.parametrize("svg", [False, True])
    def test_picks_once(self, capsys, monkeypatch, tmp_path, svg):
        # the windmill bases, the standard solution and the picture all come
        # from one cone pick on the reduced pair
        real = windmill._windmill_pair_raw
        calls = []

        def counted(*basis):
            calls.append(basis)
            return real(*basis)

        monkeypatch.setattr(windmill, "_windmill_pair_raw", counted)
        argv = ["lattice", "13", "7"]
        if svg:
            argv += ["--svg", str(tmp_path / "lattice.svg")]
        code, out, _ = run(argv, capsys)
        assert code == 0 and "windmill bases (" in out and "standard solution: (" in out
        assert len(calls) == 1

    def test_svg_runs_the_kernel_once(self, capsys, monkeypatch, tmp_path):
        # the report's standard solution and the picture's standard arrows
        # read the same row off the reduced pair
        real = windmill._fast_solution_raw
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(render, "_fast_solution_raw", counted)
        target = tmp_path / "lattice.svg"
        code, out, _ = run(["lattice", "13", "7", "--svg", str(target)], capsys)
        assert code == 0 and "standard solution: (" in out
        assert target.read_text(encoding="utf-8").count('marker-end="url(#arr-standard)"') == 2
        assert len(calls) == 1

    @pytest.mark.parametrize("extent", [1, 8])
    def test_svg_is_the_public_picture(self, capsys, tmp_path, extent):
        # the command draws from its own Voronoi data; the bytes are those of
        # render.lattice_svg on the slope, for every slope of 13
        target = tmp_path / "lattice.svg"
        for mu in [*map(str, range(13)), "inf"]:
            argv = ["lattice", "13", mu, "--svg", str(target), "--extent", str(extent)]
            assert run(argv, capsys)[0] == 0
            s = SlopeClass(13, None if mu == "inf" else int(mu))
            assert target.read_text(encoding="utf-8") == lattice_svg(s, extent).to_xml(), mu

    @pytest.mark.parametrize("extent", ["-5", "0", "51"])
    def test_rejects_extent_out_of_range_without_svg(self, capsys, extent):
        code, out, err = run(["lattice", "13", "7", "--extent", extent], capsys)
        assert code == 2 and out == ""
        assert "extent must lie in [1, 50]" in err

    def test_rejects_svg_extent_above_cap(self, capsys, tmp_path):
        target = tmp_path / "lattice.svg"
        code, out, err = run(
            ["lattice", "13", "7", "--svg", str(target), "--extent", "51"], capsys
        )
        assert code == 2
        assert "extent must lie in [1, 50]" in err
        assert out == "" and not target.exists()

    def test_refuses_listing_above_cap(self, capsys, monkeypatch, tmp_path):
        def no_listing(self):
            raise AssertionError("a refused lattice must not list its bases")

        monkeypatch.setattr(windmill.WindmillBasisSet, "bases", no_listing)
        target = tmp_path / "lattice.svg"
        # mu = p - 2 has about p/6 windmill bases: 333 334 here
        code, out, err = run(["lattice", "2000003", "2000001", "--svg", str(target)], capsys)
        assert code == 2 and out == "" and not target.exists()
        assert "333334 windmill bases" in err and "at most 200000" in err

    def test_unwritable_svg_path_prints_nothing(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.svg"
        code, out, err = run(["lattice", "13", "7", "--svg", str(target)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write") and str(target) in err


class TestVerify:
    @pytest.mark.parametrize(
        "mode,max_p",
        [("count", "300"), ("oracle", "200"), ("color", "100"), ("irreducible", "60")],
    )
    def test_modes_pass(self, capsys, mode, max_p):
        code, out, _ = run(["verify", "--max-p", max_p, "--mode", mode], capsys)
        assert code == 0
        assert "all pass" in out

    def test_sweep_primes_equal_the_sieve_oracle(self):
        # every bound up to 60 (squares and their neighbours included), then 10^5
        for n in list(range(1, 61)) + [10**5]:
            assert cli._odd_primes_up_to(n) == odd_primes(n), n

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
        assert payload["command"] == "verify"

    @pytest.mark.parametrize(
        "mode,code,failures",
        [
            ("oracle", 0, "[]"),
            ("count", 1, '[\n      "p=13: brute-force count 6 != 7"\n    ]'),
        ],
        ids=["pass", "fail"],
    )
    def test_json_bytes_are_pinned(self, capsys, monkeypatch, mode, code, failures):
        # the count sweep fails at p = 13 on a brute force short of one row
        if code:
            drop_hit(monkeypatch)
        got, out, _ = run(
            ["verify", "--max-p", "60", "--mode", mode, "--format", "json", "--jobs", "1"], capsys
        )
        assert got == code
        assert re.sub(r'"timing_ms": .*', '"timing_ms": 0', out) == (
            "{\n"
            '  "command": "verify",\n'
            '  "inputs": {\n'
            f'    "mode": "{mode}",\n'
            '    "max_p": 60,\n'
            '    "jobs": 1\n'
            "  },\n"
            '  "results": {\n'
            '    "checked": 16,\n'
            f'    "failures": {failures}\n'
            "  },\n"
            '  "timing_ms": 0\n'
            "}\n"
        )

    @pytest.mark.parametrize("jobs", ["-3", "0"])
    def test_rejects_jobs_below_one(self, capsys, jobs):
        code, out, err = run(
            ["verify", "--max-p", "30", "--mode", "count", "--jobs", jobs], capsys
        )
        assert code == 2
        assert "at least 1" in err and out == ""

    def test_ignores_windmill_jobs_env(self, capsys, monkeypatch):
        # WINDMILL_JOBS belongs to the test suite's criterion 4, not to the CLI
        def no_pool(*args, **kwargs):
            raise AssertionError("verify without --jobs runs in one process")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        for value in ("abc", "2"):
            monkeypatch.setenv("WINDMILL_JOBS", value)
            code, out, _ = run(
                ["verify", "--max-p", "30", "--mode", "count", "--format", "json"], capsys
            )
            assert code == 0
            assert json.loads(out)["inputs"]["jobs"] == 1

    def test_bound_below_three_checks_no_prime(self, capsys):
        code, out, _ = run(["verify", "--max-p", "2", "--mode", "count"], capsys)
        assert code == 0
        assert out.startswith("verify mode=count max=2: 0 cases, all pass (")

    def test_irreducible_reports_duplicate_listing(self, monkeypatch):
        real = cli._irreducible_rows(6)
        # right length and every matrix valid, but one repeated in place of another
        monkeypatch.setattr(cli, "_irreducible_rows", lambda n: real[:-1] + real[:1])
        message = cli.check_irreducible(6)
        assert message is not None and "duplicate" in message

    @pytest.mark.parametrize(
        "name,fake,message",
        [
            (
                "irreducible_count",
                lambda n: decomp.irreducible_count(n) + 1,
                "n=6: formula 9 != enumeration 8",
            ),
            (
                "_irreducible_rows",
                lambda n: decomp._irreducible_rows(n)[:-1] + [(1, 1, 1, 1)],
                "n=6: enumeration produced an invalid matrix",
            ),
        ],
        ids=["count", "invalid"],
    )
    def test_irreducible_reports_each_fault(self, monkeypatch, name, fake, message):
        monkeypatch.setattr(cli, name, fake)
        assert cli.check_irreducible(6) == message

    def test_clamps_jobs_to_cpu_count(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a single job must not start a pool")

        monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
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

    def test_count_cap_refuses_before_the_sweep(self, capsys, monkeypatch):
        def no_sweep(n):
            raise AssertionError("a refused bound must not start the sweep")

        monkeypatch.setattr(cli, "_odd_primes_up_to", no_sweep)
        code, out, err = run(["verify", "--max-p", "100001", "--mode", "count"], capsys)
        assert code == 2 and out == ""
        assert "mode count accepts bounds in [1, 100000]" in err

    def test_color_cap_refuses_before_the_sweep(self, capsys, monkeypatch):
        def no_sweep(p):
            raise AssertionError("a refused bound must not start the sweep")

        _, kind, cap = cli._VERIFY_MODES["color"]
        monkeypatch.setitem(cli._VERIFY_MODES, "color", (no_sweep, kind, cap))
        code, out, err = run(["verify", "--max-p", "40001", "--mode", "color"], capsys)
        assert code == 2 and out == ""
        assert "mode color accepts bounds in [1, 40000]" in err

    def test_oracle_cap_refuses_before_the_sweep(self, capsys, monkeypatch):
        def no_sweep(p):
            raise AssertionError("a refused bound must not start the sweep")

        _, kind, cap = cli._VERIFY_MODES["oracle"]
        monkeypatch.setitem(cli._VERIFY_MODES, "oracle", (no_sweep, kind, cap))
        code, out, err = run(["verify", "--max-p", "60001", "--mode", "oracle"], capsys)
        assert code == 2 and out == ""
        assert "mode oracle accepts bounds in [1, 60000]" in err

    def test_sweep_workers_build_no_solution_objects(self, monkeypatch):
        def no_solution(*args):
            raise AssertionError("a passing sweep works on plain rows")

        monkeypatch.setattr(decomp, "Solution", no_solution)
        monkeypatch.setattr(cli, "Solution", no_solution)
        assert cli.check_count(10007) is None
        assert cli.check_oracle(10007) is None

    def test_irreducible_builds_no_matrix_objects(self, monkeypatch):
        def no_matrix(*args):
            raise AssertionError("a passing check_irreducible works on plain rows")

        monkeypatch.setattr(decomp, "IrreducibleMatrix", no_matrix)
        assert cli.check_irreducible(2000) is None

    def test_count_by_orbit_sizes_equals_the_row_set(self):
        # a passing check_count sums the hits' orbit sizes to (p+1)/2;
        # 99989 = 1 and 99991 = 3 (mod 4): both residue classes at the top
        for p in odd_primes(20000) + [99989, 99991]:
            assert len(decomp._bruteforce_rows(p)) == (p + 1) // 2, p
            assert cli.check_count(p) is None, p

    def test_count_reports_a_hit_found_twice(self, monkeypatch):
        real = decomp._bruteforce_hits

        def twice(p):
            yield from real(p)
            yield 3, 3, 2, 2

        monkeypatch.setattr(cli, "_bruteforce_hits", twice)
        assert cli.check_count(13) == "p=13: brute-force count 8 != 7"

    def test_oracle_and_count_report_a_missing_row(self, monkeypatch):
        drop_hit(monkeypatch)
        # both messages as the sweeps printed them over Solution sets
        assert cli.check_oracle(13) == (
            "p=13: fast != brute force, first differences "
            "[Solution(a=3, b=3, c=2, d=2, p=13)]"
        )
        assert cli.check_count(13) == "p=13: brute-force count 6 != 7"

    def test_oracle_reports_a_faulty_walk(self, capsys, monkeypatch):
        # a walk short of one row fails the comparison, not the walk's count
        real = cli._walk_rows
        monkeypatch.setattr(cli, "_walk_rows", lambda p: (r for r in real(p) if r != (3, 3, 2, 2)))
        message = (
            "p=13: fast != brute force, first differences "
            "[Solution(a=3, b=3, c=2, d=2, p=13)]"
        )
        assert cli.check_oracle(13) == message
        code, out, _ = run(["verify", "--max-p", "30", "--mode", "oracle", "--jobs", "1"], capsys)
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == f"FAIL {message}"
        assert lines[1].startswith("verify mode=oracle max=30: 9 cases, 1 failures (")

    def test_color_proves_p_prime_once(self, monkeypatch):
        calls = []

        def counted(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(numtheory, "is_prime", counted)
        monkeypatch.setattr(lattice2d, "is_prime", counted)
        assert cli.check_color(101) is None
        assert calls == [101]

    def test_color_rejects_non_prime(self):
        with pytest.raises(ValueError, match="odd prime"):
            cli.check_color(91)

    @pytest.mark.parametrize(
        "slopes,fault,message",
        [
            ((5,), "drop", "p=13, mu=5: missing windmill basis"),
            ((1,), "plant", "p=13, mu=1: unexpected windmill basis"),
            ((None,), "plant", "p=13, mu=infinity: unexpected windmill basis"),
            ((11,), "flip", "p=13: colors of mu=2 and p-mu=11 do not flip"),
            ((2, 11), "flip", "p=13: colors of mu=2 and 1/mu=7 do not flip"),
        ],
    )
    def test_color_reports_each_fault(self, monkeypatch, slopes, fault, message):
        # The messages are those the sweep printed when the same faults were
        # planted in each slope's WindmillBasisSet.
        plant_color_faults(monkeypatch, {mu: fault for mu in slopes})
        assert cli.check_color(13) == message

    @pytest.mark.parametrize(
        "faults,mu",
        [
            ({0: "plant", 1: "plant", 5: "drop", 12: "plant", None: "plant"}, "0"),
            ({1: "plant", 5: "drop", 12: "plant", None: "plant"}, "1"),
            ({5: "drop", 12: "plant", None: "plant"}, "5"),
            ({12: "plant", None: "plant"}, "12"),
            ({None: "plant", 11: "flip"}, "infinity"),
        ],
    )
    def test_color_reports_the_first_fault_in_slope_order(self, monkeypatch, faults, mu):
        # existence is checked at 0, 1, then 2..p-2, then p-1, then infinity,
        # all before any color flip
        plant_color_faults(monkeypatch, faults)
        assert cli.check_color(13).startswith(f"p=13, mu={mu}: ")

    def test_color_builds_no_windmill_basis_set(self, monkeypatch):
        def no_set(*args):
            raise AssertionError("check_color needs only the cone pick")

        monkeypatch.setattr(windmill, "all_windmill_bases", no_set)
        monkeypatch.setattr(windmill, "_basis_set", no_set)
        monkeypatch.setattr(render, "_basis_set", no_set)
        assert cli.check_color(10007) is None

    @pytest.mark.parametrize("p", [13, 101])
    def test_color_reduces_each_finite_slope_once(self, monkeypatch, p):
        # one reduction per finite slope, in the sweep; infinity's basis
        # (1, 0), (0, p) is reduced already and costs none
        real = lattice2d._reduce_raw
        calls = []

        def counted(*basis):
            calls.append(basis)
            return real(*basis)

        monkeypatch.setattr(lattice2d, "_reduce_raw", counted)
        monkeypatch.setattr(windmill, "_reduce_raw", counted)
        assert cli.check_color(p) is None
        assert len(calls) == p
        assert real(1, 0, 0, p) == (1, 0, 0, p)


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

    def test_unwritable_out_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.svg"
        code, out, err = run(
            ["tiling", "37", "7", "5", "2", "1", "--out", str(target)], capsys
        )
        assert code == 2 and out == ""
        assert err.startswith("error: cannot write") and str(target) in err

    def test_square_pair(self, capsys, tmp_path):
        target = tmp_path / "sq.svg"
        code, _, _ = run(["tiling", "5", "2", "2", "1", "1", "--out", str(target)], capsys)
        assert code == 0
        assert target.exists()


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_main_builds_the_parser_once(capsys, monkeypatch):
    argv = ["lattice", "601", "7"]
    first = run(argv, capsys)
    builds = []
    real_init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        builds.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(argv, capsys) == first
    assert builds == []


def test_broken_pipe_exits_141_without_a_traceback():
    # the reader closes its end after the first bytes, as `| head -1` does;
    # the listing is far larger than a pipe buffer, so the writer sees it in
    # the middle of its writes, for the text lines and the encoded JSON alike
    src = str(Path(windmills.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {src!r}); from windmills.cli import entry; entry()"
    for extra, head in [([], b"p = 99991"), (["--format", "json"], b'{\n  "p": 99991')]:
        proc = subprocess.Popen(
            [sys.executable, "-c", code, "decompose", "99991", *extra],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(16).startswith(head), extra
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141, extra
        assert err == b"", extra


def test_public_names_are_distinct_objects():
    # one public name per function, class or module of the package
    seen = {}
    for name in dir(windmills):
        if not name.startswith("_"):
            obj = getattr(windmills, name)
            assert id(obj) not in seen, f"{name} and {seen[id(obj)]} are one object"
            seen[id(obj)] = name


def test_imports_only_the_standard_library():
    # A fresh interpreter under -S, so that no .pth hook of an installed
    # package imports anything; the site directories still go on the path, so
    # an import of an installed package, even a guarded one, would show.
    src = str(Path(windmills.__file__).resolve().parent.parent)
    code = (
        f"import site, sys; sys.path.insert(0, {src!r}); "
        "sys.path += [*site.getsitepackages(), site.getusersitepackages()]; "
        "import windmills, windmills.cli; "
        "print(*sorted({name.split('.')[0] for name in sys.modules}))"
    )
    names = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout.split()
    # __main__ is the -c script
    allowed = set(sys.stdlib_module_names) | {"windmills", "__main__"}
    assert "windmills" in names
    assert [name for name in names if name not in allowed] == []
    # only a verify sweep over more than one process imports the pool
    assert "multiprocessing" not in names


# Generated argv for the CLI contract.  Every number stays below the sizes
# that make a command slow, or lies far above the caps, where it is refused
# at once: the walk limit, the lattice listing cap, the verify caps.
_NUMBER = st.one_of(
    st.integers(min_value=-3, max_value=1999).map(str),
    st.sampled_from(
        [
            "1000000000039",  # prime, 3 (mod 4)
            "1000000000061",  # prime, 1 (mod 4)
            "2305843009213693951",  # 2**61 - 1, prime
            "4611686018427387903",  # 2**62 - 1, the largest accepted magnitude
            "4611686018427387904",  # 2**62, refused by the parser
            "-4611686018427387904",
            "1" + "0" * 30,
        ]
    ),
    st.sampled_from(["inf", "infinity", "x", "", "1.5", "0x10", "+7", "-0"]),
)
_PRIME = st.one_of(st.sampled_from(["3", "5", "7", "13", "29", "101", "997", "1997"]), _NUMBER)
_SLOPE = st.one_of(st.integers(min_value=0, max_value=12).map(str), st.just("inf"), _NUMBER)
# above 200 only where every mode refuses the bound
_MAX_P = st.one_of(
    st.integers(min_value=-3, max_value=200).map(str),
    st.sampled_from(["100001", "2305843009213693951", "4611686018427387904", "inf", "x"]),
)
_EXTENT = st.sampled_from(["-1", "0", "1", "3", "8", "50", "51", "4611686018427387904", "x"])
_FORMAT = st.sampled_from(["text", "json", "xml"])
_SOLUTIONS = st.sampled_from(
    [("37", "7", "5", "2", "1"), ("13", "6", "2", "1", "1"), ("5", "2", "2", "1", "1")]
)
# output paths, bound to a temporary directory by the test
_PICTURE, _UNWRITABLE = "<picture>", "<missing>/picture.svg"
# verify's own timings, the only output that may differ between identical calls
_TIMINGS = re.compile(r"\(\d+\.\d+s\)$|\"timing_ms\": [-+.\deE]+", re.M)


@st.composite
def _argv(draw):
    command = draw(
        st.sampled_from(["decompose", "two-squares", "lattice", "irreducible", "verify", "tiling"])
    )
    path = draw(st.sampled_from([_PICTURE, _UNWRITABLE]))
    required = []
    if command == "decompose":
        argv = [command, draw(_PRIME)]
        options = [["--orbits"], ["--format", draw(_FORMAT)]]
    elif command == "two-squares":
        argv = [command, draw(_PRIME)]
        options = [["--method", draw(st.sampled_from(["grace", "fixed-point", "both", "fast"]))]]
    elif command == "lattice":
        argv = [command, draw(_PRIME), draw(_SLOPE)]
        options = [["--svg", path], ["--extent", draw(_EXTENT)]]
    elif command == "irreducible":
        argv = [command, draw(_NUMBER)]
        options = [["--list"]]
    elif command == "verify":
        argv = [command]
        mode = draw(st.sampled_from(["count", "oracle", "color", "irreducible", "fast"]))
        # no --jobs above 1, which would start a process pool on every call
        jobs = draw(st.sampled_from(["-1", "0", "1", "x"]))
        required = [["--max-p", draw(_MAX_P)], ["--mode", mode]]
        options = [["--jobs", jobs], ["--format", draw(_FORMAT)]]
    else:
        argv = [command, *draw(st.one_of(_SOLUTIONS, st.tuples(*[_NUMBER] * 5)))]
        required = [["--out", path]]
        options = [["--extent", draw(_EXTENT)]]
    # a required option goes missing now and then, an optional one half the time
    kept = [o for o in required if draw(st.integers(0, 4))]
    kept += [o for o in options if draw(st.booleans())]
    for option in draw(st.permutations(kept)):
        argv += option
    return argv


def _call(argv, picture):
    # cli.main in process; anything but SystemExit escapes and fails the test
    picture.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    written = picture.read_bytes() if picture.exists() else None
    return code, out.getvalue(), err.getvalue(), written


@settings(max_examples=600, deadline=None)
@given(argv=_argv())
# one well-formed call per command, whatever the sampler draws
@example(argv=["decompose", "29", "--orbits", "--format", "json"])
@example(argv=["two-squares", "13", "--method", "both"])
@example(argv=["lattice", "13", "7", "--svg", _PICTURE, "--extent", "3"])
@example(argv=["irreducible", "6", "--list"])
@example(argv=["verify", "--max-p", "60", "--mode", "color", "--format", "json"])
@example(argv=["tiling", "37", "7", "5", "2", "1", "--out", _PICTURE])
def test_generated_argv_keeps_the_cli_contract(argv, tmp_path_factory):
    picture = tmp_path_factory.getbasetemp() / "contract.svg"
    paths = {_PICTURE: str(picture), _UNWRITABLE: str(picture.parent / "missing" / picture.name)}
    argv = [paths.get(arg, arg) for arg in argv]
    code, out, err, written = _call(argv, picture)
    # README: 1 only for a violation found by verify or two-squares
    assert code in ((0, 1, 2) if argv[0] in ("verify", "two-squares") else (0, 2))
    if code == 2:
        # a refused command says why and prints and writes nothing
        assert err.startswith(("error: ", "usage: ")), err
        assert out == "" and written is None
    # identical invocations give identical bytes, timings aside
    again = _call(argv, picture)
    assert again[0] == code and again[2:] == (err, written)
    assert _TIMINGS.sub("", again[1]) == _TIMINGS.sub("", out)
