"""Tests for the benchmark's own helpers: the tail-percentile rule, span self
time, the tracing patch, and the output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from hostspeed import REF_NOMINAL_S, scale_factors  # noqa: E402
from run import Tally, run_round  # noqa: E402
from stats import beyond, tail, tail_percentile  # noqa: E402
from tracer import Tracer, patched  # noqa: E402
from workloads import WORKLOADS, Inputs, Op  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return workloads.load_package()


# ---------------------------------------------------------------------------
# tail percentile


@pytest.mark.parametrize(
    "n, q",
    [(5, 50.0), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_is_highest_rung_with_ten_beyond(n, q):
    assert tail_percentile(n) == q
    if n >= 20:
        assert beyond(n, q) >= 10


def test_tail_reports_fewer_than_ten_beyond_when_samples_are_short():
    assert tail([1.0] * 19) == (50.0, 1.0, 9)


def test_tail_value_is_nearest_rank():
    values = [float(v) for v in range(100, 0, -1)]
    assert tail(values) == (90.0, 90.0, 10)


# ---------------------------------------------------------------------------
# host-speed scaling


def test_scale_factors_follow_the_reference_near_each_op():
    refs = [REF_NOMINAL_S] * 4 + [2 * REF_NOMINAL_S] * 4
    assert scale_factors(refs, [0, 7]) == pytest.approx([1.0, 0.5])


def test_scale_factors_ignore_a_lone_slow_reference_sample():
    refs = [REF_NOMINAL_S] * 7
    refs[3] = 10 * REF_NOMINAL_S
    assert scale_factors(refs, [3]) == pytest.approx([1.0])


# ---------------------------------------------------------------------------
# spans


def test_self_time_subtracts_direct_children():
    now = [0]
    tracer = Tracer(clock=lambda: now[0])

    def leaf():
        now[0] += 5

    def mid():
        now[0] += 2
        traced_leaf()
        now[0] += 3
        traced_leaf()

    def top():
        now[0] += 1
        traced_mid()
        now[0] += 4

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_mid = tracer.wrap("mid", mid)
    tracer.wrap("top", top)()
    assert tracer.layer_totals() == {"leaf": (2, 10), "mid": (1, 5), "top": (1, 5)}
    parents = list(tracer.cols["parent"])
    assert parents == [-1, 0, 1, 1]


def test_span_closes_when_the_call_raises():
    now = [0]
    tracer = Tracer(clock=lambda: now[0])

    def boom():
        now[0] += 7
        raise KeyError

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.layer_totals() == {"boom": (1, 7)}
    assert tracer._stack == [-1]


def test_patch_wraps_every_binding_and_restores(mods):
    original = mods["numtheory"].is_prime
    tracer = Tracer()
    with patched(tracer, mods, ["numtheory.is_prime"]):
        assert mods["lattice2d"].is_prime is not original
        mods["lattice2d"].SlopeClass(13, 5)  # calls is_prime through lattice2d's binding
    assert mods["lattice2d"].is_prime is original
    assert mods["numtheory"].is_prime is original
    assert mods["windmills"].is_prime is original
    assert tracer.layer_totals()["numtheory.is_prime"][0] == 1


def test_traced_calls_repeat_exactly(mods):
    ops = [Op("decompose", (101,)), Op("lattice", (13, 7))]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with patched(tracer, mods, ["lattice2d._reduce_raw", "windmill._fast_solution_raw"]):
            run_round(mods, ops, Tally(), tracer)
        counts.append({name: calls for name, (calls, _) in tracer.layer_totals().items()})
    assert counts[0] == counts[1]
    assert counts[0]["windmill._fast_solution_raw"] >= (101 - 3) // 2


# ---------------------------------------------------------------------------
# output checks


def test_every_warm_up_op_passes_its_check(mods):
    for workload in WORKLOADS.values():
        for op in workload.warm_up:
            assert op.check(*op.run(mods)) is None, op.label


def _corrupt(text, edit):
    lines = text.splitlines()
    edit(lines)
    return "\n".join(lines) + "\n"


def _bump(lines, i, field=0):
    fields = lines[i].split()
    fields[field] = str(int(fields[field]) + 1)
    lines[i] = " ".join(fields)


@pytest.mark.parametrize(
    "edit",
    [
        lambda lines: _bump(lines, 2),  # a row no longer sums to p
        lambda lines: lines.pop(3),  # a row missing
        lambda lines: lines.__setitem__(3, lines[2]),  # a row repeated
        lambda lines: lines.__setitem__(1, "count = 14"),
        lambda lines: _bump(lines, -2, 4),  # an orbit size wrong
        lambda lines: lines.__setitem__(-1, "total 16"),
        lambda lines: lines.__setitem__(2, "6 5 x 1"),
        lambda lines: lines.pop(),
    ],
)
def test_decompose_check_rejects_corrupted_output(mods, edit):
    code, text, err = Op("decompose", (29,)).run(mods)
    assert workloads.check_decompose(29, code=code, text=text, err=err) is None
    bad = _corrupt(text, edit)
    assert workloads.check_decompose(29, code=code, text=bad, err=err) is not None


def test_decompose_check_rejects_error_exit(mods):
    op = Op("decompose", (4,))
    assert op.check(*op.run(mods)) is not None


def test_failed_op_is_counted_not_raised(mods):
    tally = Tally()
    run_round(mods, [Op("decompose", (4,)), Op("check_count", (101,))], tally)
    assert tally.attempted == 2 and tally.failed == 1


def test_two_squares_and_svg_checks_reject_bad_output():
    assert workloads.check_two_squares(13, code=0, text="3 2\nagreement: grace == fixed-point\n", err="") is None
    assert workloads.check_two_squares(13, code=0, text="3 1\nagreement: grace == fixed-point\n", err="") is not None
    assert workloads.check_two_squares(13, code=0, text="3 2\n", err="") is not None
    assert workloads.check_tiling_svg(13, 6, 2, 1, 1, 1, code=0, text="<svg", err="") is not None
    assert workloads.check_lattice(13, 7, code=0, text="p = 13, mu = 7\nstandard solution: (6, 2, 1, 2)\n", err="") is not None


# ---------------------------------------------------------------------------
# inputs


def test_rounds_repeat_for_a_seed_and_stay_in_range():
    inputs = Inputs()
    for workload in WORKLOADS.values():
        first = workload.round(inputs, 7, 0)
        assert first == workload.round(inputs, 7, 0)
        assert first != workload.round(inputs, 8, 0)
    for op in WORKLOADS["decompose"].round(inputs, 7, 0):
        assert 10**3 <= op.args[0] < 10**5
        assert op.kind == "decompose" or op.args[0] % 4 == 1
    for op in WORKLOADS["verify"].round(inputs, 7, 0):
        low, high = {"check_count": (10**3, 10**5), "check_irreducible": (1, 2001), "check_oracle": (10**3, 2 * 10**4)}[op.kind]
        assert low <= op.args[0] < high


def test_brute_solutions_count():
    for p in (3, 13, 29, 997):
        sols = workloads.brute_solutions(p)
        assert len(sols) == len(set(sols)) == (p + 1) // 2
