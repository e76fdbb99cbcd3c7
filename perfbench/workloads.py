"""Benchmark workloads: seeded inputs, the ops that drive the package in
process, and an independent check of every op's output.

Every workload is a closed loop with one caller: the next op starts only when
the previous one has returned, and nothing runs in parallel (jobs=1, no pool,
no threads).  A run repeats rounds; each round draws fresh inputs from the
seed and the round number, stratified over the input range so that every round
(and every seed) sees the same mix of input sizes.
"""

from __future__ import annotations

import importlib
import io
import random
import sys
import xml.etree.ElementTree as ET
from bisect import bisect_left
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import isqrt
from pathlib import Path
from types import ModuleType
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cli", "decomp", "windmill", "lattice2d", "numtheory", "render")

SVG = "{http://www.w3.org/2000/svg}"


class MissingPackage(Exception):
    pass


def load_package(src: Path = SRC) -> dict[str, ModuleType]:
    """Import windmills from the checkout's source tree, by module name.

    Refuses a windmills package found anywhere else, so that the benchmark
    never measures an installed copy instead of the code beside it.
    """
    init = src / "windmills" / "__init__.py"
    if not init.is_file():
        raise MissingPackage(f"no windmills package under {src}")
    sys.path.insert(0, str(src))
    mods = {"windmills": importlib.import_module("windmills")}
    if Path(mods["windmills"].__file__).resolve() != init.resolve():
        raise MissingPackage(f"windmills imported from {mods['windmills'].__file__}, not {src}")
    for name in MODULES:
        mods[name] = importlib.import_module(f"windmills.{name}")
    return mods


# ---------------------------------------------------------------------------
# inputs


def odd_primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(n - 1) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, n, i)))
    return [i for i in range(3, n, 2) if sieve[i]]


def log_strata(lo: float, hi: float, k: int) -> list[tuple[int, int]]:
    """k half-open integer ranges splitting [lo, hi) evenly on a log scale."""
    edges = [round(lo * (hi / lo) ** (i / k)) for i in range(k + 1)]
    return list(zip(edges, edges[1:]))


def lin_strata(lo: int, hi: int, k: int) -> list[tuple[int, int]]:
    """k half-open integer ranges splitting [lo, hi) evenly."""
    edges = [lo + (hi - lo) * i // k for i in range(k + 1)]
    return list(zip(edges, edges[1:]))


def brute_solutions(p: int) -> list[tuple[int, int, int, int]]:
    """All (a, b, c, d) with a*b + c*d = p and min(a, b) > max(c, d) >= 0,
    by the benchmark's own scan; used to pick tiling inputs."""
    out = []
    top = isqrt(p)
    for c in range(top + 1):
        for d in range(top + 1):
            r = p - c * d
            m = max(c, d)
            for a in range(m + 1, isqrt(max(r, 0)) + 1):
                if r % a == 0:
                    out.append((a, r // a, c, d))
                    if a * a != r:
                        out.append((r // a, a, c, d))
    return sorted(out)


class Inputs:
    """Prime tables the rounds draw from; built once per run, before timing."""

    def __init__(self) -> None:
        primes = odd_primes_below(10**5)
        self.by_residue = {r: [p for p in primes if p % 4 == r] for r in (1, 3)}
        self.primes = primes
        self._solutions: dict[int, list[tuple[int, int, int, int]]] = {}

    def pick(self, u: float, lo: int, hi: int, residue: int | None = None) -> int:
        """The odd prime at position u in [0, 1) among those in [lo, hi),
        optionally only those with p = residue (mod 4)."""
        pool = self.primes if residue is None else self.by_residue[residue]
        i, j = bisect_left(pool, lo), bisect_left(pool, hi)
        if i == j:
            raise ValueError(f"no prime in [{lo}, {hi}) with residue {residue}")
        return pool[i + int(u * (j - i))]

    def solutions(self, p: int) -> list[tuple[int, int, int, int]]:
        if p not in self._solutions:
            self._solutions[p] = brute_solutions(p)
        return self._solutions[p]


# ---------------------------------------------------------------------------
# ops: each runs one top-level call and returns (exit code, stdout or value, stderr)


def _cli(mods: dict, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = mods["cli"].main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_fn(name: str) -> Callable:
    def run(mods: dict, *args: int) -> tuple[int, str, str]:
        return 0, repr(getattr(mods["cli"], name)(*args)), ""

    return run


def _run_lattice_svg(mods: dict, p: int, mu: int, extent: int) -> tuple[int, str, str]:
    slope = mods["lattice2d"].SlopeClass(p, mu)
    return 0, mods["render"].lattice_svg(slope, extent).to_xml(), ""


def _run_tiling_svg(mods: dict, p: int, a: int, b: int, c: int, d: int, extent: int) -> tuple[int, str, str]:
    sol = mods["windmill"].Solution(a, b, c, d, p)
    return 0, mods["render"].tiling_svg(sol, extent).to_xml(), ""


# ---------------------------------------------------------------------------
# output checks: None when the output is right, else a one-line reason


def _valid(p: int, a: int, b: int, c: int, d: int) -> bool:
    return min(a, b, c, d) >= 0 and a * b + c * d == p and min(a, b) > max(c, d)


def _ints(line: str, k: int) -> tuple[int, ...]:
    fields = tuple(int(f) for f in line.split())
    if len(fields) != k:
        raise ValueError(f"expected {k} integers in {line!r}")
    return fields


def _exit_ok(code: int, err: str) -> str | None:
    if code != 0 or err:
        return f"exit code {code}, stderr {err.strip()!r}"
    return None


def check_decompose(p: int, code: int, text: str, err: str) -> str | None:
    """`decompose p --orbits`: (p+1)/2 distinct valid rows, orbit sizes summing to (p+1)/2."""
    bad = _exit_ok(code, err)
    if bad:
        return bad
    half = (p + 1) // 2
    lines = text.splitlines()
    if lines[:2] != [f"p = {p}", f"count = {half}"]:
        return f"header {lines[:2]!r}"
    if len(lines) < half + 4 or lines[2 + half] != "orbits (a b c d size):":
        return "solution rows or orbit header missing"
    try:
        rows = [_ints(line, 4) for line in lines[2 : 2 + half]]
        orbits = [_ints(line, 5) for line in lines[3 + half : -1]]
    except ValueError as exc:
        return str(exc)
    if len(set(rows)) != half:
        return "solution rows are not distinct"
    invalid = [row for row in rows if not _valid(p, *row)]
    if invalid:
        return f"invalid solution {invalid[0]}"
    if any(not _valid(p, a, b, c, d) or size not in (1, 2, 4) for a, b, c, d, size in orbits):
        return "invalid orbit row"
    if sum(row[4] for row in orbits) != half or lines[-1] != f"total {half}":
        return f"orbit sizes do not total {half}"
    return None


def check_two_squares(p: int, code: int, text: str, err: str) -> str | None:
    """`two-squares p`: a^2 + b^2 = p, and the methods' agreement line."""
    bad = _exit_ok(code, err)
    if bad:
        return bad
    lines = text.splitlines()
    if len(lines) != 2 or lines[1] != "agreement: grace == fixed-point":
        return f"unexpected output {lines!r}"
    try:
        a, b = _ints(lines[0], 2)
    except ValueError as exc:
        return str(exc)
    if a * a + b * b != p or not a >= b >= 1:
        return f"{a}^2 + {b}^2 != {p}"
    return None


def check_none(*args: int, code: int, text: str, err: str) -> str | None:
    """cli.check_*: the sweep worker returns None (no invariant violated)."""
    if text != "None":
        return f"worker reported {text}"
    return None


def check_lattice(p: int, mu: int, code: int, text: str, err: str) -> str | None:
    """`lattice p mu`: the standard solution is valid, or names the mirror slope."""
    bad = _exit_ok(code, err)
    if bad:
        return bad
    lines = text.splitlines()
    if not lines or lines[0] != f"p = {p}, mu = {mu}":
        return "header line"
    std = [line for line in lines if line.startswith("standard solution: ")]
    if len(std) != 1:
        return "no standard solution line"
    rest = std[0][len("standard solution: ") :]
    if rest.startswith("none"):
        if rest != f"none (black partner: mu = {p - mu})":
            return f"wrong black partner in {rest!r}"
        return None
    try:
        a, b, c, d = (int(f) for f in rest.split(")")[0].strip("(").split(","))
    except ValueError:
        return f"unparsable standard solution {rest!r}"
    if not _valid(p, a, b, c, d):
        return f"invalid standard solution {(a, b, c, d)}"
    return None


def _svg_root(text: str) -> ET.Element:
    root = ET.fromstring(text)
    if root.tag != f"{SVG}svg":
        raise ValueError(f"root element {root.tag}")
    return root


def check_lattice_svg(p: int, mu: int, extent: int, code: int, text: str, err: str) -> str | None:
    """lattice_svg: parses as SVG and draws exactly the lattice points in the window."""
    try:
        root = _svg_root(text)
    except (ET.ParseError, ValueError) as exc:
        return f"SVG does not parse: {exc}"
    want = sum(
        1
        for x in range(-extent, extent + 1)
        for y in range(-extent, extent + 1)
        if (x + mu * y) % p == 0
    )
    got = sum(1 for _ in root.iter(f"{SVG}circle"))
    if got != want:
        return f"{got} lattice points drawn, {want} expected"
    return None


def check_tiling_svg(p: int, a: int, b: int, c: int, d: int, extent: int, code: int, text: str, err: str) -> str | None:
    """tiling_svg: parses as SVG with one or two rectangles per translate."""
    try:
        root = _svg_root(text)
    except (ET.ParseError, ValueError) as exc:
        return f"SVG does not parse: {exc}"
    want = (2 * extent + 1) ** 2 * (2 if c * d else 1)
    got = sum(1 for _ in root.iter(f"{SVG}rect"))
    if got != want:
        return f"{got} tiles drawn, {want} expected"
    return None


@dataclass(frozen=True)
class Kind:
    run: Callable[..., tuple[int, str, str]]
    check: Callable[..., str | None]
    slopes: Callable[..., int]  # slope lattices covered, from the inputs alone


KINDS = {
    "decompose": Kind(
        lambda mods, p: _cli(mods, ["decompose", str(p), "--orbits"]),
        check_decompose,
        lambda p: p + 1,
    ),
    # default --method both: the fixed point walks all p+1 slopes, grace reduces one lattice
    "two_squares": Kind(
        lambda mods, p: _cli(mods, ["two-squares", str(p)]),
        check_two_squares,
        lambda p: p + 2,
    ),
    "check_count": Kind(_check_fn("check_count"), check_none, lambda p: 0),
    "check_irreducible": Kind(_check_fn("check_irreducible"), check_none, lambda n: 0),
    "check_oracle": Kind(_check_fn("check_oracle"), check_none, lambda p: p + 1),
    "check_color": Kind(_check_fn("check_color"), check_none, lambda p: p + 1),
    "lattice": Kind(
        lambda mods, p, mu: _cli(mods, ["lattice", str(p), str(mu)]),
        check_lattice,
        lambda p, mu: 1,
    ),
    "lattice_svg": Kind(_run_lattice_svg, check_lattice_svg, lambda p, mu, extent: 1),
    "tiling_svg": Kind(_run_tiling_svg, check_tiling_svg, lambda *args: 0),
}


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple[int, ...]

    @property
    def label(self) -> str:
        return f"{self.kind}{self.args}"

    @property
    def slopes(self) -> int:
        return KINDS[self.kind].slopes(*self.args)

    def run(self, mods: dict) -> tuple[int, str, str]:
        return KINDS[self.kind].run(mods, *self.args)

    def check(self, code: int, text: str, err: str) -> str | None:
        return KINDS[self.kind].check(*self.args, code=code, text=text, err=err)


# ---------------------------------------------------------------------------
# workloads


GOLDEN = (5**0.5 - 1) / 2


class Spots:
    """Positions in [0, 1) for the stratified draws of one round.

    The k-th draw of round r sits at (offset_k + r * GOLDEN) mod 1, with
    offset_k drawn from the seed alone.  This Weyl sequence spreads each
    stratum's draws evenly over the rounds, so that runs with different seeds
    see nearly the same distribution of input sizes.
    """

    def __init__(self, key: str, index: int) -> None:
        self._offsets = random.Random(key)
        self._shift = index * GOLDEN

    def __call__(self) -> float:
        return (self._offsets.random() + self._shift) % 1.0


def _decompose_round(inputs: Inputs, rng: random.Random, spot: Spots) -> list[Op]:
    # Walk-bound: fast enumeration, sorting and printing; brute force never runs.
    ops = []
    for lo, hi in log_strata(10**3, 10**5, 12):
        p1 = inputs.pick(spot(), lo, hi, residue=1)
        p3 = inputs.pick(spot(), lo, hi, residue=3)
        ops += [Op("decompose", (p1,)), Op("two_squares", (p1,)), Op("decompose", (p3,))]
    rng.shuffle(ops)
    return ops


def _verify_round(inputs: Inputs, rng: random.Random, spot: Spots) -> list[Op]:
    # Oracle-bound: brute-force S_p and the exhaustive matrix scan; the walk
    # runs only in the oracle minority.
    ops = [Op("check_count", (inputs.pick(spot(), lo, hi),)) for lo, hi in log_strata(10**3, 10**5, 12)]
    ops += [Op("check_irreducible", (lo + int(spot() * (hi - lo)),)) for lo, hi in lin_strata(1, 2001, 12)]
    ops += [Op("check_oracle", (inputs.pick(spot(), lo, hi),)) for lo, hi in log_strata(10**3, 2 * 10**4, 4)]
    rng.shuffle(ops)
    return ops


def _geometry_round(inputs: Inputs, rng: random.Random, spot: Spots) -> list[Op]:
    # Object API: SlopeClass, gauss_reduce, Voronoi data and windmill basis
    # sets on dataclasses, plus the SVG renderers.  The op counts put the
    # median latency inside the group of `lattice` commands, not on the edge
    # between two groups of ops of different cost.
    ops = [Op("check_color", (inputs.pick(spot(), lo, hi),)) for lo, hi in log_strata(100, 5000, 6)]
    for _ in range(8):
        p = inputs.pick(spot(), 5, 1000)
        ops.append(Op("lattice", (p, rng.randint(2, p - 2))))
    for _ in range(6):
        p = inputs.pick(spot(), 5, 1000)
        ops.append(Op("lattice_svg", (p, rng.randint(2, p - 2), rng.randint(4, 10))))
    for _ in range(4):
        p = inputs.pick(spot(), 5, 1000)
        ops.append(Op("tiling_svg", (p, *rng.choice(inputs.solutions(p)), rng.randint(1, 4))))
    rng.shuffle(ops)
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    make_round: Callable[[Inputs, random.Random, Spots], list[Op]]
    warm_up: tuple[Op, ...]  # small ops run untimed before measuring
    trace_rounds: int  # rounds in a traced run; fixed, so call counts repeat exactly

    def round(self, inputs: Inputs, seed: int, index: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        return self.make_round(inputs, rng, Spots(f"{self.name}:{seed}", index))


WORKLOADS = {
    "decompose": Workload(
        "decompose",
        _decompose_round,
        (Op("decompose", (1009,)), Op("two_squares", (1009,)), Op("decompose", (1019,))),
        1,
    ),
    "verify": Workload(
        "verify",
        _verify_round,
        (Op("check_count", (1009,)), Op("check_irreducible", (50,)), Op("check_oracle", (1009,))),
        2,
    ),
    "geometry": Workload(
        "geometry",
        _geometry_round,
        (
            Op("check_color", (101,)),
            Op("lattice", (13, 7)),
            Op("lattice_svg", (13, 7, 8)),
            Op("tiling_svg", (13, 6, 2, 1, 1, 3)),
        ),
        4,
    ),
}
