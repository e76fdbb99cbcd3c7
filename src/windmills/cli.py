"""Command-line front end: decompositions, two squares, lattice reports,
verification sweeps, irreducible-matrix counts, and SVG output."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from multiprocessing import Pool

from .decomp import (
    _WALK_LIMIT,
    _checked_rows,
    _orbit_table,
    enumerate_bruteforce,
    enumerate_fast,
    irreducible_count,
    irreducible_enumerate,
    two_squares_fixed_point,
    two_squares_grace,
)
from .lattice2d import (
    IVec2,
    LatticeBasis,
    SlopeClass,
    gauss_reduce,
    lambda_mu,
    minimal_vector,
    upper_rep,
    voronoi_cell,
)
from .numtheory import _require_odd_prime
from .render import SvgDocument, lattice_svg, tiling_svg
from .windmill import Color, Solution, all_windmill_bases, fast_solution_for_pair

_INPUT_BOUND = 2**62

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class Report:
    """Machine-readable command report; round-trips losslessly through JSON."""

    command: str
    inputs: dict
    results: dict
    timing_ms: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> Report:
        data = json.loads(text)
        return cls(
            command=data["command"],
            inputs=data["inputs"],
            results=data["results"],
            timing_ms=data["timing_ms"],
        )


def _bounded_int(text: str) -> int:
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a decimal integer")
    if abs(value) >= _INPUT_BOUND:
        raise argparse.ArgumentTypeError("magnitude must stay below 2**62")
    return value


def _odd_primes_up_to(n: int) -> list[int]:
    if n < 3:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(3, n + 1, 2) if sieve[i]]


def _fmt_vec(w: IVec2) -> str:
    return f"({w.x}, {w.y})"


def _fmt_vertex(v: tuple[Fraction, Fraction]) -> str:
    return f"({v[0]}, {v[1]})"


# ---------------------------------------------------------------------------
# verification sweeps; the per-item workers sit at module level so that the
# --jobs fan-out can hand them to a process pool


def check_count(p: int) -> str | None:
    """Solution count |S_p| = (p+1)/2, by brute force."""
    n = len(enumerate_bruteforce(p))
    if n != (p + 1) // 2:
        return f"p={p}: brute-force count {n} != {(p + 1) // 2}"
    return None


def check_oracle(p: int) -> str | None:
    """Fast enumeration equals the brute-force oracle as a set."""
    fast = enumerate_fast(p)
    brute = enumerate_bruteforce(p)
    if fast != brute:
        diff = sorted((fast ^ brute))[:4]
        return f"p={p}: fast != brute force, first differences {diff}"
    return None


def check_color(p: int) -> str | None:
    """No windmill basis exactly on slopes 0, 1, p-1 and infinity; colors flip
    under mu -> p - mu and mu -> 1/mu; exactly (p-3)/2 black slopes."""
    # prove p prime once; a SlopeClass per slope would prove it again each time
    _require_odd_prime(p)
    colors: dict[int, Color] = {}
    for mu in range(p):
        found_set = all_windmill_bases(LatticeBasis(IVec2(p, 0), IVec2(-mu, 1)))
        if mu in (0, 1, p - 1):
            if found_set is not None:
                return f"p={p}, mu={mu}: unexpected windmill basis"
        elif found_set is None:
            return f"p={p}, mu={mu}: missing windmill basis"
        else:
            colors[mu] = found_set.color
    if all_windmill_bases(LatticeBasis(IVec2(1, 0), IVec2(0, p))) is not None:
        return f"p={p}, mu=infinity: unexpected windmill basis"
    for mu, color in colors.items():
        if colors[p - mu] == color:
            return f"p={p}: colors of mu={mu} and p-mu={p - mu} do not flip"
        if colors[pow(mu, -1, p)] == color:
            return f"p={p}: colors of mu={mu} and 1/mu={pow(mu, -1, p)} do not flip"
    blacks = sum(1 for color in colors.values() if color is Color.BLACK)
    if blacks != (p - 3) // 2:
        return f"p={p}: {blacks} black slopes instead of {(p - 3) // 2}"
    return None


def check_irreducible(n: int) -> str | None:
    """Divisor-sum formula equals the exhaustive matrix enumeration."""
    count = irreducible_count(n)
    listed = irreducible_enumerate(n)
    if count != len(listed):
        return f"n={n}: formula {count} != enumeration {len(listed)}"
    if any(not m.is_valid() for m in listed):
        return f"n={n}: enumeration produced an invalid matrix"
    if len(set(listed)) != len(listed):
        return f"n={n}: enumeration produced a duplicate matrix"
    return None


_VERIFY_MODES = {
    "count": (check_count, "primes", 10**5),
    "oracle": (check_oracle, "primes", 6 * 10**4),
    "color": (check_color, "primes", 4 * 10**4),
    "irreducible": (check_irreducible, "integers", 10**4),
}


def run_verify(mode: str, max_n: int, jobs: int = 1) -> tuple[int, list[str]]:
    """Run one invariant sweep; returns (cases checked, failure messages)."""
    worker, kind, cap = _VERIFY_MODES[mode]
    if not 1 <= max_n <= cap:
        raise ValueError(f"mode {mode} accepts bounds in [1, {cap}]")
    items = _odd_primes_up_to(max_n) if kind == "primes" else list(range(1, max_n + 1))
    if jobs > 1 and len(items) > 1:
        with Pool(jobs) as pool:
            results = pool.map(worker, items, chunksize=max(1, len(items) // (8 * jobs)))
    else:
        results = [worker(item) for item in items]
    return len(items), [message for message in results if message is not None]


# ---------------------------------------------------------------------------
# command handlers


def _cmd_decompose(args: argparse.Namespace) -> int:
    p = args.p
    found = _checked_rows(p)
    rows = sorted(found, reverse=True)
    orbits = sorted(_orbit_table(found).items(), reverse=True) if args.orbits else None
    if args.format == "json":
        payload: dict = {"p": p, "count": len(rows), "solutions": [list(row) for row in rows]}
        if orbits is not None:
            payload["orbits"] = [{"rep": list(rep), "size": size} for rep, size in orbits]
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    lines = [f"p = {p}", f"count = {len(rows)}"]
    lines += [f"{a} {b} {c} {d}" for a, b, c, d in rows]
    if orbits is not None:
        lines.append("orbits (a b c d size):")
        lines += [f"{a} {b} {c} {d} {size}" for (a, b, c, d), size in orbits]
        lines.append(f"total {sum(size for _, size in orbits)}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_two_squares(args: argparse.Namespace) -> int:
    p = args.p
    # by default cross-check both methods wherever the fixed point's walk is
    # allowed, and take the O(log p) reduction alone above that
    method = args.method or ("both" if p <= _WALK_LIMIT else "grace")
    if method == "grace":
        a, b = two_squares_grace(p)
    elif method == "fixed-point":
        a, b = two_squares_fixed_point(p)
    else:
        grace = two_squares_grace(p)
        fixed = two_squares_fixed_point(p)
        if grace != fixed:
            print(f"error: methods disagree: grace {grace}, fixed-point {fixed}", file=sys.stderr)
            return EXIT_VIOLATION
        a, b = grace
    print(f"{a} {b}")
    if method == "both":
        print("agreement: grace == fixed-point")
    return EXIT_OK


def _slope_arg(text: str) -> int | None:
    # the finite slope as a bounded integer, or None for the slope at infinity
    return None if text in ("inf", "infinity") else _bounded_int(text)


def _write_svg(doc: SvgDocument, path: str) -> None:
    try:
        doc.write(path)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _cmd_lattice(args: argparse.Namespace) -> int:
    s = SlopeClass(args.p, args.mu)
    # render and write before printing, so that a picture out of range or an
    # unwritable path fails with no output
    if args.svg:
        _write_svg(lattice_svg(s, args.extent), args.svg)
    basis = lambda_mu(s)
    red = gauss_reduce(basis)
    data = voronoi_cell(basis)
    print(f"p = {s.p}, mu = {'infinity' if s.is_infinity else s.mu}")
    print(f"reduced basis: {_fmt_vec(upper_rep(red.u))}, {_fmt_vec(upper_rep(red.v))}")
    print(f"minimal vector: {_fmt_vec(minimal_vector(basis))}")
    print(f"voronoi vectors: {', '.join(_fmt_vec(w) for w in data.vectors)}")
    print(f"voronoi cell: {', '.join(_fmt_vertex(v) for v in data.cell_vertices)}")
    bases = all_windmill_bases(basis)
    if bases is None:
        print("no windmill basis")
    else:
        print(f"windmill color: {bases.color.value}")
        listed = "; ".join(
            f"{_fmt_vec(e)}, {_fmt_vec(f)}" for e, f in bases.bases()
        )
        print(f"windmill bases ({bases.count}): {listed}")
        partner, sol = fast_solution_for_pair(s)
        if bases.color is Color.BLACK:
            print(
                f"standard solution: ({sol.a}, {sol.b}, {sol.c}, {sol.d})"
                f"   [{s.p} = {sol.a}*{sol.b} + {sol.c}*{sol.d}]"
            )
        else:
            print(f"standard solution: none (black partner: mu = {partner.mu})")
    if args.svg:
        print(f"wrote {args.svg}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.jobs is not None:
        jobs = args.jobs
    else:
        env = os.environ.get("WINDMILL_JOBS", "1")
        try:
            jobs = int(env, 10)
        except ValueError:
            raise ValueError(
                f"WINDMILL_JOBS must be a positive decimal integer, got {env!r}"
            ) from None
    if jobs < 1:
        raise ValueError(f"--jobs and WINDMILL_JOBS must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    t0 = time.perf_counter()
    checked, failures = run_verify(args.mode, args.max_p, jobs)
    elapsed = time.perf_counter() - t0
    report = Report(
        command="verify",
        inputs={"mode": args.mode, "max_p": args.max_p, "jobs": jobs},
        results={"checked": checked, "failures": failures},
        timing_ms=elapsed * 1000.0,
    )
    if args.format == "json":
        print(report.to_json())
    else:
        for message in failures:
            print(f"FAIL {message}")
        status = "all pass" if not failures else f"{len(failures)} failures"
        print(f"verify mode={args.mode} max={args.max_p}: {checked} cases, {status} ({elapsed:.2f}s)")
    return EXIT_OK if not failures else EXIT_VIOLATION


def _cmd_irreducible(args: argparse.Namespace) -> int:
    count = irreducible_count(args.n)
    # enumerate before printing, so that a refused listing prints nothing
    listed = irreducible_enumerate(args.n) if args.list else []
    print(count)
    for m in listed:
        print(f"{m.a} {m.b} {m.c} {m.d}")
    return EXIT_OK


def _cmd_tiling(args: argparse.Namespace) -> int:
    _require_odd_prime(args.p)
    sol = Solution(args.a, args.b, args.c, args.d, args.p)
    if not sol.is_valid():
        raise ValueError(
            f"({args.a}, {args.b}, {args.c}, {args.d}) is not a solution for p = {args.p}"
        )
    _write_svg(tiling_svg(sol, args.extent), args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="windmills",
        description="Decompositions p = a*b + c*d with min(a,b) > max(c,d), "
        "windmill bases, and planar lattice geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="list all solutions for an odd prime")
    p_dec.add_argument("p", type=_bounded_int)
    p_dec.add_argument("--orbits", action="store_true", help="print the orbit table")
    p_dec.add_argument("--format", choices=("text", "json"), default="text")
    p_dec.set_defaults(func=_cmd_decompose)

    p_two = sub.add_parser("two-squares", help="write p = 1 (mod 4) as a sum of two squares")
    p_two.add_argument("p", type=_bounded_int)
    p_two.add_argument(
        "--method",
        choices=("grace", "fixed-point", "both"),
        help=f"default: both for p <= {_WALK_LIMIT}, grace above",
    )
    p_two.set_defaults(func=_cmd_two_squares)

    p_lat = sub.add_parser("lattice", help="report on the slope lattice of (p, mu)")
    p_lat.add_argument("p", type=_bounded_int)
    p_lat.add_argument("mu", type=_slope_arg, help="slope in [0, p) or 'inf'")
    p_lat.add_argument("--svg", metavar="PATH", help="also write an SVG picture")
    p_lat.add_argument("--extent", type=_bounded_int, default=8)
    p_lat.set_defaults(func=_cmd_lattice)

    p_ver = sub.add_parser("verify", help="run an invariant sweep")
    p_ver.add_argument("--max-p", type=_bounded_int, required=True)
    p_ver.add_argument("--mode", choices=sorted(_VERIFY_MODES), required=True)
    p_ver.add_argument("--jobs", type=_bounded_int, help="worker processes (default WINDMILL_JOBS or 1)")
    p_ver.add_argument("--format", choices=("text", "json"), default="text")
    p_ver.set_defaults(func=_cmd_verify)

    p_irr = sub.add_parser("irreducible", help="count irreducible matrices of determinant n")
    p_irr.add_argument("n", type=_bounded_int)
    p_irr.add_argument("--list", action="store_true", help="also list the matrices")
    p_irr.set_defaults(func=_cmd_irreducible)

    p_til = sub.add_parser("tiling", help="write the tiling SVG of a solution")
    p_til.add_argument("p", type=_bounded_int)
    p_til.add_argument("a", type=_bounded_int)
    p_til.add_argument("b", type=_bounded_int)
    p_til.add_argument("c", type=_bounded_int)
    p_til.add_argument("d", type=_bounded_int)
    p_til.add_argument("--out", metavar="PATH", required=True)
    p_til.add_argument("--extent", type=_bounded_int, default=3)
    p_til.set_defaults(func=_cmd_tiling)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
