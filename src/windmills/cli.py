"""Command-line front end: decompositions, two squares, lattice reports,
verification sweeps, irreducible-matrix counts, and SVG output."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from itertools import chain, islice
from math import gcd, isqrt
from typing import Iterable

from .decomp import (
    _WALK_LIMIT,
    _bruteforce_hits,
    _bruteforce_rows,
    _checked_rows,
    _irreducible_rows,
    _sorted_orbits,
    _walk_rows,
    irreducible_count,
    two_squares_fixed_point,
    two_squares_grace,
)
from .lattice2d import IVec2, SlopeClass, _reduce_slopes_raw, _shortest
from .numtheory import _inverses, _require_odd_prime
from .render import SvgDocument, _check_extent, _lattice_svg, _slope_view, tiling_svg
from .windmill import Solution, _windmill_pair_raw

_INPUT_BOUND = 2**62
# windmill bases listed by `lattice`; a slope lattice has at most about p/6
_BASES_LIMIT = 2 * 10**5

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
# 128 + SIGPIPE: what a shell reports for a process killed by a closed pipe
_EXIT_BROKEN_PIPE = 141
# `decompose` writes its listing this many entries at a time, rows or orbits
_PIECES_PER_WRITE = 1024
# json.dumps(payload, indent=2)'s layout of one row, and of one orbit entry
# around its representative row and its size
_JSON_ROW = "    [\n      %d,\n      %d,\n      %d,\n      %d\n    ]"
_JSON_ORBIT = (
    '    {\n      "rep": [\n        %d,\n        %d,\n        %d,\n        %d\n      ],\n'
    '      "size": %d\n    }'
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
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, n + 1, i)))
    return [i for i in range(3, n + 1, 2) if sieve[i]]


def _fmt_vec(w: IVec2) -> str:
    return f"({w.x}, {w.y})"


def _fmt_frac(n: int, den: int) -> str:
    # n/den in lowest terms, as str(Fraction(n, den)) prints it, for den > 0
    g = gcd(n, den)
    return f"{n // g}" if g == den else f"{n // g}/{den // g}"


# ---------------------------------------------------------------------------
# verification sweeps; the per-item workers sit at module level so that the
# --jobs fan-out can hand them to a process pool


def check_count(p: int) -> str | None:
    """Solution count |S_p| = (p+1)/2, by brute force: the two rows with
    c = 0 plus the swap-orbit size of each hit with 1 <= c <= d < a <= b.

    A hit stands for its orbit {(a, b), (b, a)} x {(c, d), (d, c)}, so no
    row set is built, and a hit found twice raises the count instead of
    hiding in a set.
    """
    n = 2
    for a, b, c, d in _bruteforce_hits(p):
        n += (1 if a == b else 2) * (1 if c == d else 2)
    if n != (p + 1) // 2:
        return f"p={p}: brute-force count {n} != {(p + 1) // 2}"
    return None


def check_oracle(p: int) -> str | None:
    """Fast enumeration equals the brute-force oracle as a set."""
    # brute force first: it proves p prime, and a faulty walk then shows up
    # in the comparison instead of failing the walk's own count
    brute = _bruteforce_rows(p)
    fast = set(_walk_rows(p))
    if fast != brute:
        diff = [Solution(*row, p) for row in sorted(fast ^ brute)[:4]]
        return f"p={p}: fast != brute force, first differences {diff}"
    return None


def check_color(p: int) -> str | None:
    """No windmill basis exactly on slopes 0, 1, p-1 and infinity; colors flip
    under mu -> p - mu and mu -> 1/mu; exactly (p-3)/2 black slopes."""
    # prove p prime once; a SlopeClass per slope would prove it again each time.
    # The cone pick on each slope's reduced basis tells existence and color;
    # the slopes are swept in order, so each is reduced from its neighbour.
    _require_odd_prime(p)
    bases = _reduce_slopes_raw(p, range(p))
    for mu in (0, 1):
        if _windmill_pair_raw(*next(bases)) is not None:
            return f"p={p}, mu={mu}: unexpected windmill basis"
    # black[mu] for mu in [2, p-2]; slopes 0 and 1 have no color
    black = [False, False]
    for mu, basis in zip(range(2, p - 1), bases):
        pair = _windmill_pair_raw(*basis)
        if pair is None:
            return f"p={p}, mu={mu}: missing windmill basis"
        black.append(pair[0])
    if _windmill_pair_raw(*next(bases)) is not None:
        return f"p={p}, mu={p - 1}: unexpected windmill basis"
    # (1, 0), (0, p) is already a reduced basis of infinity's lattice
    if _windmill_pair_raw(1, 0, 0, p) is not None:
        return f"p={p}, mu=infinity: unexpected windmill basis"
    inv = _inverses(p, p - 2)
    for mu in range(2, p - 1):
        is_black = black[mu]
        if black[p - mu] == is_black:
            return f"p={p}: colors of mu={mu} and p-mu={p - mu} do not flip"
        if black[inv[mu]] == is_black:
            return f"p={p}: colors of mu={mu} and 1/mu={inv[mu]} do not flip"
    blacks = sum(black)
    if blacks != (p - 3) // 2:
        return f"p={p}: {blacks} black slopes instead of {(p - 3) // 2}"
    return None


def check_irreducible(n: int) -> str | None:
    """Divisor-sum formula equals the exhaustive matrix enumeration."""
    count = irreducible_count(n)
    listed = _irreducible_rows(n)
    if count != len(listed):
        return f"n={n}: formula {count} != enumeration {len(listed)}"
    # IrreducibleMatrix.is_valid on plain rows: det n, b and c nonnegative,
    # and min(a, d) > max(b, c), spelled out, since min and max calls would
    # cost four times as much as the comparisons
    if any(
        a * d - b * c != n or b < 0 or c < 0 or a <= b or a <= c or d <= b or d <= c
        for a, b, c, d in listed
    ):
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
        # imported here: multiprocessing is a sizeable share of the CLI's
        # import time, and a one-process sweep never needs it
        from multiprocessing import Pool

        with Pool(jobs) as pool:
            results = pool.map(worker, items, chunksize=max(1, len(items) // (8 * jobs)))
    else:
        results = [worker(item) for item in items]
    return len(items), [message for message in results if message is not None]


# ---------------------------------------------------------------------------
# command handlers


def _write_filled(template: str, sep: str, entries: Iterable[tuple[int, ...]]) -> None:
    # write template % entry for each entry, sep between entries, to stdout
    # as they come: one % fills a chunk's joined templates from its flattened
    # numbers, so that no string per number or line, no list of every line
    # and no string of the whole output is built
    entries = iter(entries)
    lead = ""
    while chunk := list(islice(entries, _PIECES_PER_WRITE)):
        sys.stdout.write(lead)
        sys.stdout.write(sep.join([template] * len(chunk)) % tuple(chain.from_iterable(chunk)))
        lead = sep


def _cmd_decompose(args: argparse.Namespace) -> int:
    p = args.p
    rows, found = _checked_rows(p)
    rows.sort(reverse=True)
    orbits = _sorted_orbits(rows, found) if args.orbits else None
    # both formats are filled by template; the JSON is json.dumps(payload,
    # indent=2) of {"p": p, "count": len(rows), "solutions": rows, "orbits":
    # [{"rep": rep, "size": size}, ...]}, whose lists are never empty
    entries = None if orbits is None else ((*rep, size) for rep, size in orbits)
    if args.format == "json":
        sys.stdout.write(f'{{\n  "p": {p},\n  "count": {len(rows)},\n  "solutions": [\n')
        _write_filled(_JSON_ROW, ",\n", rows)
        if entries is not None:
            sys.stdout.write('\n  ],\n  "orbits": [\n')
            _write_filled(_JSON_ORBIT, ",\n", entries)
        sys.stdout.write("\n  ]\n}\n")
        return EXIT_OK
    sys.stdout.write(f"p = {p}\ncount = {len(rows)}\n")
    _write_filled("%d %d %d %d\n", "", rows)
    if entries is not None:
        sys.stdout.write("orbits (a b c d size):\n")
        _write_filled("%d %d %d %d %d\n", "", entries)
        sys.stdout.write(f"total {sum(size for _, size in orbits)}\n")
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
    # the extent is checked with or without --svg, so that an option out of
    # range never goes unnoticed
    _check_extent(args.extent)
    s = SlopeClass(args.p, args.mu)
    (vecs, verts, den), bases, standard = _slope_view(s)
    # check the listing cap, then render and write, before printing, so that
    # a refused input, a picture out of range or an unwritable path fails
    # with no output
    if bases is not None and bases.count > _BASES_LIMIT:
        raise ValueError(
            f"the lattice has {bases.count} windmill bases; "
            f"lattice lists at most {_BASES_LIMIT}"
        )
    if args.svg:
        _write_svg(_lattice_svg(s, args.extent, (vecs, verts, den), standard), args.svg)
    cell = ", ".join(f"({_fmt_frac(x, den)}, {_fmt_frac(y, den)})" for x, y in verts)
    sys.stdout.write(
        f"p = {s.p}, mu = {'infinity' if s.is_infinity else s.mu}\n"
        f"reduced basis: {_fmt_vec(vecs[0])}, {_fmt_vec(vecs[1])}\n"
        f"minimal vector: {_fmt_vec(_shortest(vecs[0], vecs[1]))}\n"
        f"voronoi vectors: {', '.join(_fmt_vec(w) for w in vecs)}\n"
        f"voronoi cell: {cell}\n"
    )
    if bases is None:
        tail = "no windmill basis\n"
    else:
        # the bases (m, f + k*m) stream by template, a chunk at a time
        m, f = bases.m, bases.f
        sys.stdout.write(f"windmill color: {bases.color.value}\nwindmill bases ({bases.count}): ")
        listing = ((m.x, m.y, f.x + k * m.x, f.y + k * m.y) for k in range(bases.count))
        _write_filled("(%d, %d), (%d, %d)", "; ", listing)
        if standard is None:
            tail = f"\nstandard solution: none (black partner: mu = {s.p - s.mu})\n"
        else:
            a, b, c, d = standard
            tail = f"\nstandard solution: ({a}, {b}, {c}, {d})   [{s.p} = {a}*{b} + {c}*{d}]\n"
    sys.stdout.write(tail + (f"wrote {args.svg}\n" if args.svg else ""))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    jobs = min(args.jobs, os.cpu_count() or 1)
    t0 = time.perf_counter()
    checked, failures = run_verify(args.mode, args.max_p, jobs)
    elapsed = time.perf_counter() - t0
    if args.format == "json":
        payload = {
            "command": "verify",
            "inputs": {"mode": args.mode, "max_p": args.max_p, "jobs": jobs},
            "results": {"checked": checked, "failures": failures},
            "timing_ms": elapsed * 1000.0,
        }
        print(json.dumps(payload, indent=2))
    else:
        for message in failures:
            print(f"FAIL {message}")
        status = "all pass" if not failures else f"{len(failures)} failures"
        print(f"verify mode={args.mode} max={args.max_p}: {checked} cases, {status} ({elapsed:.2f}s)")
    return EXIT_OK if not failures else EXIT_VIOLATION


def _cmd_irreducible(args: argparse.Namespace) -> int:
    count = irreducible_count(args.n)
    # enumerate before printing, so that a refused listing prints nothing
    listed = sorted(_irreducible_rows(args.n)) if args.list else []
    print(count)
    _write_filled("%d %d %d %d\n", "", listed)
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


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first call, not at import: parsing leaves the parser as it
    # was, and a build costs most of a short command's own time
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
    p_ver.add_argument("--jobs", type=_bounded_int, default=1, help="worker processes (default 1)")
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
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (`windmills decompose p | head`); point
        # stdout at devnull so that the flush at exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = _EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
