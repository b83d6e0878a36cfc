"""Command-line front end.

Exit codes: 0 success, 1 a verification failed (or a generated certificate
did not hold), 2 usage or input errors.  All output is deterministic for a
given invocation.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

from .construct import CensusEntry, census, census_counts
from .cyclic import cyclic_boundary
from .faces import format_complex, parse_complex
from .posets import (
    Antichain,
    enumerate_antichains,
    format_antichain,
    max_slope_element,
    parse_antichain,
    shift_down,
)
from .squeezed import relative_ball, relative_ball_general, squeezed_ball
from .verify import (
    Certificate,
    ball_sanity,
    find_shelling,
    is_i_neighborly,
    is_r_stacked,
    k2_shelling,
    sphere_sanity,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neighborly",
        description="Squeezed balls, sewn spheres, and their certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cyclic", help="facets of a cyclic polytope boundary")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("antichains", help="antichains of pair facets, one per line")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--contains-max", action="store_true",
                   help="only antichains through the maximal-slope pair facet")
    p.add_argument("--count-only", action="store_true")

    p = sub.add_parser("ball", help="squeezed or relative ball of an antichain")
    p.add_argument("--kind", choices=["squeezed", "relative"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--antichain", required=True,
                   help="pair-facet antichain, inline or @file")
    p.add_argument("--min-start", type=int, default=1,
                   help="keep facets whose labels start at or after this")
    p.add_argument("--subtract", default=None,
                   help="antichain to subtract (relative kind only)")

    p = sub.add_parser("verify", help="check a property of a facet file")
    p.add_argument("--input", required=True)
    p.add_argument("--check", required=True,
                   help="neighborly=I | stacked=R | shelling | sphere | ball")

    p = sub.add_parser("shelling", help="find or construct a shelling")
    p.add_argument("--input", default=None, help="facet file to search")
    p.add_argument("--budget", type=int, default=1_000_000)
    p.add_argument("--k2", action="store_true",
                   help="closed-form order for a two-pair relative ball")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--antichain", default=None)
    p.add_argument("--subtract", default=None)

    p = sub.add_parser("census", help="generate a certified census of spheres")
    p.add_argument("--parity", choices=["even", "odd"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", default=None, help="directory for facet files")
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("census-counts", help="census sizes against the lower bound")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)

    return parser


def _antichain_arg(raw: str, k: int, n: int) -> Antichain:
    if raw.startswith("@"):
        raw = Path(raw[1:]).read_text(encoding="utf-8").strip()
    return parse_antichain(raw, k, n)


def _print_certificate(cert: Certificate) -> int:
    print(json.dumps(cert.as_dict()))
    return 0 if cert.verdict is True else 1


def _cmd_cyclic(args: argparse.Namespace) -> int:
    sys.stdout.write(format_complex(cyclic_boundary(args.d, args.n)))
    return 0


def _cmd_antichains(args: argparse.Namespace) -> int:
    must = max_slope_element(args.k, args.n) if args.contains_max else None
    chains = enumerate_antichains(args.k, args.n, must_contain=must)
    if args.count_only:
        print(sum(1 for _ in chains))
        return 0
    for a in chains:
        print(format_antichain(a.to_pair_facets()))
    return 0


def _cmd_ball(args: argparse.Namespace) -> int:
    s = _antichain_arg(args.antichain, args.k, args.n)
    if args.kind == "squeezed":
        if args.subtract is not None:
            raise ValueError("--subtract only applies to relative balls")
        out = squeezed_ball(s, args.min_start)
    elif args.subtract is not None:
        t = _antichain_arg(args.subtract, args.k, args.n)
        out = relative_ball_general(s, t, args.min_start)
    else:
        if args.min_start != 1:
            raise ValueError("--min-start needs an explicit --subtract antichain")
        out = relative_ball(s)
    sys.stdout.write(format_complex(out))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    c = parse_complex(Path(args.input).read_text(encoding="utf-8"))
    check = args.check
    if check == "sphere":
        return _print_certificate(sphere_sanity(c))
    if check == "ball":
        return _print_certificate(ball_sanity(c))
    if check == "shelling":
        return _print_certificate(find_shelling(c))
    if "=" in check:
        name, _, value = check.partition("=")
        level = int(value)
        if name == "neighborly":
            top = c.vertices[-1] if not c.is_void and not c.is_empty else 0
            return _print_certificate(is_i_neighborly(c, level, range(1, top + 1)))
        if name == "stacked":
            return _print_certificate(is_r_stacked(c, level))
    raise ValueError(f"unknown check: {check!r}")


def _cmd_shelling(args: argparse.Namespace) -> int:
    if args.k2 == (args.input is not None):
        raise ValueError("use exactly one of --input or --k2")
    if args.k2:
        if args.k is None or args.n is None or args.antichain is None:
            raise ValueError("--k2 needs --k, --n and --antichain")
        s = _antichain_arg(args.antichain, args.k, args.n)
        t = (_antichain_arg(args.subtract, args.k, args.n)
             if args.subtract is not None else shift_down(s))
        order = k2_shelling(s, t)
        return _print_certificate(Certificate("shellable", True, witness=list(order)))
    c = parse_complex(Path(args.input).read_text(encoding="utf-8"))
    return _print_certificate(find_shelling(c, args.budget))


def _render(with_text: bool, e: CensusEntry) -> tuple[dict, str | None]:
    """The manifest record of one entry, without index and file, and its
    facet text, or None for the text when no file is written.

    `census` applies it in the process that built the entry, so a pool
    worker sends back these and not the entry's complexes.
    """
    record = {
        "antichain": format_antichain(e.antichain),
        "sphere_facets": len(e.sphere.maximal_faces),
        "ball_facets": len(e.ball.maximal_faces),
        "certificates": [
            {"property": c.property, "verdict": c.verdict} for c in e.certificates],
    }
    return record, format_complex(e.sphere) if with_text else None


def _cmd_census(args: argparse.Namespace) -> int:
    out_dir = None if args.out is None else Path(args.out)
    # checks the arguments
    rendered = census(args.parity, args.k, args.n, args.jobs,
                      then=partial(_render, out_dir is not None))
    if out_dir is not None:
        # an older manifest would name files this run overwrites or deletes
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "manifest.json").unlink(missing_ok=True)
    records = []
    for idx, (fields, text) in enumerate(rendered):
        record = {"index": idx, **fields}
        if text is not None:
            record["file"] = f"sphere_{idx:04d}.txt"
            (out_dir / record["file"]).write_text(text, encoding="utf-8")
        records.append(record)
    manifest = {"parity": args.parity, "k": args.k, "n": args.n,
                "count": len(records), "entries": records}
    text = json.dumps(manifest, indent=2) + "\n"
    if out_dir is None:
        sys.stdout.write(text)
        return 0
    # facet files of an earlier, larger run are not this manifest's
    written = {r["file"] for r in records}
    for stale in out_dir.glob("sphere_*.txt"):
        if stale.name not in written:
            stale.unlink()
    # written aside and renamed, so a manifest is either whole or absent
    tmp = out_dir / "manifest.json.tmp"
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(out_dir / "manifest.json")
    print(f"wrote {len(records)} spheres to {args.out}")
    return 0


def _cmd_census_counts(args: argparse.Namespace) -> int:
    if args.n_min > args.n_max:
        raise ValueError("--n-min must not exceed --n-max")
    rows = census_counts(args.k, range(args.n_min, args.n_max + 1))
    print("n census bound ok")
    ok_all = True
    for n, size, bound, ok in rows:
        print(f"{n} {size} {bound} {'yes' if ok else 'NO'}")
        ok_all = ok_all and ok
    return 0 if ok_all else 1


_DISPATCH = {
    "cyclic": _cmd_cyclic,
    "antichains": _cmd_antichains,
    "ball": _cmd_ball,
    "verify": _cmd_verify,
    "shelling": _cmd_shelling,
    "census": _cmd_census,
    "census-counts": _cmd_census_counts,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
