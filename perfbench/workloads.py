"""The benchmark's workloads: inputs made from a seed, the timed call, the output check.

Timed calls go through module attributes (``construct.even_census``), so a
tracer installed after this module is imported sees them.  Output checks
use the names bound below at import time, before any tracer is installed,
so checking adds nothing to the traced layers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shutil
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from neighborly import cli, construct, posets, squeezed, verify  # noqa: E402
from neighborly.faces import format_complex  # noqa: E402
from neighborly.posets import Antichain, format_antichain, maximal_elements  # noqa: E402

FROZEN_DIR = BENCH_DIR / "frozen"
# node budget of the shelling search; every ball of the k=4, n=13 family is
# decided within it
SHELLING_BUDGET = 1000
# worker processes of the census command
CENSUS_JOBS = 2


class Exhausted(Exception):
    """The workload has no further inputs."""


class CheckFailed(Exception):
    """An output differs from what it must be."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_frozen(frozen):
    """Frozen digests: a file name under frozen/, the digests themselves, or None (no check)."""
    if isinstance(frozen, str):
        return json.loads((FROZEN_DIR / frozen).read_text(encoding="utf-8"))
    return frozen


def entry_digest(entry) -> str:
    """Digest of one census entry: antichain text, sphere facet text, certificates."""
    certs = json.dumps([c.as_dict() for c in entry.certificates], sort_keys=True)
    return digest(f"{format_antichain(entry.antichain)}\n{format_complex(entry.sphere)}{certs}")


class CensusEven:
    """One item is one entry yielded by ``even_census(k, n)``; the seed is ignored."""

    def __init__(self, seed: int, k: int = 4, n: int = 12, frozen="census_even.json"):
        self.k, self.n = k, n
        self.frozen = load_frozen(frozen)

    def setup(self) -> None:
        self.entries = construct.even_census(self.k, self.n)
        self.index = 0

    def next_input(self) -> int:
        self.index += 1
        return self.index - 1

    def work(self, index: int):
        entry = next(self.entries, None)
        if entry is None:
            raise Exhausted
        return entry

    def check(self, index: int, entry) -> str:
        d = entry_digest(entry)
        if self.frozen is not None and (index >= len(self.frozen) or self.frozen[index] != d):
            raise CheckFailed(f"entry {index} digest {d[:12]} differs from the frozen one")
        return d

    def check_exhausted(self, count: int) -> None:
        if self.frozen is not None and count != len(self.frozen):
            raise CheckFailed(f"census ended after {count} entries, expected {len(self.frozen)}")


class Lemmas:
    """One item is one seeded pair (S, T) with S non-empty and T strictly below S.

    S is drawn uniformly from every antichain of grid points; T is the set of
    maximal elements of up to three points drawn from the strict down-set of S.
    The item runs the criterion-4 checks of the decomposition lemmas.
    """

    def __init__(self, seed: int, k: int = 4, n: int = 12):
        self.k, self.n = k, n
        self.rng = random.Random(seed)

    def setup(self) -> None:
        self.chains = [a for a in posets.enumerate_antichains(self.k, self.n) if a.elements]
        self.points = posets.grid_points(self.k, self.n)

    def next_input(self):
        s = self.rng.choice(self.chains)
        below = [p for p in self.points
                 if any(all(x < y for x, y in zip(p, e)) for e in s.elements)]
        picked = self.rng.sample(below, self.rng.randint(0, min(3, len(below))))
        t = Antichain(self.k, self.n, maximal_elements(picked), grid=True)
        return s.to_pair_facets(), t.to_pair_facets()

    def work(self, pair):
        s, t = pair
        n = self.n
        rel = squeezed.relative_ball_general(s, t, 1)
        blocks = {j: squeezed.block_D(s, t, j) for j in range(1, n)}
        intersections = tuple(
            squeezed.verify_intersection_formula(s, t, j)
            for j in range(1, n - 1) if not blocks[j + 1].is_void)
        decompositions = tuple(squeezed.verify_decomposition(s, i) for i in range(1, n + 1))
        return rel, blocks, intersections, decompositions

    def check(self, pair, out) -> str:
        s, t = pair
        rel, blocks, intersections, decompositions = out
        union = set()
        for d in blocks.values():
            if not d.is_void:
                union |= d.maximal_faces
        if union != rel.maximal_faces:
            raise CheckFailed(f"blocks of {s.elements} - {t.elements} do not cover the relative ball")
        if not all(v is True for v in intersections + decompositions):
            raise CheckFailed(f"a lemma check failed for {s.elements} - {t.elements}")
        return digest(repr((s.elements, t.elements, sorted(rel.maximal_faces),
                            intersections, decompositions)))


class Shelling:
    """One item is one seeded antichain of the census family: relative ball,
    a bounded shelling search, then the shelling check of the order found."""

    def __init__(self, seed: int, k: int = 4, n: int = 13):
        self.k, self.n = k, n
        self.rng = random.Random(seed)

    def setup(self) -> None:
        self.family = list(posets.enumerate_antichains(
            self.k, self.n, must_contain=posets.max_slope_element(self.k, self.n)))

    def next_input(self):
        return self.rng.choice(self.family).to_pair_facets()

    def work(self, s):
        ball = squeezed.relative_ball(s)
        found = verify.find_shelling(ball, SHELLING_BUDGET)
        checked = verify.is_shelling(ball, found.witness) if found.verdict is True else None
        return ball, found, checked

    def check(self, s, out) -> str:
        ball, found, checked = out
        if found.verdict is not True:
            raise CheckFailed(f"shelling search for {s.elements} gave verdict {found.verdict}")
        if checked.verdict is not True:
            raise CheckFailed(f"order found for {s.elements} is not a shelling")
        return digest(repr((s.elements, sorted(ball.maximal_faces), found.witness)))


class CensusOddCli:
    """One run of ``neighborly census --parity odd ... --out DIR --jobs 2``.

    One item is one sphere file written.  An item's latency is the time from
    the start of the command until its file was last modified, as a user
    watching the directory would see it.  The seed is ignored.
    """

    def __init__(self, seed: int, out_dir: str, k: int = 4, n: int = 12,
                 frozen="census_odd_cli.json"):
        self.k, self.n = k, n
        self.frozen = load_frozen(frozen)
        self.out_dir = Path(out_dir)

    def setup(self) -> None:
        if self.out_dir.exists():
            shutil.rmtree(self.out_dir)

    def invoke(self):
        """Run the command once; returns (exit code, latencies, wall seconds)."""
        argv = ["census", "--parity", "odd", "--k", str(self.k), "--n", str(self.n),
                "--out", str(self.out_dir), "--jobs", str(CENSUS_JOBS)]
        start_ns = time.time_ns()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(argv)
        wall = time.perf_counter() - t0
        files = sorted(self.out_dir.glob("sphere_*.txt")) if self.out_dir.is_dir() else []
        latencies = [max(0, f.stat().st_mtime_ns - start_ns) / 1e9 for f in files]
        return code, latencies, wall

    def check(self, code: int) -> tuple[int, int, list[str], dict]:
        """(attempted, failed, digests, written) for the directory the command left."""
        files = sorted(self.out_dir.glob("sphere_*.txt")) if self.out_dir.is_dir() else []
        got = [digest(f.read_text(encoding="utf-8")) for f in files]
        manifest = self.out_dir / "manifest.json"
        got_manifest = digest(manifest.read_text(encoding="utf-8")) if manifest.is_file() else None
        written = {"files": len(files) + (got_manifest is not None),
                   "bytes": sum(f.stat().st_size for f in files)
                   + (manifest.stat().st_size if got_manifest else 0)}
        if self.frozen is None:
            return len(got), 0 if code == 0 else len(got), [got_manifest] + got, written
        want = self.frozen["files"]
        attempted = max(len(want), len(got))
        if code != 0 or got_manifest != self.frozen["manifest"]:
            failed = attempted
        else:
            failed = attempted - sum(1 for a, b in zip(got, want) if a == b)
        return attempted, failed, [got_manifest] + got, written


WORKLOADS = {
    "census-even": CensusEven,
    "census-odd-cli": CensusOddCli,
    "lemmas": Lemmas,
    "shelling": Shelling,
}
