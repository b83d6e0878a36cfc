"""One fresh interpreter of the benchmark: set up a workload, then measure or probe.

    python3 perfbench/worker.py MODE WORKLOAD SPEC_JSON RESULT_PATH

MODE is ``setup`` (set up, report readiness, exit), ``measure`` (set up,
then run items until the deadline or the item limit in SPEC, traced if
SPEC names a ``spans_path``) or ``probe`` (run the README command lines).  A ``READY`` line goes to stdout once
set-up is done, so the parent can time interpreter start, import and
set-up together.  It carries the calibrations run right before the import
and right after set-up, and the seconds they took.  Results go to
RESULT_PATH as JSON.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shlex
import statistics
import sys
import time
from pathlib import Path

from clock import calibrate, calibrate_spread, scaled

# a run that stops at a deadline reports the peak RSS reached after this many
# items, so that it covers the same work however fast the machine runs; a
# run over a fixed set of items (a whole census) reports it at the end
RSS_ITEMS = 100


def _calibrate_warm() -> float:
    """Median of three calibrations; the first call in a fresh interpreter
    runs cold and is discarded."""
    calibrate()
    return statistics.median(calibrate() for _ in range(3))


def _ready(before: float, after: float, spent: float) -> None:
    sys.stdout.write(f"READY {before} {after} {spent}\n")
    sys.stdout.flush()


def _peak_rss_kib(children: bool) -> int:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak


def run_items(wl, seconds: float | None, limit: int | None) -> dict:
    """Closed loop over the workload's items; inputs, calibration and checks are untimed."""
    from workloads import CheckFailed, Exhausted

    latencies, raw, digests, errors = [], [], [], []
    attempted = failed = 0
    peak_kib = None
    exhausted = False
    deadline = None if seconds is None else time.perf_counter() + seconds
    before = (calibrate() + calibrate()) / 2
    while (limit is None or attempted < limit) and (
            deadline is None or time.perf_counter() < deadline):
        x = wl.next_input()
        t0 = time.perf_counter()
        try:
            out = wl.work(x)
        except Exhausted:
            exhausted = True
            break
        except Exception as exc:  # a failed item is counted, not fatal
            out, error = None, exc
        else:
            error = None
        elapsed = time.perf_counter() - t0
        after = (calibrate() + calibrate()) / 2
        latencies.append(scaled(elapsed, (before + after) / 2))
        raw.append(elapsed)
        before = after
        attempted += 1
        if deadline is not None and attempted == RSS_ITEMS:
            peak_kib = _peak_rss_kib(children=False)
        if error is None:
            try:
                digests.append(wl.check(x, out))
                continue
            except CheckFailed as exc:
                error = exc
        failed += 1
        digests.append(None)
        errors.append(repr(error))
    if exhausted:
        try:
            wl.check_exhausted(attempted)
        except CheckFailed as exc:
            failed += 1
            attempted += 1
            errors.append(repr(exc))
    return {"attempted": attempted, "failed": failed, "latencies": latencies,
            "raw_latencies": raw, "digests": digests, "errors": errors[:5],
            "phase_s": sum(latencies), "raw_phase_s": sum(raw),
            "peak_rss_kib": peak_kib or _peak_rss_kib(children=False)}


def run_cli(wl) -> dict:
    # the command's work runs in pool processes that this one cannot
    # bracket, so the calibrations are spread out before and after it
    before = calibrate_spread()
    code, raw, wall = wl.invoke()
    cal = statistics.mean(before + calibrate_spread())
    attempted, failed, digests, written = wl.check(code)
    return {"attempted": attempted, "failed": failed,
            "latencies": [scaled(t, cal) for t in raw], "raw_latencies": raw,
            "digests": digests,
            "errors": [f"{failed} of {attempted} files wrong, exit code {code}"] if failed else [],
            "phase_s": scaled(wall, cal), "raw_phase_s": wall, "written": written,
            "peak_rss_kib": _peak_rss_kib(children=True)}


def probe(spec: dict) -> dict:
    """Exit code of every command line in the README's "Command line" section.

    Lines run through ``cli.run`` in a scratch directory holding the files the
    lines name (an antichain S, the antichain T below it, and its ball).
    """
    import workloads
    from neighborly.cli import run
    from neighborly.faces import format_complex
    from neighborly.posets import parse_antichain
    from neighborly.squeezed import relative_ball

    text = (workloads.ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln.strip() for ln in section.splitlines() if ln.strip()]
    scratch = Path(spec["dir"])
    scratch.mkdir(parents=True, exist_ok=True)
    s = parse_antichain("(1,2,7,8) (3,4,6,7)", 2, 8)
    (scratch / "S.txt").write_text("(1,2,7,8) (3,4,6,7)\n", encoding="utf-8")
    (scratch / "T.txt").write_text("(2,3,5,6)\n", encoding="utf-8")
    (scratch / "ball.txt").write_text(format_complex(relative_ball(s)), encoding="utf-8")
    os.chdir(scratch)
    results = []
    for line in lines:
        argv = shlex.split(line, comments=True)
        if argv and argv[0] == "neighborly":
            argv = argv[1:]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(argv)
        results.append({"line": line, "exit": code,
                        "stderr": err.getvalue().strip().splitlines()[-1:]})
    return {"lines": results}


def main(argv: list[str]) -> int:
    mode, name, spec_json, result_path = argv
    spec = json.loads(spec_json)
    t0 = time.perf_counter()
    before = _calibrate_warm()
    spent = time.perf_counter() - t0
    if mode == "probe":
        _ready(before, before, spent)
        result = probe(spec)
    else:
        import workloads
        from tracer import Tracer

        wl = workloads.WORKLOADS[name](spec["seed"], **spec.get("params", {}))
        tracer = Tracer() if "spans_path" in spec else None
        if tracer:
            tracer.install()
        start = time.perf_counter()
        wl.setup()
        t0 = time.perf_counter()
        after = _calibrate_warm()
        _ready(before, after, spent + time.perf_counter() - t0)
        if mode == "setup":
            return 0
        if name == "census-odd-cli":
            result = run_cli(wl)
        else:
            result = run_items(wl, spec.get("seconds"), spec.get("limit"))
        result["wall_s"] = time.perf_counter() - start
        if tracer:
            result["layers"] = tracer.layer_metrics()
            result["spans"] = len(tracer.spans)
            tracer.write_spans(spec["spans_path"])
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
