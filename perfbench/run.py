"""Benchmark of the neighborly census, its lemma checks and its shelling search.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each measured run is a fresh interpreter
(perfbench/worker.py), so the module-level caches of the package start cold
as they do for a user's census.  One client drives the program in a closed
loop; the only parallelism is the CLI's own ``--jobs 2``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run over a fixed set of items, the same items run untraced first,
and the tracing overhead.
The README command lines are probed once per invocation, untimed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import REF_S, scaled
from tracer import LAYER_STATS, STAT_UNITS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("census-even", "census-odd-cli", "lemmas", "shelling")
# measured in whole censuses, as many as it takes to fill --seconds, so that
# every run times the same items however fast the machine is
WHOLE = ("census-even", "census-odd-cli")
# set-ups per run: at least this many, and at least this much set-up time
SETUP_SAMPLES = 5
SETUP_MIN_S = 2.0
# a traced run covers a fixed set of items, the same at any machine speed:
# a whole census, or this many seeded items of the other workloads
TRACE_ITEMS = 200
# every worker, from its start to its exit, including set-up
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "peak_rss_mib": "MiB",
}


def per_layer_units() -> dict[str, str]:
    """Name and unit of every per-layer metric of a traced run."""
    units = {f"{name}.{stat}": STAT_UNITS[stat]
             for name, stats in LAYER_STATS.items() for stat in stats}
    units.update({
        "cli.files_written": "count",
        "cli.bytes_written": "bytes",
        "trace.wall_s": "s",
        "trace.untraced_wall_s": "s",
        "trace.overhead_s": "s",
        "trace.spans": "count",
    })
    return units


class HarnessError(Exception):
    """The benchmark itself could not run (as opposed to an item failing)."""


def _read_ready(proc: subprocess.Popen, deadline: float) -> tuple[list[str], float]:
    """The fields of the worker's READY line and the moment it arrived.

    Raises TimeoutExpired if the line is not complete by the deadline.
    """
    fd, line = proc.stdout.fileno(), b""
    while not line.endswith(b"\n"):
        left = deadline - time.perf_counter()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            raise subprocess.TimeoutExpired(proc.args, CHILD_TIMEOUT_S)
        chunk = os.read(fd, 256)
        if not chunk:
            break
        line += chunk
    return line.decode().split(), time.perf_counter()


def spawn(mode: str, workload: str, spec: dict,
          work_dir: Path) -> tuple[tuple[float, float], dict]:
    """Run one worker; returns ((raw, scaled) set-up seconds, its result).

    Set-up runs from the start of the interpreter to READY, less the
    calibrations the worker ran, which bracket it and scale it.  The whole
    worker, set-up included, must end within CHILD_TIMEOUT_S.
    """
    stem = work_dir / f"{mode}-{time.monotonic_ns()}"
    result_path, err_path = stem.with_suffix(".json"), stem.with_suffix(".err")
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), mode, workload,
           json.dumps(spec), str(result_path)]
    t0 = time.perf_counter()
    deadline = t0 + CHILD_TIMEOUT_S
    with open(err_path, "w+", encoding="utf-8") as err, subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=err, bufsize=0, cwd=ROOT) as proc:
        try:
            first, ready_at = _read_ready(proc, deadline)
            proc.communicate(timeout=max(0.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise HarnessError(f"{mode} {workload} took longer than {CHILD_TIMEOUT_S}s")
        err.seek(0)
        err_text = err.read()
    err_path.unlink()
    if first[:1] != ["READY"] or proc.returncode != 0:
        raise HarnessError(
            f"{mode} {workload} exited with {proc.returncode}: {err_text.strip()[-2000:]}")
    ready_s = ready_at - t0
    before, after, spent = map(float, first[1:])
    setup_s = ready_s - spent, scaled(ready_s - spent, (before + after) / 2)
    if mode == "setup":
        return setup_s, {}
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    return setup_s, result


def _spec(workload: str, seed: int, params: dict, work_dir: Path, **extra) -> dict:
    params = dict(params)
    if workload == "census-odd-cli":
        params["out_dir"] = str(work_dir / "census-out")
    return {"seed": seed, "params": params, **extra}


def _p50_p90(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(
        values, n=10, method="inclusive")[8]


def _figures(runs: list[tuple[list[float], float]], per_run: bool) -> tuple[float, ...]:
    """(items per second, p50, p90) from (latencies, timed seconds) per interpreter:
    pooled over the interpreters, or each interpreter's own, median over them."""
    pooled = [v for lat, _ in runs for v in lat]
    if not pooled:
        raise HarnessError("no item completed, so nothing could be timed")
    if per_run:
        figures = [(len(lat) / t, *_p50_p90(lat)) for lat, t in runs if lat]
        return tuple(statistics.median(f[i] for f in figures) for i in range(3))
    return (len(pooled) / sum(t for _, t in runs), *_p50_p90(pooled))


def measure(workload: str, seed: int, seconds: float, work_dir: Path,
            params: dict | None = None) -> dict:
    """Untraced run: end-to-end metrics, plus counts and digests for checking."""
    params = params or {}
    setups, scaled_runs, raw_runs, digests, errors = [], [], [], [], []
    attempted = failed = 0
    raw_phase = 0.0
    peak_kib = 0
    while raw_phase < seconds:
        spec = _spec(workload, seed, params, work_dir,
                     seconds=None if workload in WHOLE else seconds)
        setup_s, r = spawn("measure", workload, spec, work_dir)
        setups.append(setup_s)
        scaled_runs.append((r["latencies"], r["phase_s"]))
        raw_runs.append((r["raw_latencies"], r["raw_phase_s"]))
        digests += r["digests"]
        errors += r["errors"]
        attempted += r["attempted"]
        failed += r["failed"]
        raw_phase += r["raw_phase_s"]
        peak_kib = max(peak_kib, r["peak_rss_kib"])
        if workload not in WHOLE or r["failed"]:
            break
    while len(setups) < SETUP_SAMPLES or sum(raw for raw, _ in setups) < SETUP_MIN_S:
        setups.append(spawn("setup", workload, _spec(workload, seed, params, work_dir),
                            work_dir)[0])
    # one CLI run writes every file at once, so its figures are taken per run
    per_run = workload == "census-odd-cli"
    rate, p50, p90 = _figures(scaled_runs, per_run)
    raw_rate, raw_p50, raw_p90 = _figures(raw_runs, per_run)
    metrics = {
        "setup_s": statistics.median(s for _, s in setups),
        "items_per_s": rate,
        "item_ms_p50": 1000 * p50,
        "item_ms_p90": 1000 * p90,
        "peak_rss_mib": peak_kib / 1024,
    }
    unscaled = {"setup_s": statistics.median(raw for raw, _ in setups),
                "items_per_s": raw_rate, "item_ms_p50": 1000 * raw_p50,
                "item_ms_p90": 1000 * raw_p90}
    return {"metrics": metrics, "unscaled": unscaled, "attempted": attempted,
            "failed": failed, "digests": digests, "errors": errors,
            "samples": sum(len(lat) for lat, _ in scaled_runs), "runs": len(scaled_runs),
            "setup_samples": len(setups)}


def trace(workload: str, seed: int, work_dir: Path, params: dict | None = None) -> dict:
    """A fixed set of items untraced, then the same items traced: per-layer
    metrics and tracing overhead.  The items are a whole census, or the first
    TRACE_ITEMS seeded items, so the counts do not depend on machine speed."""
    params = params or {}
    fixed = {} if workload in WHOLE else {"limit": TRACE_ITEMS}
    _, plain = spawn("measure", workload,
                     _spec(workload, seed, params, work_dir, seconds=None, **fixed), work_dir)
    spans_path = OUT_DIR / f"spans-{workload}.json"
    _, traced = spawn("measure", workload,
                      _spec(workload, seed, params, work_dir, seconds=None, **fixed,
                            spans_path=str(spans_path)), work_dir)
    layers = dict(traced["layers"])
    written = traced.get("written", {})
    layers.update({
        "cli.files_written": written.get("files", 0),
        "cli.bytes_written": written.get("bytes", 0),
        "trace.wall_s": traced["wall_s"],
        "trace.untraced_wall_s": plain["wall_s"],
        # the two walls come from interpreters run at different moments, whose
        # speed differs by more than the tracing costs; the overhead is taken
        # from the scaled item times of the same items instead
        "trace.overhead_s": traced["phase_s"] - plain["phase_s"],
        "trace.spans": traced["spans"],
    })
    mismatched = sum(1 for a, b in zip(plain["digests"], traced["digests"]) if a != b)
    mismatched += abs(len(plain["digests"]) - len(traced["digests"]))
    errors = plain["errors"] + traced["errors"]
    if mismatched:
        errors.append(f"{mismatched} outputs differ between the traced and untraced run")
    return {"metrics": layers,
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"] + mismatched,
            "digests": traced["digests"], "untraced_digests": plain["digests"],
            "errors": errors}


def probe(work_dir: Path) -> list[dict]:
    _, r = spawn("probe", "probe", {"dir": str(work_dir / "probe")}, work_dir)
    return r["lines"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "neighborly" / "__init__.py").is_file():
        print(f"error: no neighborly package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_dir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            out = trace(args.workload, args.seed, work_dir)
            units = per_layer_units()
        else:
            out = measure(args.workload, args.seed, args.seconds, work_dir)
            units = END_TO_END_UNITS
        lines = probe(work_dir)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted, failed = out["attempted"], out["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} items, {failed} failed, failed_frac {failed / attempted:.4f} (ratio)")
    for err in out["errors"][:5]:
        print(f"  failure: {err}")
    if not args.trace:
        print(f"  {out['samples']} latency samples from {out['runs']} interpreters, "
              f"{out['setup_samples']} set-up samples; "
              f"times scaled to a {1000 * REF_S:g} ms calibration task")
    for name, unit in units.items():
        note = f" (unscaled {out['unscaled'][name]:.6g})" if name in out.get("unscaled", {}) else ""
        print(f"  {name} = {out['metrics'][name]:.6g} {unit}{note}")
    for ln in lines:
        print(f"  readme exit {ln['exit']}: {ln['line'].split('#')[0].strip()}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": out["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    (OUT_DIR / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({**summary, "readme_probe": lines, "errors": out["errors"]}, indent=1),
        encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
