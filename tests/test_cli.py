"""Exit codes, output formats, and file round trips of the command line."""

import json
import multiprocessing
import os
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import neighborly
from neighborly import cli, construct
from neighborly.cli import run
from neighborly.faces import format_complex, parse_complex
from neighborly.posets import Antichain
from neighborly.squeezed import relative_ball, relative_ball_general

S28_TEXT = "(1,2,7,8) (3,4,6,7)"
REL = relative_ball(Antichain(2, 8, ((1, 2, 7, 8), (3, 4, 6, 7))))
README = Path(__file__).resolve().parent.parent / "README.md"


def run_lines(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_no_arguments_is_a_usage_error(capsys):
    assert run([]) == 2
    assert run(["make-me-a-sphere"]) == 2


def test_cyclic_output(capsys):
    code, out = run_lines(capsys, ["cyclic", "--d", "4", "--n", "8"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "complex d=4 n=8"
    assert len(lines) == 21
    assert parse_complex(out).dimension == 3


def test_cyclic_is_deterministic(capsys):
    _, first = run_lines(capsys, ["cyclic", "--d", "4", "--n", "10"])
    _, second = run_lines(capsys, ["cyclic", "--d", "4", "--n", "10"])
    assert first == second


def test_cyclic_rejects_bad_parameters(capsys):
    assert run(["cyclic", "--d", "4", "--n", "3"]) == 2


def test_antichain_count(capsys):
    code, out = run_lines(
        capsys, ["antichains", "--k", "2", "--n", "8", "--contains-max", "--count-only"])
    assert code == 0
    assert out.strip() == "8"


def test_antichain_listing_round_trips(capsys):
    code, out = run_lines(capsys, ["antichains", "--k", "2", "--n", "6"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 8
    assert lines[0] == ""
    assert S28_TEXT not in lines  # wrong ambient, sanity only
    for ln in lines:
        Antichain(2, 6, tuple(
            tuple(int(v) for v in tok[1:-1].split(",")) for tok in ln.split()))


def test_ball_relative(capsys):
    code, out = run_lines(capsys, [
        "ball", "--kind", "relative", "--k", "2", "--n", "8",
        "--antichain", S28_TEXT])
    assert code == 0
    assert out == format_complex(REL)


def test_ball_antichain_from_file(tmp_path, capsys):
    p = tmp_path / "antichain.txt"
    p.write_text(S28_TEXT + "\n", encoding="utf-8")
    code, out = run_lines(capsys, [
        "ball", "--kind", "relative", "--k", "2", "--n", "8",
        "--antichain", f"@{p}"])
    assert code == 0
    assert parse_complex(out) == REL


def test_ball_squeezed_with_min_start(capsys):
    code, out = run_lines(capsys, [
        "ball", "--kind", "squeezed", "--k", "2", "--n", "6",
        "--antichain", "(1,2,5,6) (2,3,4,5)", "--min-start", "2"])
    assert code == 0
    assert parse_complex(out).maximal_faces == frozenset({(2, 3, 4, 5)})


def test_ball_with_subtrahend(capsys):
    code, out = run_lines(capsys, [
        "ball", "--kind", "relative", "--k", "2", "--n", "8",
        "--antichain", S28_TEXT, "--subtract", "(2,3,5,6)", "--min-start", "2"])
    assert code == 0
    want = relative_ball_general(
        Antichain(2, 8, ((1, 2, 7, 8), (3, 4, 6, 7))),
        Antichain(2, 8, ((2, 3, 5, 6),)), 2)
    assert parse_complex(out) == want


def test_ball_usage_errors(capsys):
    assert run([
        "ball", "--kind", "squeezed", "--k", "2", "--n", "8",
        "--antichain", S28_TEXT, "--subtract", "(2,3,5,6)"]) == 2
    assert run([
        "ball", "--kind", "relative", "--k", "2", "--n", "8",
        "--antichain", S28_TEXT, "--min-start", "3"]) == 2
    assert run([
        "ball", "--kind", "relative", "--k", "2", "--n", "8",
        "--antichain", "(1,2,5,7)"]) == 2


def write_ball(tmp_path):
    p = tmp_path / "ball.txt"
    p.write_text(format_complex(REL), encoding="utf-8")
    return str(p)


def test_verify_stacked(tmp_path, capsys):
    path = write_ball(tmp_path)
    code, out = run_lines(capsys, ["verify", "--input", path, "--check", "stacked=1"])
    assert code == 0
    got = json.loads(out)
    assert got["property"] == "stacked(1)"
    assert got["verdict"] is True


def test_verify_failed_check_exits_one(tmp_path, capsys):
    path = write_ball(tmp_path)
    code, out = run_lines(capsys, ["verify", "--input", path, "--check", "neighborly=2"])
    assert code == 1
    assert json.loads(out)["verdict"] is False


def test_verify_sanity_checks(tmp_path, capsys):
    path = write_ball(tmp_path)
    assert run(["verify", "--input", path, "--check", "ball"]) == 0
    capsys.readouterr()
    assert run(["verify", "--input", path, "--check", "sphere"]) == 1
    capsys.readouterr()
    code, out = run_lines(capsys, ["verify", "--input", path, "--check", "shelling"])
    assert code == 0
    assert json.loads(out)["witness"]


def test_verify_usage_errors(tmp_path, capsys):
    path = write_ball(tmp_path)
    assert run(["verify", "--input", path, "--check", "round"]) == 2
    assert run(["verify", "--input", str(tmp_path / "absent.txt"),
                "--check", "ball"]) == 2
    capsys.readouterr()
    # at d = 0 a blank line would parse as the empty facet: the header is bad input
    empty_facets = tmp_path / "d0.txt"
    empty_facets.write_text("complex d=0 n=5\n\n\n1\n")
    assert run(["verify", "--check", "sphere", "--input", str(empty_facets)]) == 2
    assert capsys.readouterr() == ("", "error: facets need at least one vertex, got d=0\n")


def test_shelling_search(tmp_path, capsys):
    path = write_ball(tmp_path)
    code, out = run_lines(capsys, ["shelling", "--input", path])
    assert code == 0
    got = json.loads(out)
    assert got["verdict"] is True
    assert len(got["witness"]) == 5


def test_shelling_closed_form(capsys):
    code, out = run_lines(capsys, [
        "shelling", "--k2", "--k", "2", "--n", "8", "--antichain", S28_TEXT,
        "--subtract", "(2,3,5,6)"])
    assert code == 0
    assert json.loads(out)["witness"] == [
        [1, 2, 7, 8], [1, 2, 6, 7], [2, 3, 6, 7], [3, 4, 6, 7], [3, 4, 5, 6]]


def test_shelling_usage_errors(tmp_path, capsys):
    path = write_ball(tmp_path)
    assert run(["shelling", "--input", path, "--k2"]) == 2
    assert run(["shelling"]) == 2
    assert run(["shelling", "--k2", "--k", "2"]) == 2


def test_census_writes_files_and_manifest(tmp_path, capsys):
    out_dir = tmp_path / "census"
    code, _ = run_lines(capsys, [
        "census", "--parity", "even", "--k", "2", "--n", "6",
        "--out", str(out_dir)])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["count"] == 2
    assert [e["index"] for e in manifest["entries"]] == [0, 1]
    for entry in manifest["entries"]:
        sphere = parse_complex((out_dir / entry["file"]).read_text(encoding="utf-8"))
        assert len(sphere.facets) == entry["sphere_facets"]
        assert all(c["verdict"] is True for c in entry["certificates"])
        # every written file must satisfy the CLI's own sphere check
        assert run(["verify", "--input", str(out_dir / entry["file"]),
                    "--check", "sphere"]) == 0
        capsys.readouterr()


def test_census_manifest_is_reproducible(tmp_path, capsys):
    for d, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
        assert run(["census", "--parity", "odd", "--k", "2", "--n", "7",
                    "--out", str(tmp_path / d), "--jobs", jobs]) == 0
        capsys.readouterr()
    first = (tmp_path / "a" / "manifest.json").read_bytes()
    second = (tmp_path / "b" / "manifest.json").read_bytes()
    assert first == second
    files = {p.name: p.read_bytes() for p in (tmp_path / "a").iterdir()}
    pooled = {p.name: p.read_bytes() for p in (tmp_path / "c").iterdir()}
    assert pooled == files


def census_outputs(tmp_path, capsys, args, jobs):
    """The stdout manifest and the --out directory, as bytes, of one census run."""
    assert run(["census", *args, "--jobs", str(jobs)]) == 0
    manifest = capsys.readouterr().out
    out_dir = tmp_path / f"jobs-{jobs}"
    assert run(["census", *args, "--jobs", str(jobs), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    return manifest, {p.name: p.read_bytes() for p in out_dir.iterdir()}


@pytest.mark.parametrize("args, count", [
    # a family of one (n = 2k), families smaller than one pool chunk, and
    # families that are not a multiple of the chunk size
    (["--parity", "odd", "--k", "3", "--n", "6"], 1),
    (["--parity", "even", "--k", "2", "--n", "6"], 2),
    (["--parity", "odd", "--k", "2", "--n", "7"], 4),
    (["--parity", "even", "--k", "3", "--n", "9"], 11),
    (["--parity", "odd", "--k", "3", "--n", "10"], 50),
])
def test_census_output_does_not_depend_on_jobs(tmp_path, capsys, args, count):
    assert count < construct._CHUNK or count % construct._CHUNK
    manifest, files = census_outputs(tmp_path, capsys, args, 1)
    assert json.loads(manifest)["count"] == count
    assert len(files) == count + 1
    for jobs in (2, 3):
        assert census_outputs(tmp_path, capsys, args, jobs) == (manifest, files)


def test_census_pool_workers_render_the_facet_text(tmp_path, monkeypatch, capsys):
    args = ["census", "--parity", "odd", "--k", "3", "--n", "10"]
    assert run(args + ["--out", str(tmp_path / "serial")]) == 0
    real = cli.format_complex
    calls = []

    def counted(c):
        calls.append(c)
        return real(c)

    monkeypatch.setattr(cli, "format_complex", counted)
    assert run(args + ["--out", str(tmp_path / "pooled"), "--jobs", "2"]) == 0
    capsys.readouterr()
    assert calls == []
    serial = {p.name: p.read_bytes() for p in (tmp_path / "serial").iterdir()}
    assert {p.name: p.read_bytes() for p in (tmp_path / "pooled").iterdir()} == serial


def test_census_without_out_renders_no_facet_text(monkeypatch, capsys):
    def refused(c):
        raise AssertionError("facet text rendered with no --out")

    monkeypatch.setattr(cli, "format_complex", refused)
    outs = []
    for jobs in ("1", "2", "3"):
        code, out = run_lines(capsys, ["census", "--parity", "even", "--k", "3", "--n", "9",
                                       "--jobs", jobs])
        assert code == 0
        outs.append(out)
    assert json.loads(outs[0])["count"] == 11
    assert outs == outs[:1] * 3


def test_census_failing_mid_run_leaves_no_manifest(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "census"
    out_dir.mkdir()
    (out_dir / "manifest.json").write_text("{}\n", encoding="utf-8")
    real = construct.is_r_stacked
    calls = []

    def fails_on_third_entry(c, r):
        calls.append(c)
        cert = real(c, r)
        return replace(cert, verdict=False) if len(calls) == 3 else cert

    # with no patch certificate, every entry runs the full stackedness check
    monkeypatch.setattr(construct, "_patch", lambda delta, bits: None)
    monkeypatch.setattr(construct, "is_r_stacked", fails_on_third_entry)
    code = run(["census", "--parity", "odd", "--k", "2", "--n", "8", "--out", str(out_dir)])
    assert code == 1
    assert "verification failure" in capsys.readouterr().err
    assert sorted(p.name for p in out_dir.iterdir()) == ["sphere_0000.txt", "sphere_0001.txt"]


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched check reaches pool workers only under fork")
def test_census_failing_in_a_pool_leaves_a_prefix_and_no_manifest(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "census"
    out_dir.mkdir()
    (out_dir / "manifest.json").write_text("{}\n", encoding="utf-8")
    failing = 21
    bad = construct.collect_census("odd", 3, 10)[failing].ball.maximal_faces
    real = construct.is_r_stacked

    def fails_on_one_ball(c, r):
        cert = real(c, r)
        return replace(cert, verdict=False) if c.maximal_faces == bad else cert

    # with no patch certificate, every entry runs the full stackedness check
    monkeypatch.setattr(construct, "_patch", lambda delta, bits: None)
    monkeypatch.setattr(construct, "is_r_stacked", fails_on_one_ball)
    code = run(["census", "--parity", "odd", "--k", "3", "--n", "10", "--out", str(out_dir),
                "--jobs", "2"])
    assert code == 1
    assert "verification failure" in capsys.readouterr().err
    written = sorted(p.name for p in out_dir.iterdir())
    assert "manifest.json" not in written
    assert 0 < len(written) <= failing
    assert written == [f"sphere_{idx:04d}.txt" for idx in range(len(written))]


def test_census_over_an_earlier_run_leaves_only_its_own_files(tmp_path, monkeypatch, capsys):
    out_dir = tmp_path / "census"
    odd = ["census", "--parity", "odd", "--k", "2", "--out", str(out_dir)]
    assert run(odd + ["--n", "8"]) == 0
    assert len(list(out_dir.glob("sphere_*.txt"))) == 8
    assert run(odd + ["--n", "7"]) == 0
    capsys.readouterr()
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["count"] == 4
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        [e["file"] for e in manifest["entries"]] + ["manifest.json"])

    # a usage error leaves the directory as it was
    assert run(odd + ["--n", "3"]) == 2
    assert (out_dir / "manifest.json").exists()

    # a run that fails on its first entry leaves no manifest
    real = construct.is_r_stacked
    monkeypatch.setattr(construct, "_patch", lambda delta, bits: None)
    monkeypatch.setattr(construct, "is_r_stacked",
                        lambda c, r: replace(real(c, r), verdict=False))
    assert run(odd + ["--n", "8"]) == 1
    assert "verification failure" in capsys.readouterr().err
    assert not (out_dir / "manifest.json").exists()


def test_census_stdout_mode(capsys):
    code, out = run_lines(capsys, ["census", "--parity", "even", "--k", "2", "--n", "6"])
    assert code == 0
    manifest = json.loads(out)
    assert manifest["parity"] == "even"
    assert "file" not in manifest["entries"][0]


def test_census_counts_table(capsys):
    code, out = run_lines(capsys, [
        "census-counts", "--k", "2", "--n-min", "6", "--n-max", "9"])
    assert code == 0
    assert out.splitlines() == [
        "n census bound ok",
        "6 2 1 yes",
        "7 4 1 yes",
        "8 8 2 yes",
        "9 16 4 yes",
    ]


def test_census_counts_rejects_bad_range(capsys):
    assert run(["census-counts", "--k", "2", "--n-min", "9", "--n-max", "6"]) == 2


def test_census_counts_refuses_k_1_as_census_does(capsys):
    assert run(["census-counts", "--k", "1", "--n-min", "2", "--n-max", "4"]) == 2
    counts = capsys.readouterr()
    assert counts.out == ""
    assert run(["census", "--parity", "even", "--k", "1", "--n", "6"]) == 2
    assert capsys.readouterr().err == counts.err == "error: census needs k >= 2, got 1\n"


def test_census_counts_refuses_small_n_as_census_does(capsys):
    assert run(["census-counts", "--k", "2", "--n-min", "3", "--n-max", "5"]) == 2
    counts = capsys.readouterr()
    assert counts.out == ""
    assert run(["census", "--parity", "odd", "--k", "2", "--n", "3"]) == 2
    assert capsys.readouterr().err == counts.err == "error: census needs n >= 2k, got n=3\n"


def test_shelling_negative_budget_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "ball.txt").write_text(format_complex(REL), encoding="utf-8")
    assert run(["shelling", "--input", str(tmp_path / "ball.txt"), "--budget", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: search budget must be >= 0, got -3\n"


def run_module(module, *args):
    """`python -m module args` in a new interpreter that imports this package."""
    src = str(Path(neighborly.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)


@pytest.mark.parametrize("module", ["neighborly", "neighborly.cli"])
def test_module_form_runs_the_command_line(module):
    done = run_module(module, "census-counts", "--k", "2", "--n-min", "4", "--n-max", "6")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines() == ["n census bound ok", "4 1 1 yes", "5 1 1 yes",
                                        "6 2 1 yes"]
    refused = run_module(module, "census-counts", "--k", "1", "--n-min", "4", "--n-max", "6")
    assert (refused.returncode, refused.stdout) == (2, "")
    assert refused.stderr == "error: census needs k >= 2, got 1\n"


def readme_command_lines():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [ln.strip() for ln in block.splitlines() if ln.strip()]


def test_readme_command_lines_exit_zero(tmp_path, monkeypatch, capsys):
    (tmp_path / "S.txt").write_text(S28_TEXT + "\n", encoding="utf-8")
    (tmp_path / "T.txt").write_text("(2,3,5,6)\n", encoding="utf-8")
    (tmp_path / "ball.txt").write_text(format_complex(REL), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lines = readme_command_lines()
    assert len(lines) == 9
    for line in lines:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "neighborly"
        code = run(argv[1:])
        err = capsys.readouterr().err
        assert code == 0, f"{line!r} exited {code}: {err}"
