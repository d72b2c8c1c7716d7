"""Tests of the benchmark itself.

The output checks must reject deliberately corrupted artifacts, the tracer
must leave no wrapper behind, and a tiny workload must run end to end.
"""

import contextlib
import io
import json
import os
import shutil
import struct
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import checks  # noqa: E402
import identity  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402

if bench.SRC not in sys.path:
    sys.path.insert(0, bench.SRC)

SEED = 4


def _benchmark_json():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """(out_dir, data_dir) of one tiny synth + pipeline made through the CLI."""
    work = str(tmp_path_factory.mktemp("tiny"))
    spec = bench.WORKLOADS["tiny"]
    data = os.path.join(work, "data")
    synth_cfg = bench.write_json(os.path.join(work, "synth.json"), {"synth": spec["synth"]})
    run_cfg = bench.write_json(os.path.join(work, "run.json"),
                               dict(spec["run"], manifest=os.path.join(data, "manifest.json")))
    out = os.path.join(work, "out")
    for argv in (["synth", "--config", synth_cfg, "--out", data, "--seed", str(SEED)],
                 ["pipeline", "--config", run_cfg, "--out", out, "--seed", str(SEED)]):
        child = bench.run_cli(argv, work, 120)
        assert child.code == 0, child.stderr
    return out, data, run_cfg


@pytest.fixture
def run_copy(tiny_run, tmp_path):
    out, data, _ = tiny_run
    copy = str(tmp_path / "out")
    shutil.copytree(out, copy)
    return copy, data


def test_untouched_run_passes_every_check(tiny_run):
    out, data, _ = tiny_run
    assert checks.check_run(out, data) == []


def test_altered_map_value_is_rejected(run_copy):
    out, data = run_copy
    path = os.path.join(out, "map_table.json")
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    table["pairs"][2]["map"] += 1e-6
    bench.write_json(path, table)
    problems = checks.check_run(out, data)
    assert len(problems) == 1 and problems[0].startswith("MAP ('mod1', 'mod0')")


def test_shuffled_pr_row_is_rejected(run_copy):
    out, data = run_copy
    path = os.path.join(out, "pr_mod0_mod2.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[3], lines[4] = lines[4], lines[3]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert checks.check_run(out, data) == ["pr_mod0_mod2.csv: ranks are not 1..6"]


def test_perturbed_prior_is_rejected(run_copy):
    out, data = run_copy
    path = os.path.join(out, "prior.bin")
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    header_end = blob.index(b"\n") + 1
    rows, cols, _ = struct.unpack_from("<III", blob, header_end + 4)
    first_l = header_end + 16 + 4 * rows * cols + 16  # L[0, 0], after all of W
    (value,) = struct.unpack_from("<f", blob, first_l)
    struct.pack_into("<f", blob, first_l, value * 1.01)
    with open(path, "wb") as fh:
        fh.write(blob)
    problems = checks.check_run(out, data)
    assert problems and all(p.startswith("prior.bin:") for p in problems)
    assert any("LW=I" in p for p in problems)


def test_selection_other_than_argmax_is_rejected(run_copy):
    out, data = run_copy
    path = os.path.join(out, "spl_report.json")
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["selected"] = min(report["scores"], key=report["scores"].get)
    bench.write_json(path, report)
    problems = checks.check_run(out, data)
    assert any("argmax" in p for p in problems)


def test_byte_identity_compare_names_the_differing_file():
    ref = {"prior.bin": "aa", "map_table.json": "bb"}
    assert identity.compare_hashes(ref, dict(ref), "x") == []
    assert identity.compare_hashes(ref, {"prior.bin": "aa", "map_table.json": "cc"}, "x") == [
        "x: map_table.json differs from the first run's bytes"]


def _bindings(modules):
    return {(m.__name__, k): v for m in modules for k, v in vars(m).items()}


def test_tracer_removes_every_wrapper(tiny_run, tmp_path):
    import priorcast.cli as cli
    from priorcast.encoder import EncoderParams

    _, _, run_cfg = tiny_run
    tracer = tracing.Tracer()
    before = _bindings(tracer.modules)
    init = EncoderParams.__init__
    with contextlib.redirect_stdout(io.StringIO()):
        with tracer:
            assert cli.main is not before[("priorcast.cli", "main")]
            code = cli.main(["pipeline", "--config", run_cfg, "--out", str(tmp_path / "o"),
                             "--seed", str(SEED)])
    assert code == 0
    assert tracer.counts["encoder.EncoderParams"] > 0
    assert tracer.summary()["spans"]["cli.main"]["calls"] == 1
    after = _bindings(tracer.modules)
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert EncoderParams.__init__ is init


def test_tracer_removes_wrappers_when_the_traced_call_raises():
    import priorcast.numerics as numerics

    original = numerics.softmax
    with pytest.raises(TypeError):
        with tracing.Tracer():
            numerics.softmax()
    assert numerics.softmax is original


def test_self_time_excludes_child_spans():
    import priorcast.losses as losses
    import numpy as np

    with tracing.Tracer() as tracer:
        losses.label_loss(np.eye(3), np.eye(3), np.eye(3), 0.5)
    summary = tracer.summary()
    outer = summary["spans"]["losses.label_loss"]
    inner = summary["spans"]["losses.gce_from_logits"]
    assert summary["edges"]["losses.label_loss"] == {"losses.gce_from_logits": 1}
    assert outer["self_s"] == pytest.approx(outer["total_s"] - inner["total_s"], abs=1e-12)


def test_tiny_workload_end_to_end(tmp_path):
    spec = _benchmark_json()
    for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        result, lines = bench.run_workload("tiny", SEED, 0, trace, work_root=str(tmp_path),
                                           min_pipelines=2)
        assert result["correct"], lines
        assert result["failed"] == 0
        assert result["attempted"] == 3 + 2 + 2 * trace
        assert set(result["metrics"]) == {m["name"] for m in listed}
        for m in listed:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert sum(line.startswith("sha256 tiny seed=4 ") for line in lines) == 11
    assert os.listdir(tmp_path) == [f"tiny-s{SEED}-trace.json"]


def test_probe_scaling_cancels_host_speed(tmp_path):
    def child(wall, cpu):
        return bench.Child(wall, cpu, 50.0, 0, "", "")

    def metrics(slowdown):
        run = bench.Run("tiny", SEED, 0, str(tmp_path), 2)
        # synth #i follows probe #i; pipeline #i lies between probes #i and #i+1
        run.probes = [(0.2 * slowdown, 0.2 * slowdown), (0.3 * slowdown, 0.3 * slowdown),
                      (0.2 * slowdown, 0.2 * slowdown)]
        run.synths = [child(0.4 * slowdown, 0.4 * slowdown)] * 3
        run.pipelines = [child(3.0 * slowdown, 3.5 * slowdown)] * 2
        return run.end_to_end()

    fast, slow = metrics(1.0), metrics(1.3)
    assert fast["wall_s"] == pytest.approx(3.0 * bench.PROBE_REF_S / 0.25)
    assert fast["setup_s"] == pytest.approx(0.4 * bench.PROBE_REF_S / 0.2)
    for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"):
        assert slow[name] == pytest.approx(fast[name])
