"""Self-tests of the benchmark's interception and output contract.

    PYTHONPATH=src python3 -m pytest perfbench

They run on a tiny cell, so a later move or rename of a wrapped freenil
function fails here instead of silently zeroing a module's numbers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import run
import tracer as tracer_mod
import worker
from tracer import SPAN_NAMES, Tracer, layer_metrics, merge_profiles, profile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _exercise_everything() -> None:
    """One in-process request plus the three CLI stages, on N(9, 3)."""
    from freenil import GroupContext, jsonio, random_automorphism

    ctx = GroupContext(9, 3)
    sigma = random_automorphism(ctx, 5, 6, (1,))
    # composed images carry no word, so serializing them collects one
    text = jsonio.dumps(jsonio.map_payload(sigma))
    worker.Requests((1,)).run(text)
    cli_main = sys.modules["freenil.cli"].main
    assert cli_main(["random-aut", "--rank", "9", "--class", "3", "--seed", "5",
                     "--length", "6", "--fix", "1"]) == 0


@pytest.fixture
def traced(capsys):
    t = Tracer()
    t.install()
    try:
        _exercise_everything()
    finally:
        t.uninstall()
    capsys.readouterr()
    return t


def test_every_wrapped_name_records_calls(traced):
    summary = traced.summary()
    silent = [name for name in SPAN_NAMES if summary[name]["calls"] == 0]
    assert not silent, f"wrapped but never called: {silent}"
    assert traced.coords > 0 and traced.det_calls > 0 and traced.rounds > 0
    assert sum(traced.outputs.tags.values()) > 0


def test_aliases_and_methods_are_rebound_then_restored():
    import freenil
    from freenil import endo, lie, ring

    engine = sys.modules["freenil.decompose"]
    originals = (ring.mul, lie.mul, engine.decompose, freenil.decompose,
                 endo.GeneratorMap.__dict__["apply"], ring.Word.__dict__["__init__"])
    t = Tracer()
    t.install()
    try:
        assert lie.mul is ring.mul and ring.mul.__wrapped__ is originals[0]
        assert freenil.decompose is engine.decompose
        assert engine.decompose.__wrapped__ is originals[2]
        assert endo.GeneratorMap.__dict__["apply"].__wrapped__ is originals[4]
        assert ring.Word.__dict__["__init__"].__wrapped__ is originals[5]
    finally:
        t.uninstall()
    assert (ring.mul, lie.mul, engine.decompose, freenil.decompose,
            endo.GeneratorMap.__dict__["apply"],
            ring.Word.__dict__["__init__"]) == originals


def test_self_time_subtracts_children_and_recursion_counts_once(monkeypatch):
    ticks = iter(range(100))
    clock = SimpleNamespace(perf_counter=lambda: float(next(ticks)))
    monkeypatch.setattr(tracer_mod, "time", clock)
    t = Tracer()
    inner = t._wrap("ring.mul", "ring", lambda: None)

    def outer_fn(depth):
        inner()
        if depth:
            outer(depth - 1)

    outer = t._wrap("ring.comm", "ring", outer_fn)
    outer(1)
    # clock: comm 0-7 holds mul 1-2 and comm 3-6, which holds mul 4-5
    summary = t.summary()
    assert summary["ring.mul"] == {"calls": 2, "self_s": 2.0, "inclusive_s": 2.0}
    assert summary["ring.comm"] == {"calls": 2, "self_s": 5.0, "inclusive_s": 7.0}


def test_errors_are_counted_per_module():
    t = Tracer()

    def boom():
        raise ValueError("x")

    wrapped = t._wrap("intmat.det", "intmat", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert t.errors["intmat"] == 1


def test_profiles_from_separate_processes_merge(traced):
    one = profile(traced)
    two = merge_profiles(merge_profiles({}, one), one)
    assert two["spans"]["ring.mul"]["calls"] == 2 * one["spans"]["ring.mul"]["calls"]
    assert two["counters"]["det_calls"] == 2 * one["counters"]["det_calls"]
    assert two["outputs"]["poly_terms_max"] == one["outputs"]["poly_terms_max"]
    assert two["outputs"]["tags"]["lifted"] == 2 * one["outputs"]["tags"]["lifted"]


def test_metric_names_match_benchmark_json(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = layer_metrics(profile(traced), 1, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, (_, unit) in per_layer.items()
    ]
    phase = {"decompose_s": [1.0], "verify_s": [1.0], "payload_bytes": [1],
             "done": [[0, 2.0]], "wall_s": 2.0}
    e2e = run.end_to_end([1.0], phase, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()
    ]
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert tracer_mod.TAGS == sys.modules["freenil.decompose"].TAGS


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert b"correct" not in proc.stdout
