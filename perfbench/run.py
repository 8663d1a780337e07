#!/usr/bin/env python3
"""freenil benchmark: decompose/verify latency per map on seeded corpora.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout (it needs src/freenil).  One closed
loop: one map in flight, no threads.  The corpus is generated from --seed
before the timed phase; the timed phase cycles through it for --seconds.
Every output is checked.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-module metrics of a traced run with --trace 1.  The line
before it is a report with the environment, digests and sample counts.  See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import CLI_STAGES, layer_metrics, merge_profiles
from workloads import MAP_LIMIT_S, WORKLOADS, Workload, closed_loop, map_seed, timed_phase_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = str(HERE / "worker.py")
PY = sys.executable
CLI = (PY, "-m", "freenil.cli")

SETUP_RUNS = 3  # in-process set-ups per run; setup_s is their median
# bare `freenil --schema` processes per cli-cold run, half before and half
# after the timed phase: process start time drifts in streaks of a second or
# so, and two far-apart batches steady the median
CLI_SETUP_RUNS = 16
RUN_LIMIT_S = 170.0  # every child is killed before the run reaches this

LOAD = (
    "one closed-loop client: one map in flight, no extra threads; "
    "cli-cold runs its child processes one at a time"
)


class Failure(Exception):
    """A check on the program's output failed."""


class Children:
    """Runs child processes from the checkout root, within the run's limit."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src if not old else src + os.pathsep + old

    def run(self, argv, stdin: bytes = b"", limit: float | None = None):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise RuntimeError("run limit reached")
        return subprocess.run(
            argv,
            input=stdin,
            capture_output=True,
            cwd=ROOT,
            env=self.env,
            timeout=remaining if limit is None else min(limit, remaining),
        )

    def json(self, argv, stdin: bytes = b"") -> dict:
        proc = self.run(argv, stdin)
        if proc.returncode != 0:
            raise RuntimeError(
                f"{' '.join(argv[1:3])} exited {proc.returncode}:\n"
                + proc.stderr.decode(errors="replace")[-2000:]
            )
        return json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# statistics and the environment record

def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def end_to_end(setups: list[float], phase: dict, rss_mb: float) -> dict:
    """The end-to-end metrics, in BENCHMARK.json order: name -> (value, unit)."""
    dec_s, ver_s, nbytes = phase["decompose_s"], phase["verify_s"], phase["payload_bytes"]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "decompose_s.p50": (statistics.median(dec_s), "s"),
        "decompose_s.p90": (p90(dec_s), "s"),
        "verify_s.p50": (statistics.median(ver_s), "s"),
        "verify_s.p90": (p90(ver_s), "s"),
        "maps_per_s": (len(phase["done"]) / phase["wall_s"], "maps/s"),
        "payload_bytes.mean": (statistics.fmean(nbytes) if nbytes else 0.0, "bytes"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "seed": seed,
        "load": LOAD,
    }


# ---------------------------------------------------------------------------
# the workloads: each runner returns the set-up samples, the timed phase (see
# workloads.closed_loop), the corpus digest, peak RSS and, when traced, the
# trace record

def run_in_process(w: Workload, seed: int, seconds: float, trace: bool, kids: Children):
    gen = kids.run([PY, WORKER, "corpus", w.name, str(seed)])
    if gen.returncode != 0:
        raise RuntimeError("corpus generation failed:\n" + gen.stderr.decode()[-2000:])
    lines = gen.stdout.decode().splitlines()
    warm_up = (lines[0] + "\n").encode()
    setups = [
        kids.json([PY, WORKER, "setup", w.name], warm_up)["setup_s"]
        for _ in range(SETUP_RUNS - 1)
    ]
    phase = kids.json(
        [PY, WORKER, "measure", w.name, repr(seconds), "1" if trace else "0"], gen.stdout
    )
    setups.append(phase["setup_s"])
    corpus = "\n".join(lines[1:]).encode()
    return setups, phase, corpus, phase["peak_rss_mb"], phase.get("trace")


class Pipeline:
    """`random-aut | decompose | verify` for one corpus map, checked.

    Traced, each stage runs under worker.py's cli-stage mode, and the stage
    profiles add up here, per pipeline and in total.
    """

    def __init__(self, w: Workload, seeds: list[int], kids: Children, traced: bool):
        self.w = w
        self.seeds = seeds
        self.kids = kids
        self.traced = traced
        self.prefix = [PY, WORKER, "cli-stage"] if traced else list(CLI)
        self.profile: dict = {}
        self.main_self_s = dict.fromkeys(CLI_STAGES, 0.0)
        self.process_s = 0.0
        self.busy_s = 0.0  # wall time of completed pipelines, all three stages
        self.per_request: dict[int, dict] = {}

    def stages(self, index: int) -> list[list[str]]:
        w = self.w
        return [
            [
                "random-aut", "--rank", str(w.rank), "--class", str(w.nilclass),
                "--seed", str(self.seeds[index]), "--length", str(w.moves),
                "--fix", w.fix_arg,
            ],
            ["decompose", "--fix", w.fix_arg],
            ["verify"],
        ]

    def run(self, index: int) -> tuple[float, float, bytes]:
        """Decompose and verify stage wall times and the decomposition
        payload; the random-aut stage is timed only inside maps_per_s."""
        data, walls, raw, outputs, profiles = b"", [], [], [], []
        for stage, argv in zip(CLI_STAGES, self.stages(index)):
            t0 = time.perf_counter()
            try:
                proc = self.kids.run(self.prefix + argv, data, limit=MAP_LIMIT_S)
            except subprocess.TimeoutExpired:
                raise Failure(f"{stage} exceeded {MAP_LIMIT_S} s") from None
            walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise Failure(f"{stage} exited {proc.returncode}: {proc.stdout[:200]!r}")
            try:
                outputs.append(json.loads(proc.stdout))
            except ValueError:
                raise Failure(f"{stage} printed no JSON payload") from None
            if self.traced:
                profiles.append(json.loads(proc.stderr.decode().splitlines()[-1]))
            data = proc.stdout
            raw.append(data)
        sigma, dec, report = outputs
        if dec["input"] != sigma or dec["fixed"] != list(self.w.fixed):
            raise Failure("decomposition does not describe the input map")
        if report.get("ok") is not True:
            raise Failure(f"verify failed: {report.get('failures', [])[:3]}")
        self.busy_s += sum(walls)
        if self.traced:
            merged: dict = {}
            for stage, wall, prof in zip(CLI_STAGES, walls, profiles):
                merged = merge_profiles(merged, prof)
                main_span = prof["spans"]["cli.main"]
                self.main_self_s[stage] += main_span["self_s"]
                self.process_s += wall - main_span["inclusive_s"]
            self.profile = merge_profiles(self.profile, merged)
            self.per_request[index] = merge_profiles(self.per_request.get(index, {}), merged)
        return walls[1], walls[2], raw[1]


def run_cli_cold(w: Workload, seed: int, seconds: float, trace: bool, kids: Children):
    setups: list[float] = []

    def probe_setup() -> None:
        for _ in range(CLI_SETUP_RUNS // 2):
            t0 = time.perf_counter()
            proc = kids.run(list(CLI) + ["--schema"])
            setups.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                raise RuntimeError("freenil --schema failed")
            json.loads(proc.stdout)

    probe_setup()
    seeds = [map_seed(w.name, seed, i) for i in range(w.corpus)]
    pipeline = Pipeline(w, seeds, kids, trace)
    phase = closed_loop(len(seeds), timed_phase_s(seconds, trace), pipeline.run)
    probe_setup()
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    record = None
    if trace:
        untraced = Pipeline(w, seeds, kids, False)
        for index, _ in phase["done"]:  # the same pipelines again, untraced
            untraced.run(index)
        record = {
            "profile": pipeline.profile,
            "per_request": {i: p["spans"] for i, p in pipeline.per_request.items()},
            "main_self_s": pipeline.main_self_s,
            "process_s": pipeline.process_s,
            "traced_s": pipeline.busy_s,
            "untraced_s": untraced.busy_s,
        }
    return setups, phase, json.dumps(seeds).encode(), rss_mb, record


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="freenil decompose/verify benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "freenil" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no freenil sources under {ROOT / 'src'}\n")
        return 2

    w = WORKLOADS[args.workload]
    runner = run_cli_cold if w.cli else run_in_process
    setups, phase, corpus, rss_mb, record = runner(
        w, args.seed, args.seconds, bool(args.trace), Children()
    )
    attempted, failed = phase["attempted"], len(phase["failures"])
    report = {
        "workload": w.name,
        "cell": [w.rank, w.nilclass, w.pinned],
        "moves": w.moves,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "corpus_digest": hashlib.sha256(corpus).hexdigest(),
        "payload_digest": phase["payload_digest"],
        "digest_maps": phase["digest_maps"],
        "samples": len(phase["decompose_s"]),
        "distinct_maps": phase["distinct_maps"],
        "setup_samples": setups,
        "fail_ratio": failed / attempted,
        "failures": phase["failures"],
    }
    if record is None:
        metrics = end_to_end(setups, phase, rss_mb)
    else:
        metrics = layer_metrics(
            record["profile"],
            attempted,
            record["untraced_s"] / record["traced_s"] if record["traced_s"] else 0.0,
            record.get("main_self_s"),
            record.get("process_s", 0.0),
        )
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{w.name}-seed{args.seed}.json"
        path.write_text(json.dumps({"report": report, "per_request": record["per_request"]}))
        report["trace_file"] = str(path.relative_to(ROOT))
    print(json.dumps({"report": report}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
