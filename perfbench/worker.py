"""Child processes of the benchmark.  Run by perfbench/run.py, never by hand:

  worker.py corpus WORKLOAD SEED          print the warm-up map, then the corpus,
                                          one map JSON text per line
  worker.py setup WORKLOAD                stdin: warm-up map; time import + warm-up
  worker.py measure WORKLOAD SECONDS TRACE
                                          stdin: warm-up map, then the corpus;
                                          run the timed (or traced) phase
  worker.py cli-stage ARG...              run `freenil ARG...` with tracing on and
                                          print its profile as the last line of
                                          stderr

freenil is imported inside each mode, after the clock for set-up starts.
Every mode prints one JSON object on stdout (cli-stage: the CLI's own output).
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time

from tracer import Tracer, profile
from workloads import MAP_LIMIT_S, WORKLOADS, closed_loop, map_seed, timed_phase_s


class MapTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise MapTimeout(f"map exceeded {MAP_LIMIT_S} s")


def corpus(workload: str, seed: int) -> None:
    from freenil import GroupContext, jsonio, random_automorphism

    w = WORKLOADS[workload]
    ctx = GroupContext(w.rank, w.nilclass)
    out = sys.stdout
    for index in range(-1, w.corpus):
        sigma = random_automorphism(ctx, map_seed(workload, seed, index), w.moves, w.fixed)
        out.write(jsonio.dumps(jsonio.map_payload(sigma)))


class Requests:
    """The two timed steps of one request, against the live freenil modules.

    Functions are looked up on their modules at call time, so a Tracer
    installed later sees every call.
    """

    def __init__(self, fixed: tuple[int, ...]):
        signal.signal(signal.SIGALRM, _on_alarm)
        self.jsonio = sys.modules["freenil.jsonio"]
        self.engine = sys.modules["freenil.decompose"]
        self.fixed = fixed

    def run(self, text: str) -> tuple[float, float, str]:
        """(decompose seconds, verify seconds, payload text); raises on any failure."""
        jsonio, engine = self.jsonio, self.engine
        signal.setitimer(signal.ITIMER_REAL, MAP_LIMIT_S)
        try:
            t0 = time.perf_counter()
            obj = jsonio.loads(text)
            dec = engine.decompose(jsonio.parse_map(obj), self.fixed)
            payload = jsonio.decomposition_payload(dec)
            out = jsonio.dumps(payload)
            t1 = time.perf_counter()
            report = engine.verify_payload(jsonio.loads(out))
            t2 = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if not report.ok:
            raise AssertionError(f"verify failed: {list(report.failures)[:3]}")
        if payload["input"] != obj or payload["fixed"] != list(self.fixed):
            raise AssertionError("decomposition does not describe the input map")
        return t1 - t0, t2 - t1, out


def _import_and_warm_up(workload: str, warm_up: str) -> tuple[Requests, float]:
    t0 = time.perf_counter()
    import freenil.jsonio  # noqa: F401  (the import is part of set-up)

    requests = Requests(WORKLOADS[workload].fixed)
    requests.run(warm_up)
    return requests, time.perf_counter() - t0


def setup(workload: str) -> None:
    _, setup_s = _import_and_warm_up(workload, sys.stdin.readline())
    json.dump({"setup_s": setup_s}, sys.stdout)


def measure(workload: str, seconds: float, trace: bool) -> None:
    lines = sys.stdin.read().splitlines()
    requests, setup_s = _import_and_warm_up(workload, lines[0])
    maps = lines[1:]
    tracer = Tracer() if trace else None

    def request(index: int) -> tuple[float, float, bytes]:
        if tracer is not None:
            tracer.request_id = index
        d, v, out = requests.run(maps[index])
        return d, v, out.encode()

    if tracer is not None:
        tracer.install()
    phase = closed_loop(len(maps), timed_phase_s(seconds, trace), request)
    phase["setup_s"] = setup_s
    phase["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        untraced_s = 0.0
        for index, _ in phase["done"]:  # the same maps again, untraced
            d, v, _ = requests.run(maps[index])
            untraced_s += d + v
        phase["trace"] = {
            "profile": profile(tracer),
            "per_request": tracer.per_request(),
            "traced_s": sum(t for _, t in phase["done"]),
            "untraced_s": untraced_s,
        }
    json.dump(phase, sys.stdout)


def cli_stage(argv: list[str]) -> int:
    import freenil.cli  # noqa: F401

    tracer = Tracer()
    tracer.install()
    code = 1
    try:
        code = sys.modules["freenil.cli"].main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        sys.stderr.write("\n" + json.dumps(profile(tracer)) + "\n")
    return code


def main(argv: list[str]) -> int:
    mode, args = argv[0], argv[1:]
    if mode == "corpus":
        corpus(args[0], int(args[1]))
    elif mode == "setup":
        setup(args[0])
    elif mode == "measure":
        measure(args[0], float(args[1]), args[2] == "1")
    elif mode == "cli-stage":
        return cli_stage(args)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
