"""Benchmark of the exact graphsolitons pipeline.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Workloads: analyze, census, table1, extensions (see perfbench/README.md).
The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--trace 0`` the metrics are
the end-to-end ones, with ``--trace 1`` the per-layer ones.  The line before
it records the environment and run details.

This process measures set-up time, starts the workload process
(``child.py``), enforces a wall limit on each op and on the whole run, and
computes the metrics from the events the workload process streams back.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

WORKLOADS = ("analyze", "census", "table1", "extensions")
SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0  # the whole run, set-up included, ends before this

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mib": "MiB",
    "ok_frac": "ratio",
    "setup_s": "s",
}

# Times the import, then probes the speed of the same process right after it.
# The speed module is imported only after the timed import, so that the import
# of fractions stays in the timed part; the first probes, which run while the
# interpreter is still specialising their code, are not used.
IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import graphsolitons.cli\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from speed import REFERENCE_S, probe\n"
    "f = [REFERENCE_S / probe() for _ in range(25)][5:]\n"
    "f = sum(f) / len(f)\n"
    "print(t, t * f)\n"
)


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SOLITON_MODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment() -> dict:
    return {
        "loadavg": list(os.getloadavg()),
        "time": time.time(),
    }


def measure_setup(env: dict, deadline: float) -> tuple[float, float]:
    """Median time to import graphsolitons.cli in a fresh interpreter, scaled
    to the reference speed and as measured.

    One unmeasured import first, so that the bytecode cache is written."""
    scaled, raw = [], []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(HERE)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
            check=True,
        )
        seconds, seconds_scaled = map(float, proc.stdout.split())
        if i:
            raw.append(seconds)
            scaled.append(seconds_scaled)
    return statistics.median(scaled), statistics.median(raw)


class Monitor:
    """Reads the workload process's events and enforces the wall limits."""

    def __init__(self, proc: subprocess.Popen, deadline: float):
        self.proc = proc
        self.deadline = deadline
        self.buf = b""
        self.ready = None
        self.end = None
        self.done = []
        self.inflight = None  # (start event, wall-limit deadline)
        self.killed = None

    def _handle(self, event: dict) -> None:
        ev = event["ev"]
        if ev == "ready":
            self.ready = event
        elif ev == "start":
            self.inflight = (event, time.monotonic() + event["limit_s"])
        elif ev == "done":
            start, _ = self.inflight
            event["units"] = start["units"]
            self.done.append(event)
            self.inflight = None
        elif ev == "end":
            self.end = event

    def run(self) -> None:
        fd = self.proc.stdout.fileno()
        while True:
            limit = self.deadline
            if self.inflight is not None:
                limit = min(limit, self.inflight[1])
            timeout = limit - time.monotonic()
            if timeout <= 0:
                self.killed = "wall limit"
                self.proc.kill()
                break
            readable, _, _ = select.select([fd], [], [], timeout)
            if not readable:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            self.buf += chunk
            *lines, self.buf = self.buf.split(b"\n")
            for line in lines:
                self._handle(json.loads(line))
        self.proc.wait()
        if self.inflight is not None:
            start, _ = self.inflight
            reason = self.killed or f"workload process died (exit {self.proc.returncode})"
            self.done.append(
                {"op": start["op"], "units": start["units"], "label": start["label"],
                 "failure": reason}
            )
            self.inflight = None


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(done: list, peak_rss_mib: float, setup_s: float, key: str) -> dict:
    """The end-to-end metrics, from op times under ``key`` (scaled or raw)."""
    timed = [d for d in done if d.get(key) is not None]
    secs = [d[key] for d in timed]
    attempted = sum(d["units"] for d in done)
    failed = sum(d["units"] for d in done if d["failure"])
    values = {
        "ops_per_s": sum(d["units"] for d in timed) / sum(secs),
        "op_p50_ms": percentile(secs, 50) * 1e3,
        "op_p90_ms": percentile(secs, 90) * 1e3,
        "peak_rss_mib": peak_rss_mib,
        "ok_frac": (attempted - failed) / attempted,
        "setup_s": setup_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="minimum input sizes (self-test)")
    args = ap.parse_args(argv)

    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    if not (SRC / "graphsolitons" / "cli.py").is_file():
        return fail(f"no package source at {SRC / 'graphsolitons'}; run from a source checkout")

    env = child_env()
    env_start = environment()
    setup_s = setup_raw_s = None
    if not args.trace:
        try:
            setup_s, setup_raw_s = measure_setup(env, deadline)
        except subprocess.SubprocessError as exc:
            return fail(f"importing graphsolitons.cli failed: {exc}")

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir,
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    monitor = Monitor(proc, deadline)
    try:
        monitor.run()
    finally:
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if monitor.ready is None:
        return fail(f"workload process failed before its first op (exit {proc.returncode})")
    if not monitor.ready["module"].startswith(str(SRC)):
        return fail(f"imported graphsolitons from {monitor.ready['module']}, not {SRC}")
    done = monitor.done
    if not any("s" in d for d in done):
        return fail(f"no op completed ({monitor.killed or 'workload process died'})")
    failures = [d for d in done if d["failure"]]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "env_start": env_start,
        "env_end": environment(),
        "inputs_s": monitor.ready["inputs_s"],
        "ops": len(done),
        "cycles": (monitor.end or {}).get("cycles"),
        "killed": monitor.killed,
        "failures": [[d.get("label"), d["failure"]] for d in failures[:5]],
    }
    correct = not failures
    if args.trace:
        if monitor.end is None:
            print(json.dumps({"info": info}))
            return fail("traced run ended early; per-layer metrics incomplete")
        per_layer = monitor.end["per_layer"]
        info["top_self_time"] = monitor.end["layers"]
        sys.stderr.write(json.dumps({"call_tree": monitor.end["call_tree"]}, indent=1) + "\n")
        coverage = per_layer["trace.self_sum_frac_worst"]
        correct = correct and 0.95 <= coverage <= 1.05
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        peak = (monitor.end or {}).get("peak_rss_mib")
        if peak is None:
            peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        metrics = end_to_end(done, peak, setup_s, "scaled_s")
        info["unscaled"] = {
            name: m["value"] for name, m in end_to_end(done, peak, setup_raw_s, "s").items()
        }
    attempted = sum(d["units"] for d in done)
    failed = sum(d["units"] for d in failures)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
