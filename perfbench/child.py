"""Workload process: one closed-loop client calling ``graphsolitons.cli.main``.

Started by ``run.py``; not meant to be run by hand.  It caps its own address
space, writes the seeded inputs, then runs whole cycles of operations (one
cycle = every op of one input set, in a fixed order) for about ``--seconds``:
another cycle starts unless, at the last cycle's pace, it would end more than
half a cycle after ``--seconds``.  It reports to the parent on stdout, one JSON
event per line: ``ready``, then ``start``/``done`` for every op, then ``end``.
With ``--trace 1`` each cycle runs twice on the same inputs, untraced and then
traced, and the two stdouts of every op must be byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback

ADDRESS_SPACE_BYTES = 3 << 30


def emit(event: dict) -> None:
    sys.__stdout__.write(json.dumps(event) + "\n")
    sys.__stdout__.flush()


def call_main(main, argv):
    """Run one CLI command in-process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue()


def run_op(cli, op, index, speed, tracer=None):
    """Run and check one op.

    Returns (seconds, seconds at reference speed, seconds elapsed in all,
    stdouts, failure or None); see ``SpeedSampler.stop``."""
    emit({"ev": "start", "op": index, "units": op.units, "limit_s": op.limit_s,
          "label": op.label})
    if tracer is not None:
        tracer.begin_op(index)
    results = []
    failure = None
    token = speed.start()
    try:
        for argv in op.argvs:
            results.append(call_main(cli.main, argv))
    except MemoryError:
        failure = "MemoryError (address-space cap)"
    except Exception:  # a traceback out of main() is a failed op, not a failed run
        failure = traceback.format_exc(limit=3).strip().splitlines()[-1]
    wall, scaled, elapsed = speed.stop(token)
    if failure is None:
        try:
            failure = op.check(results)
        except Exception:
            failure = "check raised: " + traceback.format_exc(limit=1).strip().splitlines()[-1]
    return wall, scaled, elapsed, [out for _rc, out in results], failure


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_BYTES, ADDRESS_SPACE_BYTES))

    import graphsolitons.cli as cli

    from speed import SpeedSampler
    from workloads import make_inputs

    t0 = time.perf_counter()
    input_sets = make_inputs(args.workload, args.seed, args.workdir, args.smoke)
    emit({"ev": "ready", "inputs_s": time.perf_counter() - t0, "module": cli.__file__})

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    index = 0
    traced_ops = 0
    scaled_plain = scaled_traced = 0.0
    self_sum_frac_worst = 1.0
    start = time.perf_counter()
    cycle = 0
    last = 0.0
    with SpeedSampler() as speed:
        while cycle == 0 or time.perf_counter() - start + last / 2 <= args.seconds:
            c0 = time.perf_counter()
            ops = input_sets[cycle % len(input_sets)]
            plain_out = []
            for op in ops:
                wall, scaled, _elapsed, outs, failure = run_op(cli, op, index, speed)
                emit({"ev": "done", "op": index, "s": wall, "scaled_s": scaled,
                      "failure": failure, "label": op.label})
                plain_out.append(outs)
                scaled_plain += scaled
                index += 1
            if tracer is not None:
                tracer.install()
                try:
                    for op, expected in zip(ops, plain_out):
                        wall, scaled, elapsed, outs, failure = run_op(
                            cli, op, index, speed, tracer
                        )
                        if failure is None and outs != expected:
                            failure = "traced stdout differs from the untraced run"
                        # Spans contain the probe handler's time, so compare
                        # them with the whole elapsed interval.
                        frac = tracer.op_self_s / elapsed
                        if abs(frac - 1) > abs(self_sum_frac_worst - 1):
                            self_sum_frac_worst = frac
                        emit({"ev": "done", "op": index, "s": wall, "scaled_s": scaled,
                              "failure": failure, "label": op.label, "traced": True})
                        scaled_traced += scaled
                        traced_ops += 1
                        index += 1
                finally:
                    tracer.uninstall()
            last = time.perf_counter() - c0
            cycle += 1

    end = {
        "ev": "end",
        "cycles": cycle,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        end["per_layer"] = tracer.metrics(
            traced_ops, scaled_traced / scaled_plain - 1.0, self_sum_frac_worst
        )
        end["layers"] = [[name, s] for s, name in tracer.layer_table(traced_ops)[:8]]
        end["call_tree"] = tracer.call_tree(traced_ops)
    emit(end)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
