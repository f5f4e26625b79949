"""Runs one library workload in a fresh process started by run.py.

Usage: python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE TRACE_FILE

Order of work: import the program, generate the inputs (timed apart, so
run.py can leave it out of set-up), one warm-up operation, then a line
``{"gen_s": ...}`` that marks the end of set-up.  Next comes one untimed
round whose every output is checked against :mod:`checks`; it gives
each operation's reference fingerprint.  Timed rounds follow, each
output compared with its fingerprint (and checked in full if it
differs).  The last stdout line is the result as JSON.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
sys.path[:0] = [HERE, SRC]

MAX_REPORTED_ERRORS = 5


def fingerprint(out):
    """Bitwise identity of an outcome: every field, arrays as bytes."""
    if isinstance(out, Exception):
        return ("raised", type(out).__name__)
    return tuple(v.tobytes() if hasattr(v, "tobytes") else v for v in vars(out).values())


def evaluate(op, out, errors_mod) -> tuple[bool, str | None]:
    """(failed, check error) for one outcome.

    An operation fails when it raises although it should return, or
    returns although it should raise ``op.expect_error``.  A returned
    value that disagrees with its independent check is a check error.
    """
    import checks

    if op.expect_error is not None:
        return not isinstance(out, getattr(errors_mod, op.expect_error)), None
    if isinstance(out, Exception):
        return True, None
    try:
        op.check(out)
    except checks.CheckError as exc:
        return False, f"{op.label}: {exc}"
    return False, None


class Runner:
    def __init__(self, ops, modules, errors_mod, host):
        self.ops, self.modules, self.errors_mod, self.host = ops, modules, errors_mod, host
        self.outs = [None] * len(ops)
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.reference: list = []
        self.ref_failed: list[bool] = []

    def run_round(self, tracer=None) -> tuple[array, array]:
        """One pass; wall seconds and midpoint time of each operation.

        Functions are looked up at call time, so installed trace wrappers
        are the ones called.  Reference passes run between operations,
        outside their timing.
        """
        clock = time.perf_counter_ns
        durations, midpoints = array("d"), array("d")
        for i, op in enumerate(self.ops):
            fn = getattr(self.modules[op.module], op.func)
            if tracer is not None:
                tracer.op = self.attempted + i
            t0 = clock()
            try:
                out = fn(*op.args)
            except Exception as exc:  # the outcome is judged by evaluate()
                out = exc
            t1 = clock()
            if tracer is not None:
                tracer.op = None
            durations.append((t1 - t0) / 1e9)
            midpoints.append((t0 + t1) / 2e9)
            self.outs[i] = out
            self.host.sample_if_due()
        return durations, midpoints

    def check_round(self) -> None:
        """Untimed round: every output checked, fingerprints kept."""
        self.run_round()
        for op, out in zip(self.ops, self.outs):
            bad, error = evaluate(op, out, self.errors_mod)
            self.ref_failed.append(bad)
            if error:
                self.errors.append(error)
            self.reference.append(fingerprint(out))

    def timed(self, seconds: float, tracer=None):
        """Whole rounds until about ``seconds`` have passed.

        With a tracer, rounds alternate between untraced and traced so
        both see the same host; returns (untraced rounds, traced rounds).
        """
        rounds = ([], [])
        start = time.perf_counter()
        while True:
            traced = tracer is not None and len(rounds[0]) > len(rounds[1])
            if traced:
                tracer.install()
            rounds[traced].append(self.run_round(tracer if traced else None))
            if traced:
                tracer.uninstall()
            self.attempted += len(self.ops)
            for i, out in enumerate(self.outs):
                if fingerprint(out) == self.reference[i]:
                    self.failed += self.ref_failed[i]
                else:
                    bad, error = evaluate(self.ops[i], out, self.errors_mod)
                    self.failed += bad
                    if error:
                        self.errors.append(error)
            elapsed = time.perf_counter() - start
            done = len(rounds[0]) + len(rounds[1])
            if elapsed + 0.5 * elapsed / done >= seconds and (tracer is None or rounds[1]):
                return rounds


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, trace_file = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"

    import unimetric
    import unimetric.errors
    import unimetric.metrics
    import unimetric.subsets

    if not os.path.abspath(unimetric.__file__).startswith(SRC + os.sep):
        print(f"unimetric imported from {unimetric.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import host
    import tracing
    import workloads

    program = SimpleNamespace(metrics=unimetric.metrics, subsets=unimetric.subsets)
    t0 = time.perf_counter()
    ops = workloads.build(workload, seed, program)
    gen_s = time.perf_counter() - t0
    speed = host.HostSpeed(workload)
    runner = Runner(ops, vars(program), unimetric.errors, speed)
    warm = ops[0]
    try:
        getattr(getattr(program, warm.module), warm.func)(*warm.args)
    except Exception:  # pragma: no cover - judged with the check round
        pass
    print(json.dumps({"gen_s": gen_s}), flush=True)
    for _ in range(3):
        speed.sample()
    result = {"setup_ref_ms": speed.median_ms()}
    runner.check_round()
    if not trace:
        rounds = runner.timed(seconds)[0]
        result["ops_per_s"] = len(ops) / speed.round_seconds(rounds)
    else:
        tracer = tracing.Tracer()
        plain, traced = runner.timed(seconds, tracer)
        layers = tracing.layer_metrics(tracer.spans, len(traced) * len(ops))
        layers["host.ref_pass_ms"] = speed.median_ms()
        layers["trace.overhead_s"] = speed.round_seconds(traced) - speed.round_seconds(plain)
        result["layers"] = layers
        tracer.dump(trace_file, {"workload": workload, "seed": seed, "ops_per_round": len(ops)})
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        errors=runner.errors[:MAX_REPORTED_ERRORS],
        check_errors=len(runner.errors),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
