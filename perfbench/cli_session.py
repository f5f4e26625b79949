"""The ``cli_session`` workload: fresh ``python -m unimetric.cli`` processes.

A round is six calls, one operation each: ``dist`` and ``distinguish``
on matrix files at n = 4 (a narrow-arc pair, d < 1) and n = 64 (a Haar
pair, which saturates), ``stabilizer`` on the five-qubit code and
``search --N 1048576 --epsilon 0.1``.  Every call must exit 0 and every
report is checked with :mod:`checks`.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import host
import tracing
import workloads

FIVE_QUBIT_CODE = ["+XZZXI", "+IXZZX", "+XIXZZ", "+ZXIXZ"]
SEARCH_N, SEARCH_EPSILON = 1048576, 0.1
HERE = os.path.dirname(os.path.abspath(__file__))


def write_matrix(path: str, m: np.ndarray) -> None:
    """The CLI's matrix file format, written without the program's help."""
    data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"rows": m.shape[0], "cols": m.shape[1], "data": data}, fh)


def read_matrix(obj: dict) -> np.ndarray:
    flat = np.array([complex(re, im) for re, im in obj["data"]])
    return flat.reshape(obj["rows"], obj["cols"])


def build_calls(seed: int, workdir: str) -> list[tuple[list[str], object]]:
    """(CLI arguments, check of the parsed report) for each call of a round."""
    rng = np.random.default_rng([seed, workloads.WORKLOAD_IDS["cli_session"]])
    u4, v4, alpha4 = workloads.spectral_pair(rng, 4, "narrow", 0)
    u64, v64, _ = workloads.spectral_pair(rng, 64, "haar", 0)
    calls = []
    for n, u, v, alpha in ((4, u4, v4, alpha4), (64, u64, v64, None)):
        paths = [os.path.join(workdir, f"{name}{n}.json") for name in "UV"]
        write_matrix(paths[0], u)
        write_matrix(paths[1], v)

        def check_dist(rep, u=u, v=v, alpha=alpha):
            checks.check_sup(u, v, rep["value"], read_matrix(rep["maximizer"]), alpha)
            checks.check_value(
                rep["alpha"], checks.reference_arc(u, v), checks.value_tol(u.shape[0]), "alpha"
            )

        def check_distinguish(rep, u=u, v=v, alpha=alpha):
            witness = None if rep["witness"] is None else read_matrix(rep["witness"])
            checks.check_distinguishability(
                u, v, rep["distinguishable"], rep["value"], witness, rep["min_overlap_bound"], alpha
            )

        calls.append((["dist", *paths], check_dist))
        calls.append((["distinguish", *paths], check_distinguish))
    calls.sort(key=lambda c: c[0][0])  # dist 4, dist 64, distinguish 4, distinguish 64

    def check_stabilizer(rep):
        faces = [
            (read_matrix(f["basis"]), [complex(re, im) for re, im in f["characters"]])
            for f in rep["faces"]
        ]
        checks.check_stabilizer(faces, FIVE_QUBIT_CODE, expected_faces=16)

    def check_search(rep):
        checks.check_search(rep["k"], rep["achieved"], SEARCH_N, SEARCH_EPSILON)

    calls.append((["stabilizer", "--gens", ",".join(FIVE_QUBIT_CODE)], check_stabilizer))
    calls.append(
        (["search", "--N", str(SEARCH_N), "--epsilon", str(SEARCH_EPSILON)], check_search)
    )
    return calls


class Session:
    def __init__(self, root: str, env: dict, workdir: str):
        self.root, self.env, self.workdir = root, env, workdir
        self.host = host.HostSpeed("cli_session")
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.traces: list[dict] = []

    def call(self, args: list[str], check, trace: bool = False) -> tuple[float, float]:
        """Run one CLI process and judge its report; (wall s, midpoint time).

        A reference pass follows every call, outside its timing.
        """
        if trace:
            trace_file = os.path.join(self.workdir, f"trace{len(self.traces)}.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_traced.py"), trace_file, *args]
        else:
            cmd = [sys.executable, "-m", "unimetric.cli", *args]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True)
        t1 = time.perf_counter()
        wall = (t1 - t0, (t0 + t1) / 2)
        self.host.sample()
        self.attempted += 1
        if proc.returncode != 0:
            self.failed += 1
            print(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}", file=sys.stderr)
            return wall
        try:
            check(json.loads(proc.stdout))
        except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
            self.errors.append(f"{args[0]}: {exc!r}")
        if trace:
            with open(trace_file, encoding="utf-8") as fh:
                self.traces.append(json.load(fh))
        return wall

    def rounds(self, calls, seconds: float, trace: bool = False):
        """Whole rounds until about ``seconds`` have passed.

        With ``trace``, rounds alternate between plain and traced calls
        so both see the same host; returns (plain rounds, traced rounds).
        """
        out = ([], [])
        start = time.perf_counter()
        while True:
            traced = trace and len(out[0]) > len(out[1])
            timing = [self.call(args, check, traced) for args, check in calls]
            out[traced].append(tuple(zip(*timing)))
            elapsed = time.perf_counter() - start
            done = len(out[0]) + len(out[1])
            if elapsed + 0.5 * elapsed / done >= seconds and (not trace or out[1]):
                return out


def run(root: str, env: dict, seed: int, seconds: float, trace: bool, trace_file: str) -> dict:
    workdir = os.path.join(HERE, "out", f"cli-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        calls = build_calls(seed, workdir)
        session = Session(root, env, workdir)
        # set-up: one cold process (interpreter, imports, one operation),
        # scaled by reference passes taken around it
        session.host.sample()
        session.host.sample()
        setup_s, _ = session.call(*calls[0])
        setup_s *= host.NOMINAL_MS / session.host.median_ms()
        session.attempted = session.failed = 0
        result = {}
        if not trace:
            rounds = session.rounds(calls, seconds)[0]
            result["ops_per_s"] = len(calls) / session.host.round_seconds(rounds)
            result["setup_s"] = setup_s
        else:
            plain, traced = session.rounds(calls, seconds, trace=True)
            spans = []
            for op, tr in enumerate(session.traces):
                # span parents index into each process's own list
                base = len(spans)
                spans += [
                    [s[0], op, s[2] + base if s[2] >= 0 else -1, *s[3:]] for s in tr["spans"]
                ]
            layers = tracing.layer_metrics(spans, len(session.traces))
            layers["cli.import_s"] = statistics.median(t["import_s"] for t in session.traces)
            layers["host.ref_pass_ms"] = session.host.median_ms()
            layers["trace.overhead_s"] = session.host.round_seconds(
                traced
            ) - session.host.round_seconds(plain)
            result["layers"] = layers
            with open(trace_file, "w", encoding="utf-8") as fh:
                json.dump({"workload": "cli_session", "seed": seed, "spans": spans}, fh)
        result.update(
            attempted=session.attempted,
            failed=session.failed,
            errors=session.errors[:5],
            check_errors=len(session.errors),
        )
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
