"""Wall time of a fresh ``python -m unimetric.cli`` process per subcommand.

Each round starts one process per subcommand, and the rounds interleave
the subcommands (and the trees, when ``--src`` is given more than once),
so a slow spell of a shared host spreads over all of them.  Three more
rows split start-up into its parts: the interpreter alone (``-c pass``),
``import numpy`` and ``import unimetric.cli``.  Each row gives the
median and interquartile range of per-process milliseconds over the
rounds, and the ``unimetric`` modules the process loaded, listed by one
more run of the same work.

Where no bytecode is written (``PYTHONDONTWRITEBYTECODE=1``), every
process compiles the package's sources again, and that compile is part
of each figure.

    python scripts/cli_startup_timings.py [--rounds R] [--src DIR ...]

One round, the default, is a quick check; a spread needs several.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
# each row's work: a Python statement, or None for the CLI with the row's arguments
PARTS = {
    "interpreter": "pass",
    "import numpy": "import numpy",
    "import cli": "import unimetric.cli",
}
CLI = "import runpy; runpy.run_module('unimetric.cli', run_name='__main__')"
LISTED = """
import sys
try:
    {}
except SystemExit:
    pass
print(*sorted(m[10:] for m in sys.modules if m.startswith("unimetric.")), file=sys.stderr)
"""


def write_matrix(path: pathlib.Path, m: np.ndarray) -> str:
    data = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    path.write_text(json.dumps({"rows": m.shape[0], "cols": m.shape[1], "data": data}))
    return str(path)


def subcommands(workdir: pathlib.Path) -> dict:
    rng = np.random.default_rng(0)
    z = rng.standard_normal((2, 4, 4)) + 1j * rng.standard_normal((2, 4, 4))
    u, v = (write_matrix(workdir / f"{c}.json", np.linalg.qr(m)[0]) for c, m in zip("uv", z))
    basis = write_matrix(workdir / "basis.json", np.eye(4)[:, :2].astype(complex))
    return {
        "dist": ["dist", u, v],
        "distinguish": ["distinguish", u, v],
        "tensor": ["tensor", "--d1", "0.5", "--d2", "0.5"],
        "face-dist": ["face-dist", u, v, "--basis", basis],
        "sep-dist": ["sep-dist", u, v, "--dims", "2,2", "--restarts", "4"],
        "nullspace": ["nullspace", "--gens", "+ZZ,+XX"],
        "stabilizer": ["stabilizer", "--gens", "+XZZXI,+IXZZX,+XIXZZ,+ZXIXZ"],
        "search": ["search", "--N", "1048576", "--epsilon", "0.1"],
        "numrange": ["numrange", u],
        "selftest 1": ["selftest", "--criteria", "1"],
    }


def environment(src: str) -> dict:
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return dict(os.environ, PYTHONPATH=path)


def argv_of(name: str, args: list) -> list:
    if name in PARTS:
        return [sys.executable, "-c", PARTS[name]]
    return [sys.executable, "-m", "unimetric.cli", *args]


def loaded_modules(name: str, args: list, env: dict) -> str:
    """The unimetric modules a process loads, from one more run that lists them."""
    code = LISTED.format(PARTS.get(name, CLI))
    argv = [sys.executable, "-c", code, *args]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    return proc.stderr.strip().splitlines()[-1] if proc.stderr.strip() else "-"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--src", action="append", help="a directory to import unimetric from")
    opts = parser.parse_args(argv)
    trees = opts.src or [str(ROOT / "src")]
    with tempfile.TemporaryDirectory() as tmp:
        calls = {**dict.fromkeys(PARTS, []), **subcommands(pathlib.Path(tmp))}
        samples = {(src, name): [] for src in trees for name in calls}
        for r in range(opts.rounds):
            names = list(calls)
            shift = r % len(names)  # each round starts one call later
            for name in names[shift:] + names[:shift]:
                for src in trees if r % 2 == 0 else trees[::-1]:
                    t0 = time.perf_counter()
                    argv = argv_of(name, calls[name])
                    proc = subprocess.run(argv, capture_output=True, env=environment(src))
                    samples[src, name].append(1e3 * (time.perf_counter() - t0))
                    if proc.returncode != 0:
                        sys.exit(f"{name} exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
        for src in trees:
            print(f"unimetric from {src}, {opts.rounds} rounds")
            print(f"{'process':>14} {'ms':>7} {'IQR':>6}  unimetric modules loaded")
            for name, args in calls.items():
                times = samples[src, name]
                q1, med, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
                mods = loaded_modules(name, args, environment(src))
                print(f"{name:>14} {med:>7.1f} {q3 - q1:>6.1f}  {mods}")


if __name__ == "__main__":
    main()
