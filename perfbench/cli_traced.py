"""One traced CLI call: ``python3 perfbench/cli_traced.py TRACE_FILE ARGS...``.

Does what ``python -m unimetric.cli ARGS...`` does, with the program's
public functions wrapped by :class:`tracing.Tracer`.  The time of the
fresh ``import unimetric.cli`` and the spans of the call go to
TRACE_FILE; the report goes to stdout as usual.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main() -> int:
    trace_file, args = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import unimetric.cli

    import_s = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = 0
    try:
        return unimetric.cli.main(args)
    finally:
        tracer.op = None
        tracer.dump(trace_file, {"import_s": import_s})


if __name__ == "__main__":
    sys.exit(main())
