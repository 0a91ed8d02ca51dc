"""``python -m tdesim`` with the benchmark's spans installed.

    python3 benchmarks/cli_shim.py <tdesim arguments>

Runs ``tdesim.cli.main`` exactly as the module entry point does, then
writes the per-span totals of the process to stderr as one line starting
with ``BENCH_TRACE``.  Standard output is the command's own.
"""

import json
import sys

from tracer import TRACE_MARK, Tracer


def main() -> int:
    tracer = Tracer()
    import tdesim.cli

    tracer.activate()
    try:
        code = tdesim.cli.main(sys.argv[1:])
    finally:
        tracer.deactivate()
        sys.stdout.flush()
        sys.stderr.write(TRACE_MARK + json.dumps(tracer.snapshot()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
