"""Run one nanograting CLI command with the span tracer installed.

Usage: python clishim.py RECORD.json SUBCOMMAND [ARGS...]

Behaves like ``python -m nanograting SUBCOMMAND ARGS...`` (same stdout,
files and exit code) and also writes RECORD.json with the import time of
``nanograting.cli``, the time spent in ``cli.main``, and the spans recorded
inside it. Used only by traced runs of the cli-chain workload.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main() -> int:
    record, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    from nanograting import cli

    import_s = time.perf_counter() - start
    tracer = spans.Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        return cli.main(argv)
    finally:
        main_s = time.perf_counter() - start
        tracer.uninstall()
        with open(record, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "main_s": main_s, "absent": tracer.absent,
                       "spans": tracer.spans}, handle)


if __name__ == "__main__":
    raise SystemExit(main())
