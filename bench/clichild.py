"""Run one edgebalance command in-process with the tracer on.

    python3 bench/clichild.py SPANS_FILE ARG...

The traced cli_mix run starts this in place of ``python -m edgebalance.cli``.
It wraps the library's traced functions, runs ``cli.main(ARG...)``, writes
the spans to SPANS_FILE for the worker to collect, and exits with main's
exit code.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import edgebalance  # noqa: E402
import edgebalance.cli  # noqa: E402
import tracer  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    tr.install(edgebalance)
    sys.argv = [sys.argv[0], *argv]  # the CLI records its own arguments in the report
    try:
        return edgebalance.cli.main(argv)
    finally:
        tr.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main())
