"""Traced cold CLI call: `python -X importtime cold_entry.py SPANS_JSON ARGV...`.

Installs the span wrappers, runs `ruledmin.cli.main(ARGV)` and writes the
spans to SPANS_JSON; stdout and the exit code are the CLI's own.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracing.Tracer()
    tracing.install(tr)
    tr.op_id = 0
    from ruledmin import cli

    try:
        rc = cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tr.dump(), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
