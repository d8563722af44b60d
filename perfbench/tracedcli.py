"""Run ``repro.cli.main`` in this fresh interpreter with the tracer installed.

Usage: ``python tracedcli.py SPANS_JSON CALL_ID FIRST_SPAN_ID -- CLI ARGS...``

The CLI's own output goes to stdout as usual; the spans, including one
for ``import repro.cli``, go to SPANS_JSON when the CLI returns.
"""

import json
import sys
import time

from proc import SRC
from tracing import Tracer


def main() -> int:
    spans_path, call_id, first_id, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    sys.path.insert(0, str(SRC))
    tracer = Tracer(int(first_id))
    tracer.begin_call(call_id)
    start = time.perf_counter()
    import repro.cli

    tracer.record("cli.import", start, time.perf_counter())
    # Wrapping imports the modules the CLI would load lazily; that cost
    # shows as this span rather than inside cli.main.
    start = time.perf_counter()
    tracer.install()
    tracer.record("trace.install", start, time.perf_counter())
    try:
        code = repro.cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.end_call()
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.export(), handle)
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


if __name__ == "__main__":
    sys.exit(main())
