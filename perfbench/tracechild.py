"""Run the qtop CLI under the span tracer and hand the totals back.

Usage: python tracechild.py <qtop arguments...>

Behaves like ``python -m qtop.cli`` (same stdout, stderr and exit code)
and writes the op's span totals as JSON to the file named by the
PERFBENCH_TRACE_OUT environment variable.
"""

import json
import os
import sys

import tracer
import qtop.cli


def main(argv: list[str]) -> int:
    spans = tracer.Tracer()
    spans.install()
    spans.enter("cli.main")
    try:
        code = qtop.cli.main(argv)
    except SystemExit as e:  # argparse usage errors
        spans.exit(raised=True)
        code = e.code
    except BaseException:
        spans.exit(raised=True)
        _dump(spans)
        raise
    else:
        spans.exit()
    _dump(spans)
    return code


def _dump(spans: tracer.Tracer) -> None:
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
        json.dump(spans.summary(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
