"""Run one qgspectra CLI command with its spans recorded.

Usage: python3 perfbench/traced_cli.py SPANS_OUT COMMAND CONFIG [options]

Behaves like ``python -m qgspectra COMMAND CONFIG ...`` and additionally
writes the spans of this process to SPANS_OUT as JSON: one ``cli.import``
span for importing the package, then the wrapped calls under ``cli.main``.
The traced ``cli_batch`` pass starts the CLI through this script.
"""

import json
import sys

from spans import Tracer

tracer = Tracer()
span = tracer.open("cli.import", "cli")
import qgspectra.cli  # noqa: E402  (timed as part of the span above)

tracer.close(span)
tracer.install()
try:
    code = qgspectra.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(tracer.spans, handle)
sys.exit(code)
