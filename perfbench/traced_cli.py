"""Run the qcollapse command line with every layer traced.

    python perfbench/traced_cli.py SPANS_OUT [qcollapse arguments...]

Behaves like ``qcollapse`` (same output, same exit code) and writes the
trace summary of the run as JSON to SPANS_OUT.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qcollapse import cli  # noqa: E402

import layers  # noqa: E402
import spans  # noqa: E402


def main(argv: list[str]) -> int:
    spans_out, cli_args = Path(argv[0]), argv[1:]
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        return tracer.traced(cli.main, "cli.main")(cli_args)
    finally:
        tracer.restore()
        spans_out.write_text(json.dumps(tracer.summary()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
