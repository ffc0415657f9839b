"""Run one semihoc CLI command with the tracer installed.

    python3 perfbench/clirun.py <record.json> <semihoc command and arguments>

Writes the command's trace record (see tracing.Tracer.take) to record.json
and exits with the command's exit code. Needs `src` on PYTHONPATH.
"""

import json
import sys
from pathlib import Path

import tracing


def main() -> int:
    record, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    from semihoc import cli

    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        record.write_text(json.dumps(tracer.take()))


if __name__ == "__main__":
    sys.exit(main())
