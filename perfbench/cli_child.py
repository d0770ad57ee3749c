"""A traced ``skewforms`` CLI call: ``python cli_child.py SPANS_FILE ARGS``.

Runs ``skewforms.cli.main`` with the tracer installed.  stdout is the CLI's
own output, compared with the golden file like an untraced call; stderr
ends with one line holding the per-layer summary after ``spans.MARKER``.
"""

import json
import sys
from pathlib import Path

import skewforms.cli

import spans


def main(argv):
    spans_path = Path(argv[0])
    tracer = spans.Tracer()
    tracer.install()
    code = skewforms.cli.main(argv[1:])
    sys.stdout.flush()
    print(spans.MARKER + json.dumps(tracer.summary()), file=sys.stderr)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
