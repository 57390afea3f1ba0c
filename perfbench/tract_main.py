"""Start one ``tract`` command the way its console script does.

With ``PERFBENCH_SPANS=<file>`` set, the tracer's wrappers are installed
first and the spans are written to that file as JSON when the command ends,
so interpreter start-up and import stay inside the measured command.
"""

import json
import os
import sys

import tract.cli

spans_path = os.environ.get("PERFBENCH_SPANS")
if spans_path:
    from tracer import Tracer, install

    tracer = Tracer()
    patch = install(tracer)
try:
    code = tract.cli.main(sys.argv[1:])
finally:
    if spans_path:
        patch.restore()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.export(), handle)
sys.exit(code)
