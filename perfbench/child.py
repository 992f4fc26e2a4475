"""One workload process: set-up, then the workload's commands, each
through `cyclichodge.cli.main`.

Usage: python3 child.py ROOT SPEC_JSON

SPEC_JSON holds `setup` (one argv), `commands` (a list of argv) and
`spans` (a file to write the trace to, or null for an untraced run).
The process prints one JSON object: the monotonic clock when set-up
ended, each command's exit code and output, the run's wall time after
set-up, and the process's CPU time and peak resident memory.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run_cli(call, argv):
    """(exit code, stdout) of one command; (None, '') if it raised."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = call(argv)
    except SystemExit as exc:  # argparse and `cli` exit this way on errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback counts the command as failed
        traceback.print_exc()
        return None, ""
    return code, out.getvalue()


def main(root, spec):
    sys.path.insert(0, str(Path(root) / "src"))
    import cyclichodge
    from cyclichodge import cli

    tracer = None
    call = cli.main
    if spec["spans"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(cyclichodge)

        def call(argv):
            return tracer.span("cli.main", cli.main, argv)

    setup = run_cli(call, spec["setup"])
    setup_end = time.monotonic()
    outputs = []
    if setup[0] == 0:
        outputs = [run_cli(call, argv) for argv in spec["commands"]]
    run_s = time.monotonic() - setup_end

    if tracer is not None:
        Path(spec["spans"]).write_text(json.dumps(
            {"spans": tracer.spans, "counts": tracer.counts}))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    print(json.dumps({
        "setup_end": setup_end,
        "setup": setup,
        "outputs": outputs,
        "run_s": run_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }))


if __name__ == "__main__":
    main(sys.argv[1], json.loads(sys.argv[2]))
