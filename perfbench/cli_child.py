"""Run the ``hardylab`` command line and record the process's own peak memory.

    python3 perfbench/cli_child.py PEAK.json - all --dim 3 --out DIR
    python3 perfbench/cli_child.py PEAK.json SPANS.npz all --dim 3 --out DIR

Runs ``hardylab.cli.main`` on the arguments after the second one, as the
``hardylab`` console script does, writes the process's peak resident memory
to PEAK.json and exits with the command's exit code.  The peak is the
address space's high-water mark (``VmHWM``), which starts afresh at exec;
``ru_maxrss`` would also count the parent's memory from before the exec.
When the second argument is a path rather than ``-``, the tracer is
installed around the command, and the process's spans go to SPANS.npz and
its raw per-layer totals to SPANS.summary.json.  The parent sets PYTHONPATH
to the checkout's ``src``.
"""

import json
import resource
import sys
from pathlib import Path


def peak_kb() -> int:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    peak, spans, args = Path(sys.argv[1]), sys.argv[2], sys.argv[3:]
    if spans == "-":
        from hardylab.cli import main as cli_main

        code = cli_main(args)
    else:
        from tracer import Tracer, cli

        spans = Path(spans)
        tracer = Tracer()
        since = tracer.mark()
        tracer.install()
        try:
            code = cli.main(args)
        finally:
            tracer.uninstall()
        tracer.save(spans)
        spans.with_suffix(".summary.json").write_text(json.dumps(tracer.summary(since)))
    peak.write_text(json.dumps({"peak_kb": peak_kb()}))
    return code


if __name__ == "__main__":
    sys.exit(main())
