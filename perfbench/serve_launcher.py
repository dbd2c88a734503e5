"""Run ``repro serve`` under the benchmark's tracer or host sampler.

Usage: ``python perfbench/serve_launcher.py {trace|sample} OUT.json serve
--models DIR ...`` (the arguments after ``OUT.json`` go to ``repro``'s CLI
unchanged).

``trace``: the layer wrappers are installed and recording starts on.
``SIGUSR1`` switches it off; ``SIGUSR2`` restarts the counters and switches
it back on.  Spans and counters are written to ``OUT.json`` (Chrome
trace-event JSON) when the server exits on SIGINT.

``sample``: a :class:`harness.HostSampler` runs for the server's whole
life.  ``SIGUSR1`` writes its running totals (``wall``, ``cpu``, ``units``)
to ``OUT.json``, replacing the file in one step.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import HostSampler  # noqa: E402
from tracing import Tracer, install  # noqa: E402


def main() -> int:
    mode, out = sys.argv[1], Path(sys.argv[2])
    if mode == "sample":
        from repro.cli import main as repro_main

        sampler = HostSampler()

        def snapshot(*_):
            totals = {"wall": sampler.wall, "cpu": sampler.cpu, "units": sampler.units}
            partial = out.with_name(out.name + ".partial")
            partial.write_text(json.dumps(totals), encoding="utf-8")
            os.replace(partial, out)

        signal.signal(signal.SIGUSR1, snapshot)
        with sampler:
            return repro_main(sys.argv[3:])

    tracer = Tracer(enabled=True)
    install(tracer)

    def off(*_):
        tracer.enabled = False

    def on(*_):
        tracer.counters = {}
        tracer.enabled = True

    signal.signal(signal.SIGUSR1, off)
    signal.signal(signal.SIGUSR2, on)
    # Imported after the wrappers are installed, so that its bindings see them.
    from repro.cli import main as repro_main

    try:
        return repro_main(sys.argv[3:])
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    raise SystemExit(main())
