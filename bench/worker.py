"""Run one ``igusa <mode>`` job in this process and print one JSON line.

    python3 bench/worker.py <mode> [--trace] [--setup-only] < job.cfg

The job file arrives on standard input.  Set-up ends once ``igusa`` is
imported and the job file is parsed; the reported ``t_ready`` is the
``perf_counter`` reading at that moment (CLOCK_MONOTONIC, so the parent can
subtract its own spawn time).  The timed interval runs from entering
``cli.run`` until the report is rendered in the job's ``output`` format, as
``igusa <mode>`` renders it.  The JSON report for the output check is
rendered after that, outside the timed interval and the trace.  ``igusa``
must be importable, e.g. with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    mode = argv[0]
    traced = "--trace" in argv
    tracer = None
    from igusa import cli
    from igusa.errors import IgusaError

    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    config = cli.parse_config(sys.stdin.read())
    config.mode = mode
    out: dict = {"t_ready": time.perf_counter()}
    if "--setup-only" not in argv:
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        try:
            report, code = cli.run(config)
            render = cli.report_json if config.output == "json" else cli.render_text
            render(report)
        except IgusaError as exc:
            code = exc.exit_code
            out["error"] = json.dumps(exc.detail(), sort_keys=True)
        except Exception:
            code = None
            out["error"] = traceback.format_exc()
        end = time.perf_counter()
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        out.update(exit_code=code, wall_s=end - start, cpu_s=_cpu_s(usage1) - _cpu_s(usage0))
        if tracer is not None:
            out["trace"] = tracer.summary()
        if code == 0:
            out["report"] = cli.report_json(report)
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
