"""One benchmark run in a fresh interpreter.

    python3 child.py WORKLOAD SEED MODE START

Run with the run directory as working directory and the package source on
PYTHONPATH.  START is CLOCK_MONOTONIC (shared by all processes) read by the
parent just before it started this process, so set-up time covers
interpreter start, `import hkflow`, `import hkflow.cli` and writing the
config.  MODE is `setup` (stop once inputs are ready), `run` or `trace`
(run the workload's commands through hkflow.cli.main, with the span tracer
installed for `trace`).  The result goes to child.json in the working
directory; the CLI's own output goes to out/.
"""
import json
import resource
import sys
import time
from pathlib import Path

import scenarios


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv) -> int:
    workload, seed, mode, start = argv[0], int(argv[1]), argv[2], float(argv[3])

    import hkflow
    import hkflow.cli
    Path(scenarios.CONFIG_NAME).write_text(
        scenarios.config_text(workload, seed))
    ready = _now()

    import numpy
    import scipy
    result = {"setup_s": ready - start,
              "hkflow_file": hkflow.__file__,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer, install
            tracer = Tracer()
            install(tracer)
        codes = []
        wall = cpu = 0.0
        for cmd in scenarios.commands(workload):
            t0, c0 = _now(), time.process_time()
            rc = hkflow.cli.main(cmd)
            wall += _now() - t0
            cpu += time.process_time() - c0
            codes.append(rc)
            if rc != 0:
                break
        result.update({"wall_s": wall, "cpu_s": cpu, "exit_codes": codes})
        if tracer is not None:
            result["trace"] = tracer.report()
    result["peak_rss_mib"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path("child.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
