"""One measured run of a workload, in a fresh interpreter.

Usage: python3 bench/child.py JOB_JSON

The job file names the config, the CLI argument vectors and where to write
the result. The parent starts this process with the BLAS thread variables
already set and ``src`` on ``PYTHONPATH``; the parent's clock reading just
before the start and this process's ``t_setup`` give the set-up time
(interpreter start, ``import ethlab`` with numpy, config load and
validation). ``wall`` runs from the first CLI call to the return of the
last, when the last output has been written.
"""

import json
import os
import resource
import sys
import time


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    import ethlab.cli
    from ethlab.config import RunConfig
    RunConfig.from_file(job["config"])
    result = {"t_setup": time.monotonic()}
    if job["setup_only"]:
        _write(job["result"], result)
        return 0
    tracer = None
    if job["trace_dir"]:
        from tracer import Tracer
        tracer = Tracer(job["run_id"], job["trace_dir"])
        tracer.install()
    t0 = time.monotonic()
    codes = [ethlab.cli.main(argv) for argv in job["argvs"]]
    t1 = time.monotonic()
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    result.update({
        "t_start": t0, "t_end": t1, "exit_codes": codes,
        "cpu_s": own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime,
        # ru_maxrss is KiB on Linux; the children figure is the largest
        # waited-for descendant, i.e. the largest sweep worker.
        "peak_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024.0,
    })
    if tracer:
        result["spans"] = tracer.collect()
    _write(job["result"], result)
    return 0


def _write(path, obj):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh)
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
