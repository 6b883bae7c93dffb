"""One fresh interpreter per sample: import the CLI, optionally run it.

    python3 child.py import RESULT_JSON
    python3 child.py analyze RESULT_JSON CLI_ARGS...
    python3 child.py trace RESULT_JSON BA_N BA_M SEED CLI_ARGS...

``import`` imports ``netevolve.cli`` and stops.  ``analyze`` then calls
``cli.main`` with the CLI args, exactly as ``python -m netevolve`` would.
``trace`` does the same with a span around every public function of the
program's layer modules (run it with NETEVOLVE_THREADS=1), then times the
program's generator building BA(BA_N, BA_M) for SEED.  Which
``netevolve`` is imported is set by the caller's PYTHONPATH.  Timings go to
RESULT_JSON; the CLI's own exit code is recorded there and passed on.
"""

import json
import sys
import time

_t0 = time.perf_counter()
import netevolve.cli as cli  # noqa: E402  (the import is what is timed)

_t1 = time.perf_counter()


def _threads_used():
    """The worker count the CLI resolves when --threads is not given."""
    import netevolve.pipeline as pipeline

    resolve = getattr(pipeline, "_resolve_threads", None)
    return resolve(None) if resolve else None


def _peak_rss_mb() -> float:
    """This process's own peak resident memory.

    VmHWM covers only the memory image since exec.  ``ru_maxrss`` would do
    elsewhere, but on Linux it also keeps the parent's peak when the parent
    spawned this process with vfork.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    mode, result_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    result = {"import_s": _t1 - _t0, "netevolve_file": cli.__file__}
    code = 0
    if mode in ("analyze", "trace"):
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            ba_n, ba_m, seed = (int(v) for v in argv[:3])
            argv = argv[3:]
            tracer = Tracer()
            tracer.install()
        result["threads"] = _threads_used()
        start = time.perf_counter()
        code = cli.main(argv)
        result["analyze_s"] = time.perf_counter() - start
        result["exit_code"] = code
        result["peak_rss_mb"] = _peak_rss_mb()
        if tracer is not None:
            import netevolve.generators as generators

            generators.barabasi_albert(ba_n, ba_m, seed)
            result["start"] = start
            result["spans"] = tracer.spans
            result["counts"] = tracer.counts
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
