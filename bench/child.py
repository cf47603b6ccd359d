"""One benchmark invocation in a fresh interpreter.

Usage: python3 bench/child.py '<json spec>'

The spec holds the CLI argv and two flags: "trace" (wrap the library's
public functions and record spans) and "setup_only" (stop after set-up).
Set-up is the import of `usc_relax.cli` plus parsing the argv's config; the
parent times it from just before it spawns this process.  `cli.main` then
parses the config again inside the timed pass, which costs about a
millisecond.  The report goes to stdout as one JSON object.
"""

import json
import os
import resource
import sys
import time
import traceback


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _blas_info() -> list[dict]:
    """Name, configuration and thread count of each loaded OpenBLAS."""
    import ctypes
    import glob

    import numpy
    import scipy

    out = []
    for pkg in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            info = {"package": pkg.__name__, "library": os.path.basename(path)}
            lib = ctypes.CDLL(path)
            for key, names, restype in (
                ("threads", ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"), ctypes.c_int),
                ("config", ("scipy_openblas_get_config64_", "openblas_get_config"), ctypes.c_char_p),
            ):
                for sym in names:
                    fn = getattr(lib, sym, None)
                    if fn is not None:
                        fn.restype = restype
                        fn.argtypes = []
                        value = fn()
                        info[key] = value.decode() if isinstance(value, bytes) else value
                        break
            out.append(info)
    return out


def main() -> int:
    spec = json.loads(sys.argv[1])
    argv = spec["argv"]

    from usc_relax import cli
    from usc_relax.config import RunConfig, apply_overrides

    args = cli.build_parser().parse_args(argv)
    apply_overrides(RunConfig(), args.set)
    report = {"setup_end": time.monotonic(), "module": cli.__file__}

    if spec["setup_only"]:
        if spec.get("provenance"):
            import numpy
            import scipy

            report["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
            report["blas"] = _blas_info()
        print(json.dumps(report))
        return 0

    recorder = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        recorder = tracing.install()

    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:   # an uncaught library error is a failed invocation
        traceback.print_exc()
        rc = 1
    t1 = time.perf_counter()
    cpu1 = _cpu_seconds()

    report.update(
        rc=rc,
        wall=t1 - t0,
        cpu=cpu1 - cpu0,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if recorder is not None:
        report["trace"] = recorder.dump()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
