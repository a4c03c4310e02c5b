"""Fresh-interpreter measurements, run by ``run.py`` as child processes.

    python3 child.py setup SRC '[["evolve", "cfg.json"], ...]'
        import kglab.cli and load each config; print the CPU seconds of
        this, the main thread
    python3 child.py rss SRC '[["evolve", "--config", ...], ...]'
        run one operation; print its exit codes and ru_maxrss in KiB

SRC is the directory that holds the ``kglab`` package.
"""

import time

_T0 = time.thread_time()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    mode, src, spec = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    sys.path.insert(0, src)
    import kglab.cli

    if mode == "setup":
        from kglab.config import load_config

        for command, path in spec:
            load_config(Path(path), command)
        print(json.dumps({"setup_s": time.thread_time() - _T0}))
    elif mode == "rss":
        with contextlib.redirect_stdout(io.StringIO()):
            rcs = [kglab.cli.main(argv) for argv in spec]
        maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps({"rcs": rcs, "maxrss_kib": maxrss}))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main()
