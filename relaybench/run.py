"""relaybench: end-to-end and per-layer benchmark of relayplan.

Run from the root of a relayplan checkout:

    python3 relaybench/run.py --workload plan-burst --seed 1 --seconds 20 --trace 0

``--workload all`` (the default) runs every workload, each in its own
process.  A run sets up (imports, inputs, one warm-up call) three times,
then repeats whole rounds of its workload, the first always and each next
one while it should end within ``--seconds``,
checks every plan against the reference checker in ``refcheck.py`` and
prints, as the last line of standard output, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
human-readable report goes to standard error.  The exit code is 0 only when
every check passed.
"""

import argparse
import os
import sys

WORKLOADS = ("plan-burst", "mission-minrate", "oracle-grid")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def hold_threads() -> int:
    """Run BLAS/OpenMP pools single-threaded.

    The Newton systems have at most a few hundred unknowns: on a 2-core
    machine a second BLAS thread made the 150-slot mission slower (about
    14.7 s against 13.2 s per solve) and more exposed to other processes.
    One thread is also never more than the cores a process may use.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Run each workload in a child process and pass its report through."""
    import json
    import subprocess

    results, status = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = status or proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
        if not results[name]["correct"]:
            status = status or 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = hold_threads()
    if args.workload == "all":
        return run_all(args)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "relayplan", "__init__.py")):
        print(f"relaybench: no relayplan sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import bench  # noqa: E402  (numpy must see the thread caps first)

    return bench.run(args, threads, ROOT)


if __name__ == "__main__":
    sys.exit(main())
