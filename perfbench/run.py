"""affval benchmark: one closed-loop workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/`` of that checkout.  One client runs one op at a time.  Inputs come
from ``--seed`` (see ``inputs.py`` and ``workloads.py``); every op's output
is checked after the measured phase by an independent oracle
(``oracles.py``).

``--trace 0`` runs rounds of the workload until the ops have taken
``--seconds`` of measured time (and at least 100 ops) and reports the
end-to-end metrics.  Their times are calibrated to a reference machine
speed by a fixed kernel run between ops (``calibrate.py``), because a
shared host drifts by up to 1.5x within minutes; the raw times are printed
on a ``#`` line and kept in the result file.  ``--trace 1`` runs each op of a fixed number of rounds
twice, untraced and traced (``tracing.py``), and reports the per-layer
metrics; its ``*.calls`` values repeat exactly for a given seed.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``fail_frac`` is
``failed / attempted``.  Inputs, outputs, a result file with the
environment (git sha, nproc, Python, numpy and scipy versions) and the
spans of a traced run go to ``.perfbench_out/`` in the checkout.

``selftest.py`` shows that each oracle rejects a deliberately wrong output;
``make_fixtures.py`` regenerates the frozen inputs in ``fixtures/``.
"""

import os
import sys

# pin BLAS threads before numpy is imported: one process, no added threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from collections import defaultdict, deque  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("pa_duality", "envelope_query", "plq_valuation")
SETUP_REPS = 3          # set-ups per run; setup_s reports their median
MIN_OPS = 100           # so that at least 10 samples lie beyond the p90
MAX_MEASURED = 3.0      # stop at this multiple of --seconds even below MIN_OPS

UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s",
         "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha(root) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(root, ".git", name)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    return {"git_sha": git_sha(ROOT), "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def run_op(op):
    """(latency_s, result, error) of one timed call."""
    t = perf_counter()
    try:
        res, err = op.call(), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        res, err = None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t, res, err


def verify(records) -> list:
    """Run each op's oracle; returns (label, reason) per failed op."""
    failures = []
    for op, _, res, err in records:
        if err is None:
            try:
                err = op.check(res)
            except Exception as exc:  # an oracle that cannot run fails the op
                err = f"oracle {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append((op.label, err))
    return failures


def size_summary(name, ops) -> list[str]:
    """One line per op label; a label fixes its sizes (n, k, cells, points)."""
    by_label = defaultdict(list)
    for op in ops:
        by_label[op.label].append(op.size)
    lines = [f"# inputs {name}: {len(ops)} ops in the set-up pool"]
    for label in sorted(by_label):
        sizes = by_label[label]
        desc = " ".join(f"{k}={v}" for k, v in sizes[0].items())
        lines.append(f"#   {label:<34} x{len(sizes):<4} {desc}")
    return lines


def share_table(records, metrics, wall) -> list[str]:
    by_kind = defaultdict(float)
    for op, dt, _, _ in records:
        by_kind[op.kind] += dt
    lines = ["# time share of the traced run (wall %.3f s)" % wall, "#   op kind          wall share"]
    for kind, t in sorted(by_kind.items(), key=lambda kv: -kv[1]):
        lines.append(f"#   {kind:<16} {t / wall:8.1%}")
    lines.append("#   layer            self share")
    shares = {k.split(".")[0]: v for k, v in metrics.items() if k.endswith(".self_share")}
    for layer, share in sorted(shares.items(), key=lambda kv: -kv[1]):
        lines.append(f"#   {layer:<16} {share:8.1%}")
    lines.append(f"#   {'(benchmark)':<16} {1.0 - sum(shares.values()):8.1%}")
    return lines


def e2e_metrics(lat_ms, setup_s, rss_mb) -> dict:
    return {
        "ops_per_s": 1000.0 * len(lat_ms) / sum(lat_ms),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "affval", "__init__.py")):
        print(f"error: no affval sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    t_import = perf_counter()
    sys.path.insert(0, SRC)
    import affval
    import calibrate
    import workloads
    import_s = perf_counter() - t_import
    if not os.path.abspath(affval.__file__).startswith(SRC + os.sep):
        print(f"error: affval imported from {affval.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = workloads.build(args.workload)
    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    rep_s, setup_speed = [], [calibrate.factor_now()]
    for rep in range(SETUP_REPS):
        t = perf_counter()
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        pool = [op for r in range(wl.setup_rounds) for op in wl.round(args.seed, r, workdir)]
        for op in wl.round(args.seed, 10 ** 6 + rep, workdir, slots=wl.warmup):
            op.call()
        rep_s.append(perf_counter() - t)
        setup_speed.append(calibrate.factor_now())
    setup_raw_s = import_s + statistics.median(rep_s)
    env = environment()
    print("# env " + json.dumps(env))
    print("\n".join(size_summary(args.workload, pool)))

    extra = {}
    if args.trace:
        import tracing
        tracer = tracing.Tracer()

        def traced(op):
            tracer.install()
            try:
                return (op, *run_op(op))
            finally:
                tracer.uninstall()

        # each op runs untraced and traced back to back, so that both see the
        # same machine speed; which runs first alternates, so cache warmth cancels
        records, untraced = [], 0.0
        for i, op in enumerate(pool[: wl.trace_rounds * len(wl.slots)]):
            if i % 2:
                records.append(traced(op))
                untraced += run_op(op)[0]
            else:
                untraced += run_op(op)[0]
                records.append(traced(op))
        wall = sum(r[1] for r in records)
        metrics = tracer.metrics(wall, untraced)
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json"))
        print("\n".join(share_table(records, metrics, wall)))
        units = {k: tracing.unit(k) for k in metrics}
    else:
        queue, next_round = deque(pool), wl.setup_rounds
        records, kernel_s, measured = [], [], 0.0
        while (measured < args.seconds or len(records) < MIN_OPS) \
                and measured < MAX_MEASURED * args.seconds:
            if not queue:
                queue.extend(wl.round(args.seed, next_round, workdir))
                next_round += 1
            op = queue.popleft()
            rec = (op, *run_op(op))
            records.append(rec)
            measured += rec[1]
            kernel_s.append(calibrate.kernel_time())
        speed = calibrate.factors(kernel_s)
        lat_ms = [r[1] * 1000.0 for r in records]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw = e2e_metrics(lat_ms, setup_raw_s, rss_mb)
        metrics = e2e_metrics([t / f for t, f in zip(lat_ms, speed)],
                              setup_raw_s / statistics.median(setup_speed), rss_mb)
        print("# raw (uncalibrated) " + json.dumps(raw))
        print(f"# machine speed factor: median {statistics.median(speed):.3f}, "
              f"range {min(speed):.3f}..{max(speed):.3f}")
        extra = {"raw_metrics": raw, "speed_factors": speed}
        units = UNITS

    failures = verify(records)
    for label, reason in failures[:20]:
        print(f"# FAIL {label}: {reason}")
    attempted, failed = len(records), len(failures)
    print(f"# {args.workload} seed={args.seed} ops={attempted} fail_frac={failed / attempted:.4g}")
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "env": env, "setup_reps_s": rep_s, "import_s": import_s,
                   "metrics": metrics, **extra, "failures": failures,
                   "ops": [[op.label, dt] for op, dt, _, _ in records]}, fh)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
