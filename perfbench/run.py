"""almlab benchmark: one workload per run, closed loop, checked outputs.

    python3 perfbench/run.py --workload solve-large --seed 1 --seconds 25 --trace 0

Run from the root of a source tree; the package is imported from ./src.
``--trace 0`` times the operations with nothing patched and prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes over
the same inputs and prints the per-layer metrics and the tracing overhead.
``--workload all`` runs the four workloads one after another in this
process. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; everything before it is for people.
"""
import os

# one BLAS thread per process: the CLI grid's thread pool already uses both
# cores, and BLAS threads on top would oversubscribe them
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("solve-large", "corpus-small", "oracle-rates", "cli-grid")
# passes that run even when they overrun the time, so every run has
# repeats to compare
MIN_PASSES = 3
MIN_TRACED = 2
GRID_JOBS = 8


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_sha(root: Path) -> str:
    """Commit of the source tree, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    cap = os.environ.get("ALMLAB_THREADS")
    try:
        pool = int(cap) if cap else (os.cpu_count() or 1)
    except ValueError:
        pool = 1
    return {
        "git_sha": git_sha(ROOT),
        "source_sha256": source_digest(SRC / "almlab"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "grid_pool_workers": max(1, min(GRID_JOBS, pool)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fits_another(start, done, seconds):
    """Whether one more pass, as long as the average so far, ends in time."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def run_untraced(wl, seconds):
    """Passes until the time is up; returns the recorder, the normalized and
    raw set-up times, and every kernel time the probe took."""
    import calibrate
    from workloads import Recorder

    setups, raw_setups, kernel = [], [], []
    start = time.perf_counter()
    with calibrate.SpeedProbe() as probe:
        rec = Recorder(probe=probe)
        while len(setups) < MIN_PASSES or fits_another(start, len(setups), seconds):
            with probe.measure() as m:
                inputs = wl.setup(len(setups))
            setups.append(m.normalized)
            raw_setups.append(m.net)
            kernel += m.kernel_times
            wl.run_pass(inputs, rec)
    return rec, setups, raw_setups, kernel + rec.kernel


def end_to_end(wl_name, rec, setups, raw_setups, kernel):
    import calibrate
    import stats
    from workloads import OP_NAMES

    op, op2 = rec.samples["op"], rec.samples["op2"]
    metrics = {"setup_s": (stats.median(setups), "s")}
    if op:
        metrics["op_s.gmean"] = (stats.gmean(op), "s")
    if op2:
        metrics["op2_s.gmean"] = (stats.gmean(op2), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")

    name1, name2 = OP_NAMES[wl_name]
    lines = [f"  {len(setups)} passes; speed kernel median {stats.median(kernel) * 1e3:.4g} ms over "
             f"{len(kernel)} samples (reference {calibrate.REF_S * 1e3:g} ms); times below are "
             f"normalized to the reference speed, raw ones in brackets",
             f"  setup_s = {metrics['setup_s'][0]:.6g} s [{stats.median(raw_setups):.6g} s] "
             f"(median of {len(setups)} set-ups)"]
    for label, key in ((name1, "op"), (name2, "op2")):
        samples = rec.samples[key]
        if not samples:
            lines.append(f"  {label}: no successful samples")
            continue
        pct, value = stats.tail(samples)
        lines.append(f"  {label}: gmean = {stats.gmean(samples):.6g} s [{stats.gmean(rec.raw[key]):.6g} s], "
                     f"p50 = {stats.median(samples):.6g} s, tail = {value:.6g} s at p{pct:.0f} "
                     f"(n={len(samples)})")
    lines.append(f"  fail_frac = {stats.fail_frac(rec.failed, rec.attempted):.6g} "
                 f"({rec.failed}/{rec.attempted})")
    lines.append(f"  peak_rss_mb = {metrics['peak_rss_mb'][0]:.6g} MB")
    samples = {"setup": setups, "raw_setup": raw_setups, "kernel": kernel, **rec.samples,
               **{"raw_" + k: v for k, v in rec.raw.items()}}
    return metrics, lines, samples


def run_traced(wl, seconds):
    """Alternate an untraced and a traced pass over the inputs of pass 0.

    The inputs repeat, so every counter must repeat exactly; times are the
    medians over the traced passes, and the overhead is the difference of
    the median traced and untraced pass times.
    """
    import layers
    import stats
    from spans import Tracer
    from workloads import Recorder

    tracer = Tracer("almlab")
    untraced, traced, reps = [], [], []
    rec = Recorder()  # verdicts of every pass, traced or not
    start = time.perf_counter()
    while len(reps) < MIN_TRACED or fits_another(start, len(reps), seconds):
        plain = Recorder()
        wl.run_pass(wl.setup(0), plain)
        untraced.append(plain.pass_time)
        tracer.clear()
        layers.install(tracer)
        try:
            probe = Recorder(tracer)
            with probe.root("bench.setup"):
                inputs = wl.setup(0)
            wl.run_pass(inputs, probe)
        finally:
            tracer.restore()
        traced.append(probe.pass_time)
        reps.append(layers.compute(tracer))
        for r in (plain, probe):
            rec.attempted += r.attempted
            rec.failed += r.failed
            rec.problems += r.problems

    metrics, lines = {}, []
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    for name in reps[0]:
        values = [r[name] for r in reps]
        if units[name] == "s":
            metrics[name] = stats.median(values)
        else:
            if any(v != values[0] for v in values):
                rec.problems.append(f"{name} differs between repeats of the same inputs: {values}")
            metrics[name] = values[0]
    t_plain, t_traced = stats.median(untraced), stats.median(traced)
    metrics["trace.overhead_s"] = t_traced - t_plain
    metrics["trace.overhead_frac"] = (t_traced - t_plain) / t_plain
    lines.append(f"  {len(reps)} traced and {len(untraced)} untraced passes; pass time "
                 f"{t_plain:.6g} s untraced, {t_traced:.6g} s traced")
    spans_path = OUT / f"{wl.name}-seed{wl.seed}.spans.npz"
    tracer.save(spans_path)
    lines.append(f"  spans of the last traced pass: {spans_path.relative_to(ROOT)}")
    deterministic = ", ".join(f"{k}={metrics[k]}" for k in layers.DETERMINISTIC)
    lines.append(f"  counters (repeat exactly): {deterministic}")

    if wl.name == "corpus-small":
        line, agree = reference_check(tracer)
        lines.append("  " + line)
        if not agree:
            rec.problems.append("tracer and iterates disagree on the standard corpus: " + line)
    return rec, {k: (v, units[k]) for k, v in metrics.items()}, lines


def reference_check(tracer):
    """Snapped iterates on the standard corpus, counted both by the tracer
    and from the recorded iterates (66 of 293 on the initial code); returns
    the report line and whether the two counts agree. The count itself
    gates nothing: a change of trajectory may move it."""
    import layers
    from workloads import Recorder, reference_snapped

    tracer.clear()
    layers.install(tracer)
    try:
        with Recorder(tracer).root("bench.reference"):
            snapped, iters = reference_snapped()
    finally:
        tracer.restore()
    traced = (tracer.counters[("reference", "inner.snapped")],
              tracer.counters[("reference", "driver.outer_iters")])
    agree = traced == (snapped, iters)
    return (f"standard corpus: inner.snapped {traced[0]} of {traced[1]} iterations traced, "
            f"{snapped} of {iters} from the iterates ({'agree' if agree else 'DISAGREE'})"), agree


def run_one(name, seed, seconds, trace):
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, OUT)
    t0 = time.perf_counter()
    samples = {}
    try:
        if trace:
            rec, metrics, lines = run_traced(wl, seconds)
        else:
            rec, setups, raw_setups, kernel = run_untraced(wl, seconds)
            metrics, lines, samples = end_to_end(name, rec, setups, raw_setups, kernel)
    finally:
        wl.close()
    header = f"{name} seed={seed} trace={trace}: {time.perf_counter() - t0:.1f} s"
    return rec, metrics, samples, [header] + lines + [f"  miss: {p}" for p in rec.problems[:20]]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "almlab" / "__init__.py").is_file():
        print(f"error: no almlab sources under {SRC}; run from the root of a source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    import almlab

    if Path(almlab.__file__).resolve().parent != (SRC / "almlab").resolve():
        print(f"error: imported almlab from {almlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    correct, attempted, failed, metrics, raw = True, 0, 0, {}, {}
    for name in names:
        rec, wl_metrics, raw[name], lines = run_one(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        correct = correct and not rec.problems
        attempted += rec.attempted
        failed += rec.failed
        prefix = "" if len(names) == 1 else name + "/"
        for key, (value, unit) in wl_metrics.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    result = {"correct": correct and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({"env": env, "args": vars(args), **result,
                                                        "raw_samples": raw}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
