"""The four benchmark workloads.

Each workload is a closed loop with one caller: a pass sets up its inputs
(timed as set-up), then runs its operations one after another, each timed on
its own, and checks every result after the clock has stopped. Operations of
the primary kind are recorded under "op", those of the secondary kind under
"op2"; ``OP_NAMES`` says what they are for each workload.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from almlab import cli, driver, oracle, problem, problems, rates, verify
from almlab.errors import InsufficientIterationsError

SIGMA = 0.5
TOL = 1e-8
MAX_OUTER = 200


def schedule():
    return driver.PenaltySchedule.geometric(10.0, 1.5, 1e6)


def derive(seed: int, *tags) -> int:
    """Generator seed for one input, fixed by the benchmark seed and tags."""
    digest = hashlib.sha256(repr((seed,) + tags).encode()).digest()
    return int.from_bytes(digest[:6], "little")


class Recorder:
    """Per-operation timings and verdicts of one benchmark run.

    ``tracer`` is None in untraced runs; when set, operations run under a
    ``bench.pass`` root span and checks under ``bench.check``, so the checks'
    own calls into almlab stay out of the per-layer numbers. ``probe`` (a
    calibrate.SpeedProbe) is set in untraced timing runs: samples are then
    normalized times, and the raw ones go to ``raw``.
    """

    def __init__(self, tracer=None, probe=None):
        self.tracer = tracer
        self.probe = probe
        self.samples = {"op": [], "op2": []}
        self.raw = {"op": [], "op2": []}
        self.kernel: list[float] = []
        self.pass_time = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    @contextlib.contextmanager
    def root(self, name: str):
        if self.tracer is None:
            yield
            return
        self.tracer.phase = name.split(".", 1)[1]
        try:
            with self.tracer.span(name):
                yield
        finally:
            self.tracer.phase = ""

    def op(self, key: str, label: str, fn, check):
        """Time fn() as one operation of kind key, then check its result."""
        self.attempted += 1
        try:
            if self.probe is not None:
                with self.probe.measure() as m:
                    result = fn()
                elapsed, raw = m.normalized, m.net
                self.kernel += m.kernel_times
            else:
                with self.root("bench.pass"):
                    t0 = time.perf_counter()
                    result = fn()
                    elapsed = raw = time.perf_counter() - t0
        except Exception as exc:  # a failing operation is counted, not fatal
            self.failed += 1
            self.problems.append(f"{label}: raised {type(exc).__name__}: {exc}")
            return None
        self.samples[key].append(elapsed)
        self.raw[key].append(raw)
        self.pass_time += elapsed
        with self.root("bench.check"):
            misses = check(result)
        if misses:
            self.failed += 1
            self.problems.extend(f"{label}: {msg}" for msg in misses)
        return result


class Workload:
    """A closed loop over passes; subclasses define setup and run_pass."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def close(self):
        pass


def quiet(fn, *args):
    """Call fn with stdout and stderr captured, as a script would redirect them."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


# -- solve-large ------------------------------------------------------------

# (key, (n, m1, m2), instances per pass); two n=200 solves per n=400 solve
# give each run enough distinct instances for a steady median at both sizes
SOLVE_CASES = (("op", (200, 40, 80), 2), ("op2", (400, 80, 160), 1))


def _solve(prog):
    return driver.run(prog, schedule(), SIGMA, tol=TOL, max_outer=MAX_OUTER)


def _check_solve(prog, ref):
    """Checks of an inexact run against an exact-mode run of the same problem."""
    def check(hist):
        if hist.status != driver.CONVERGED:
            return [f"status {hist.status}"]
        if ref.status != driver.CONVERGED:
            return [f"exact-mode reference ended {ref.status}"]
        x_ref = ref.final().x
        rec = hist.final()
        kkt = problem.kkt_residual(prog, rec.x, rec.p, rec.y)
        # the quantities the solver's stopping rule bounds by tol
        worst = max(kkt.stationarity, kkt.eq_feas, kkt.ineq_feas, kkt.mu_neg)
        misses = []
        if worst > TOL:
            misses.append(f"recomputed KKT residual {worst:.3e} > {TOL:g}")
        gap = float(np.linalg.norm(rec.x - x_ref))
        if gap > 1e-6 * (1.0 + float(np.linalg.norm(x_ref))):
            misses.append(f"final x differs from the exact-mode solve by {gap:.3e}")
        return misses
    return check


class SolveLarge(Workload):
    name = "solve-large"

    def setup(self, index: int):
        cases = []
        for key, (n, m1, m2), count in SOLVE_CASES:
            for j in range(count):
                spec = problems.GeneratorSpec("sc_qp", n=n, m1=m1, m2=m2,
                                              seed=derive(self.seed, index, n, j))
                prog = problems.generate(spec)
                ref = driver.run(prog, schedule(), SIGMA, tol=TOL, max_outer=MAX_OUTER,
                                 inner=driver.InnerOptions(exact=True))
                cases.append((key, prog, ref))
        return cases

    def run_pass(self, cases, rec: Recorder):
        for key, prog, ref in cases:
            rec.op(key, prog.name, lambda: _solve(prog), _check_solve(prog, ref))


# -- corpus-small -----------------------------------------------------------

def corpus(base: int):
    """The standard family mix (20 sc_qp, reference1d, 5 degenerate_dual_qp,
    5 box_composite, all n <= 6) with generator seeds counted from base."""
    gen, spec = problems.generate, problems.GeneratorSpec
    out = [gen(spec("sc_qp", seed=base + s)) for s in range(20)]
    out.append(gen(spec("reference1d")))
    out += [gen(spec("degenerate_dual_qp", seed=base + s)) for s in range(5)]
    out += [gen(spec("box_composite", seed=base + s)) for s in range(5)]
    return out


def _check_converged(hist):
    return [] if hist.status == driver.CONVERGED else [f"status {hist.status}"]


def _check_verify(failures):
    return [f"verify {f.check}: {f.problem}: {f.message}" for f in failures]


class CorpusSmall(Workload):
    name = "corpus-small"

    def setup(self, index: int):
        return corpus(derive(self.seed, index))

    def run_pass(self, progs, rec: Recorder):
        for prog in progs:
            rec.op("op", prog.name, lambda: driver.run(prog, schedule(), verify.VERIFY_SIGMA,
                                                       tol=verify.VERIFY_TOL, max_outer=MAX_OUTER),
                   _check_converged)
        rec.op("op2", "run_verification", lambda: verify.run_verification(problems=progs), _check_verify)


def reference_snapped():
    """(snapped, outer iterations) over the standard corpus at the verify
    settings, counted from the recorded iterates: an accepted iterate whose
    certificate y is exactly zero was snapped to the noise floor."""
    snapped = iters = 0
    for prog in problems.standard_corpus():
        hist = driver.run(prog, schedule(), verify.VERIFY_SIGMA, tol=verify.VERIFY_TOL, max_outer=MAX_OUTER)
        iters += len(hist.records)
        snapped += sum(1 for r in hist.records if not r.y.any())
    return snapped, iters


# -- oracle-rates -----------------------------------------------------------

ORACLE_N, ORACLE_M1 = 20, 4
ORACLE_TOP = 12
ORACLE_LOWER = (3, 6, 9)
ORACLE_KKT_TOL = 1e-10


def _oracle_pipeline(prog):
    hist = driver.run(prog, schedule(), SIGMA, tol=TOL, max_outer=MAX_OUTER,
                      inner=driver.InnerOptions(exact=True))
    orc = oracle.solve_qp_exact(prog)
    kappa = oracle.estimate_kappa(hist, orc)
    report = rates.rate_report(hist, orc, kappa, SIGMA)
    try:
        probe = rates.superlinearity_probe(hist, orc)
    except InsufficientIterationsError:
        probe = None
    return prog, hist, orc, report, probe


def _oracle_kkt(prog, orc, p_vec):
    member = oracle.project_dual(orc, p_vec)[0]
    p = problem.DualPoint.from_vector(member, prog.m1)
    x = orc.primal_point
    stat = prog.smooth.grad(x)
    if prog.m1:
        stat = stat + prog.eq_matrix().T @ p.lam
    if prog.m2:
        stat = stat + prog.grad_g(x) @ p.mu
    return problem.kkt_residual(prog, x, p, stat).max_violation()


def _check_pipelines(results):
    misses = []
    for prog, hist, orc, report, probe in results:
        tag = f"m2={prog.m2}"
        if hist.status != driver.CONVERGED:
            misses.append(f"{tag}: exact-mode run ended {hist.status}")
            continue
        fp = prog.fingerprint()
        if orc.fingerprint != fp or hist.config["problem_fingerprint"] != fp:
            misses.append(f"{tag}: fingerprint mismatch")
        for p_vec in (np.zeros(orc.dual.m), hist.final().p.as_vector()):
            kkt = _oracle_kkt(prog, orc, p_vec)
            if not kkt <= ORACLE_KKT_TOL:
                misses.append(f"{tag}: oracle KKT residual {kkt:.3e} > {ORACLE_KKT_TOL:g}")
        if report.summary.margin_violations:
            misses.append(f"{tag}: {report.summary.margin_violations} margin violations")
        if probe is None:
            misses.append(f"{tag}: too few contraction ratios for the superlinearity probe")
    return misses


class OracleRates(Workload):
    name = "oracle-rates"

    def setup(self, index: int):
        def make(m2):
            spec = problems.GeneratorSpec("sc_qp", n=ORACLE_N, m1=ORACLE_M1, m2=m2,
                                          seed=derive(self.seed, index, m2))
            return problems.generate(spec)
        return make(ORACLE_TOP), [make(m2) for m2 in ORACLE_LOWER]

    def run_pass(self, progs, rec: Recorder):
        top, lower = progs
        rec.op("op", f"m2={ORACLE_TOP}", lambda: [_oracle_pipeline(top)], _check_pipelines)
        rec.op("op2", f"m2 in {ORACLE_LOWER}", lambda: [_oracle_pipeline(p) for p in lower],
               _check_pipelines)


# -- cli-grid ---------------------------------------------------------------

GRID_N = 50
GRID_SIGMAS = ("0.01", "0.1", "0.5", "0.9")
GRID_SCHEDULES = ("fixed", "geometric")


def problem_document(prog) -> dict:
    """Explicit-form problem file contents for an affine-constrained QP."""
    doc = {"name": prog.name, "n": prog.n, "Q": prog.smooth.Q.tolist(),
           "q": prog.smooth.q.tolist(), "const": prog.smooth.const}
    if prog.eq is not None:
        doc["A"], doc["b"] = prog.eq.A.tolist(), prog.eq.b.tolist()
    doc["ineq"] = [{"type": "affine", "G": g.coeff.tolist(), "d": g.offset} for g in prog.ineqs]
    return doc


def _read_outputs(out_dir: Path, suffix: str):
    return {p.name: p.read_bytes() for p in sorted(out_dir.glob(f"*{suffix}"))}


# every REPEAT_EVERY-th pass reruns the instance of the pass before it, so
# that its CSVs can be compared byte for byte with the first run's
REPEAT_EVERY = 8


class CliGrid(Workload):
    """One instance per pass, with a repeat every ``REPEAT_EVERY`` passes; a
    run covers as many distinct instances as it can, since the rates time
    of an instance depends on its trace lengths and varies 1:7 between
    instances."""

    name = "cli-grid"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.workdir = Path(tempfile.mkdtemp(prefix="cli-grid-", dir=workdir))
        self.reference_csv = {}

    def setup(self, index: int):
        block, slot = divmod(index, REPEAT_EVERY)
        instance = (REPEAT_EVERY - 1) * block + min(slot, REPEAT_EVERY - 2)
        spec = problems.GeneratorSpec("sc_qp", n=GRID_N, seed=derive(self.seed, "grid", instance))
        prog = problems.generate(spec)
        pass_dir = Path(tempfile.mkdtemp(prefix=f"pass{index}-", dir=self.workdir))
        problem_path = pass_dir / "problem.json"
        problem_path.write_text(json.dumps(problem_document(prog)))
        oracle_path = pass_dir / "oracle.json"
        oracle.solve_qp_exact(prog).to_json(oracle_path)
        return instance, pass_dir, problem_path, oracle_path

    def run_pass(self, files, rec: Recorder):
        instance, pass_dir, problem_path, oracle_path = files
        out = pass_dir / "out"
        argv = ["solve", "--problem", str(problem_path), "--out", str(out)]
        for s in GRID_SIGMAS:
            argv += ["--sigma", s]
        for s in GRID_SCHEDULES:
            argv += ["--schedule", s]
        rec.op("op", "solve grid", lambda: quiet(cli.main, argv),
               lambda code: self._check_grid(code, out, instance))
        # one sample covers the rates calls on all eight traces: the fixed
        # and geometric runs give traces of different lengths, and single
        # calls would split into two clusters whose median jumps between them
        rates_argvs = [["rates", "--trace", str(trace), "--oracle", str(oracle_path), "--out", str(out)]
                       for trace in sorted(out.glob("*.trace.json"))]
        rec.op("op2", "rates on every trace", lambda: [quiet(cli.main, a) for a in rates_argvs],
               lambda codes: [msg for code in codes for msg in _check_exit(code)])
        shutil.rmtree(pass_dir)

    def _check_grid(self, code, out: Path, instance: int):
        misses = _check_exit(code)
        csvs = _read_outputs(out, ".csv")
        if len(csvs) != len(GRID_SIGMAS) * len(GRID_SCHEDULES):
            misses.append(f"{len(csvs)} CSV files written")
        first = self.reference_csv.setdefault(instance, csvs)
        if csvs != first:
            misses.append("CSV output differs from the first repeat")
        return misses

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def _check_exit(code):
    # every run of the grid converges and every rate report is clean, so
    # anything but 0 (documented or not) is a miss
    return [] if code == cli.EXIT_OK else [f"exit code {code}"]


WORKLOADS = {w.name: w for w in (SolveLarge, CorpusSmall, OracleRates, CliGrid)}

# what "op" and "op2" time on each workload, under their user-facing names
OP_NAMES = {
    "solve-large": ("solve_s[n=200]", "solve_s[n=400]"),
    "corpus-small": ("corpus_solve_s", "verify_s"),
    "oracle-rates": ("oracle_s[m2=12]", "oracle_s[m2=3,6,9]"),
    "cli-grid": ("grid_s", "rates_cli_s[8 traces]"),
}
