"""wittenform benchmark: one workload, closed loop, one job in flight.

    python3 perfbench/run.py --workload witten-dense --seed 1 --seconds 24 \
        --trace 0

Run from the root of a source checkout; the program is imported from
`src/`. Set-up (import, seeded input generation into `.perfbench_run/`,
warm-up) is repeated SETUP_REPEATS times and reported as its median. The
measured phase runs whole passes over the workload's deck of distinct jobs
until about `--seconds` have passed, timing each `wittenform.cli.main(argv)`
or library call alone, in seconds scaled to a fixed machine speed (see
SpeedSampler). Outputs are checked afterwards by independent oracles
(`oracles.py`); a repeated job whose output equals its first output shares
that output's verdict.

--trace 0 prints the end-to-end metrics. --trace 1 runs every job once
untraced and once with layer spans installed (`tracing.py`), alternating,
and prints the per-layer metrics, normalised per traced job. The last line
of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
SETUP_REPEATS = 5
# The machine's speed drifts by tens of percent within seconds (shared
# host). While anything is timed, SIGALRM every SAMPLE_SECONDS runs a small
# fixed reference computation; the interval's time, less those samples, is
# scaled to the speed at which the reference takes exactly REF_SECONDS.
REF_ITERATIONS = 60
REF_SECONDS = 0.0004
SAMPLE_SECONDS = 0.01
TAIL_LADDER = (0.5, 0.75, 0.9, 0.95, 0.99)
QUANTILE_HALF_WIDTH = 0.15

sys.path.insert(0, HERE)

import workloads  # noqa: E402


def import_program():
    """Fresh import of the package, so each set-up pays for it."""
    for name in [n for n in sys.modules
                 if n == "wittenform" or n.startswith("wittenform.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    importlib.invalidate_caches()
    mods = {name: importlib.import_module(f"wittenform.{name}")
            for name in ("cli", "invariants", "lattice", "linsolve",
                         "manifold_io", "monopole_levels", "series",
                         "universal_fit")}
    return SimpleNamespace(**mods)


def run_cli(wf, argv):
    """Returns (seconds, (exit code, stdout))."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = wf.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        elapsed = time.perf_counter() - start
    return elapsed, (code, out.getvalue())


def reference_seconds():
    """Duration of a fixed piece of pure-Python work (Fraction and dict
    arithmetic, like the program's own). The garbage collector is off
    meanwhile, so a collection of the program's heap never lands in a
    sample."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        bins = {}
        for i in range(1, REF_ITERATIONS):
            acc += Fraction(i, i + 1) * Fraction(3, i + 2)
            key = (i % 7, i % 11)
            bins[key] = bins.get(key, 0) + i
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Measures how fast the machine runs while a timed call runs."""

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        self.samples.append(reference_seconds())

    def measure(self, fn, *args):
        """fn returns (seconds, result). Returns (scaled seconds, seconds
        without the samples, scale, result)."""
        self.samples = [reference_seconds()]
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_SECONDS, SAMPLE_SECONDS)
        try:
            raw, result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        inside = sum(self.samples[1:])
        self.samples.append(reference_seconds())
        scale = REF_SECONDS / statistics.median(self.samples)
        return (raw - inside) * scale, raw - inside, scale, result


def run_job(wf, job):
    if job.argv is not None:
        return run_cli(wf, job.argv)
    start = time.perf_counter()
    outcome = job.call()
    return time.perf_counter() - start, outcome


def set_up(name, seed, workdir):
    start = time.perf_counter()
    wf, deck = _set_up(name, seed, workdir)
    return time.perf_counter() - start, (wf, deck)


def _set_up(name, seed, workdir):
    wf = import_program()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    deck = workloads.build(name, seed, workdir,
                           wf, os.path.join(SRC, "wittenform", "data"))
    path = next(p for p in deck.paths if p.endswith(".manifold"))
    for argv in (["info", path], ["--degree", "2", "witten", path]):
        code, _ = run_cli(wf, argv)[1]
        if code != 0:
            raise RuntimeError(f"warm-up {argv} exited {code}")
    return wf, deck


class Results:
    """Job times and outcomes over whole passes of a deck.

    CLI outputs are kept (as strings) and checked after the loop. A library
    job's result is checked as soon as its timing ends and then dropped, so
    large result objects never pile up in the heap the program's garbage
    collector scans."""

    def __init__(self, deck):
        self.deck = deck
        self.times = []
        self.by_job = [[] for _ in deck.jobs]
        self.pass_seconds = []
        self.scales = {}           # (pass, job index) -> time scale
        self.raw_seconds = 0.0
        self.first = {}            # job index -> outcome of its first run
        self.repeats = {}          # job index -> later runs equal to it
        self.extra = []            # (job index, outcome) unlike the first
        self.errors = []           # (job index, reason) for jobs that raised
        self.checked = []          # (job index, reason or None): library jobs
        self.terms = 0
        self.stdout_bytes = 0

    @property
    def runs(self):
        return len(self.times) + len(self.errors)

    def record(self, idx, seconds, outcome):
        self.times.append(seconds)
        self.by_job[idx].append(seconds)
        job = self.deck.jobs[idx]
        if job.series_terms is not None:
            self.terms += job.series_terms(outcome)
        if job.argv is None:
            self.checked.append((idx, self._oracle(idx, outcome)))
            return
        self.stdout_bytes += len(outcome[1].encode())
        if idx not in self.first:
            self.first[idx] = outcome
            self.repeats[idx] = 0
        elif outcome == self.first[idx]:
            self.repeats[idx] += 1
        else:
            self.extra.append((idx, outcome))

    def check(self):
        """Run the oracles; returns (failed runs, {job index: reason})."""
        bad = {}
        failed = 0
        for idx, reason in self.errors + self.checked:
            if reason:
                failed += 1
                bad.setdefault(idx, reason)
        for idx, outcome in self.first.items():
            reason = self._oracle(idx, outcome)
            if reason:
                failed += 1 + self.repeats[idx]
                bad.setdefault(idx, reason)
        for idx, outcome in self.extra:
            reason = self._oracle(idx, outcome)
            if reason:
                failed += 1
                bad.setdefault(idx, reason)
        return failed, bad

    def _oracle(self, idx, outcome):
        try:
            return self.deck.jobs[idx].check(outcome)
        except Exception as exc:  # an oracle crash is a failed check
            return f"oracle raised {type(exc).__name__}: {exc}"


def measure(wf, deck, seconds, sampler, untraced, traced=None):
    """Whole passes until the next one would end past `seconds`.

    With `traced` = (Results, Tracer), every job runs once untraced and once
    with the tracer installed, in alternating order, so that drift of the
    machine's speed falls on both alike."""
    start = time.perf_counter()
    passes = 0
    while True:
        busy = len(untraced.times)
        for idx, job in enumerate(deck.jobs):
            modes = [None] if traced is None else (
                [None, traced] if (passes + idx) % 2 == 0
                else [traced, None])
            for mode in modes:
                results = untraced if mode is None else mode[0]
                gc.collect()
                uninstall = None
                if mode is not None:
                    import tracing
                    mode[1].job = (passes, idx)
                    uninstall = tracing.install(mode[1])
                try:
                    scaled, raw, scale, outcome = sampler.measure(
                        run_job, wf, job)
                except Exception as exc:
                    results.errors.append(
                        (idx, f"raised {type(exc).__name__}: {exc}"))
                    continue
                finally:
                    if uninstall is not None:
                        uninstall()
                results.scales[(passes, idx)] = scale
                results.raw_seconds += raw
                results.record(idx, scaled, outcome)
        untraced.pass_seconds.append(sum(untraced.times[busy:]))
        passes += 1
        spent = time.perf_counter() - start
        if spent + spent / passes / 2 > seconds:
            return passes


def quantile(sorted_values, q):
    """Mean of the order statistics from quantile q - 0.15 to q + 0.15.

    One job's time varies by several percent with the machine and with the
    drawn inputs, so a single order statistic would carry one job's
    variation; the window averages about 30% of the jobs instead."""
    n = len(sorted_values)
    lo = max(0, math.floor((q - QUANTILE_HALF_WIDTH) * n))
    hi = min(n, max(lo + 1, math.ceil((q + QUANTILE_HALF_WIDTH) * n)))
    return statistics.fmean(sorted_values[lo:hi])


def tail_level(distinct_jobs):
    """Highest ladder percentile with at least ten distinct jobs beyond it;
    counting distinct jobs rather than runs keeps it fixed per workload."""
    return max(q for q in TAIL_LADDER if distinct_jobs * (1 - q) >= 10)


def job_medians(results):
    """Each distinct job's median time over the passes: a slow stretch of
    the machine during one pass then moves no job's figure."""
    return sorted(statistics.median(t) for t in results.by_job if t)


def end_to_end(setup_times, results):
    medians = job_medians(results)
    q = tail_level(len(medians))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "job_p50_s": (quantile(medians, 0.5), "s"),
        "job_tail_s": (quantile(medians, q), "s"),
        "jobs_per_s": (len(medians) / statistics.median(results.pass_seconds),
                       "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    info = {"tail_percentile": q * 100,
            "terms_per_s": results.terms / sum(results.times),
            "unscaled_job_seconds": results.raw_seconds,
            "scaled_job_seconds": sum(results.times)}
    return metrics, info


def per_layer(tracer, traced, untraced):
    import tracing
    jobs = max(len(traced.times), 1)
    s = tracer.summary(traced.scales)
    c = tracer.counts

    def row(name, key):
        return s[name][key] if name in s else 0

    eq = tracing.equations_by_caller(tracer)
    fed = row("linsolve.add_equation", "calls")
    searches = row("lattice.search", "calls")
    values = {
        "series.mul.calls": (row("series.mul", "calls"), "count"),
        "series.mul.self_s": (row("series.mul", "self"), "s"),
        "series.mul.pairs": (c["series.mul.pairs"], "count"),
        "series.mul.out_terms": (c["series.mul.out_terms"], "count"),
        "series.exp_linear.total_s": (row("series.exp_linear", "total"), "s"),
        "series.exp_quadratic.total_s":
            (row("series.exp_quadratic", "total"), "s"),
        "series.to_text.self_s": (row("series.to_text", "self"), "s"),
        "series.first_difference.self_s":
            (row("series.first_difference", "self"), "s"),
        "invariants.witten_rhs.total_s":
            (row("invariants.witten_rhs", "total"), "s"),
        "invariants.km_series.total_s":
            (row("invariants.km_series", "total"), "s"),
        "invariants.fit_km.self_s": (row("invariants.fit_km", "self"), "s"),
        "invariants.fit_km.equations": (eq["invariants.fit_km"], "count"),
        "invariants.hypotheses.self_s":
            (row("invariants.hypotheses", "self"), "s"),
        "linsolve.add_equation.calls": (fed, "count"),
        "linsolve.add_equation.self_s":
            (row("linsolve.add_equation", "self"), "s"),
        "linsolve.solve.self_s": (row("linsolve.solve", "self"), "s"),
        "universal_fit.assemble.total_s":
            (row("universal_fit.assemble", "total"), "s"),
        "universal_fit.solve.total_s":
            (row("universal_fit.solve", "total"), "s"),
        "universal_fit.validate.total_s":
            (row("universal_fit.validate", "total"), "s"),
        "universal_fit.unknowns": (c["universal_fit.unknowns"], "count"),
        "universal_fit.equations": (eq["universal_fit.solve"], "count"),
        "lattice.complement.total_s":
            (row("lattice.complement", "total"), "s"),
        "lattice.search.calls": (searches, "count"),
        "lattice.search.total_s": (row("lattice.search", "total"), "s"),
        "lattice.search.candidates":
            (c["lattice.search.candidates"], "count"),
        "lattice.signature.total_s":
            (row("lattice.signature", "total"), "s"),
        "monopole_levels.enumerate.total_s":
            (row("monopole_levels.enumerate", "total"), "s"),
        "monopole_levels.rows": (c["monopole_levels.rows"], "count"),
        "manifold_io.parse.calls": (row("manifold_io.parse", "calls"),
                                    "count"),
        "manifold_io.parse.total_s":
            (row("manifold_io.parse", "total"), "s"),
        "manifold_io.parse.bytes": (c["manifold_io.parse.bytes"], "bytes"),
        "cli.main.total_s": (row("cli.main", "total"), "s"),
        "cli.self_s": (row("cli.main", "self"), "s"),
        "cli.stdout_bytes": (traced.stdout_bytes, "bytes"),
    }
    # totals become per-job means; ratios and maxima stay as they are
    metrics = {k: (v / jobs, u + "/job" if u != "s" else "s/job")
               for k, (v, u) in values.items()}
    metrics["linsolve.useful_ratio"] = (
        c["linsolve.rows_added"] / fed if fed else 0.0, "ratio")
    metrics["lattice.search.hit_ratio"] = (
        c["lattice.search.hits"] / searches if searches else 0.0, "ratio")
    metrics["lattice.complement.max_entry"] = (
        tracer.maxima["lattice.complement.max_entry"], "count")
    metrics["series.terms_per_s"] = (
        untraced.terms / sum(untraced.times), "1/s")
    # per job: traced over untraced median time, the two interleaved
    metrics["trace.overhead_ratio"] = (statistics.median(
        statistics.median(t) / statistics.median(u)
        for t, u in zip(traced.by_job, untraced.by_job) if t and u),
        "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wittenform", "cli.py")):
        print(f"error: no wittenform sources under {SRC}", file=sys.stderr)
        return 2

    workdir = os.path.join(RUN_DIR, f"{args.workload}-{args.seed}-"
                                    f"{os.getpid()}")
    try:
        sampler = SpeedSampler()
        setup_times = []
        for _ in range(SETUP_REPEATS):
            scaled, _, _, (wf, deck) = sampler.measure(
                set_up, args.workload, args.seed, workdir)
            setup_times.append(scaled)
        # the harness's own objects (decks, inputs) stay out of the
        # program's garbage collections
        gc.collect()
        gc.freeze()
        untraced = Results(deck)
        if args.trace:
            import tracing
            tracer = tracing.Tracer()
            traced = Results(deck)
            passes = measure(wf, deck, args.seconds, sampler, untraced,
                             (traced, tracer))
            tracer.write(os.path.join(RUN_DIR, f"spans-{args.workload}-"
                                               f"{args.seed}.tsv"))
            results = [untraced, traced]
            metrics = per_layer(tracer, traced, untraced)
            info = {"traced_passes": passes}
        else:
            passes = measure(wf, deck, args.seconds, sampler, untraced)
            results = [untraced]
            metrics, info = end_to_end(setup_times, untraced)
            info["passes"] = passes
        failed = 0
        reasons = {}
        for res in results:
            f, bad = res.check()
            failed += f
            reasons.update(bad)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.runs for r in results)
    for idx, reason in sorted(reasons.items())[:10]:
        print(f"FAILED {deck.jobs[idx].label}: {reason}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed}: {len(deck.jobs)} distinct "
          f"jobs, {attempted} runs, {failed} failed, oracle passes "
          f"{attempted - failed}/{attempted}")
    info["failed_ratio"] = failed / attempted
    for key, value in info.items():
        print(f"# {key} = {value:.6g}")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
