"""Benchmark of the hsep workbench.

    python3 perfbench/run.py --workload ring-enum --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; hsep is imported from `src/`.
One process, no worker threads, one op at a time.  Set-up imports hsep
in a fresh interpreter, builds the workload's op list and writes the
seeded documents of one pass; it is done five times and `setup_s` is
the median.  A few small ops then warm the interpreter up, untimed.
Whole passes over the workload's ops follow, each in its seeded order:
at least two, and another only while it is expected to end within
`--seconds`.

`--trace 0` prints the end-to-end metrics; every op enters through
`hsep.cli.main` where the CLI offers it.  Their times are scaled to a
reference machine speed, measured by a fixed calibration loop timed
every half second during each pass (NOTES.md, "Machine speed").
`--trace 1` follows each untraced pass by a traced pass over the same
bases and labelings (relabelled, so caches still miss) that makes the
public library calls one span at a time, and prints the per-module
metrics.  The last line
of stdout is the JSON result.  NOTES.md defines every metric.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
PEAK_PASSES = 2  # peak RSS is read after this many untraced passes
# calibrate() takes about this long on the 2-vCPU VM the benchmark was
# tuned on; end-to-end times are given at that speed (see NOTES.md)
REFERENCE_CALIBRATION_S = 0.035
CALIBRATION_LOOPS = 150_000
CALIBRATION_INTERVAL_S = 0.5  # wall time between calibrations during a pass

WORKLOADS = ("ring-enum", "ring-epi", "talg", "cat-search")

END_TO_END = {
    "run_s": "s",
    "op_p50_s": "s",
    "op_max_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_rate": "ratio",
}

# span name -> metric of its summed self time
SPAN_METRICS = {
    "finring.load": "finring.load_s",
    "exactalg.member_array": "exactalg.member_array_s",
    "sepkit.tensor2": "sepkit.tensor2_s",
    "sepkit.locus": "sepkit.locus_s",
    "sepkit.tensor3": "sepkit.tensor3_s",
    "sepkit.retractions": "sepkit.retractions_s",
    "sepkit.epi": "sepkit.epi_s",
    "sepkit.to_doc": "sepkit.to_doc_s",
    "sepkit.report": "sepkit.report_rest_s",
    "tensorbialg.build": "tensorbialg.build_s",
    "tensorbialg.primitives": "tensorbialg.primitives_s",
    "tensorbialg.verify": "tensorbialg.verify_rest_s",
    "tensorbialg.witness": "tensorbialg.witness_s",
    "fincat.build": "fincat.build_s",
    "fincat.rafael": "fincat.rafael_s",
    "fincat.augmentations": "fincat.augmentations_s",
    "fincat.em_sections": "fincat.em_sections_s",
    "fincat.hsep_structures": "fincat.hsep_structures_s",
}

COUNT_METRICS = (
    "exactalg.member_rows",
    "sepkit.rank2",
    "sepkit.rank3",
    "sepkit.locus_size",
    "sepkit.h_witnesses",
    "tensorbialg.carrier_dim",
    "tensorbialg.double_carrier_dim",
    "tensorbialg.primitive_dim",
    "fincat.candidates",
    "fincat.witnesses",
)

# the fresh interpreter scales its import time by calibrations of its own,
# since it may run on another core than the benchmark's process
IMPORT_PROBE = (
    "import time\n"
    "from run import calibrate, speed_scale\n"
    "before = [calibrate() for _ in range(3)]\n"
    "t = time.perf_counter()\n"
    "import hsep.cli\n"
    "t = time.perf_counter() - t\n"
    "print(t * speed_scale(before + [calibrate() for _ in range(3)]))\n"
)

try:
    _LIBC = ctypes.CDLL("libc.so.6")
except OSError:
    _LIBC = None


def release_free_memory():
    """Collect garbage and hand freed heap pages back to the OS (glibc),
    so that every op starts from live data only, as in a fresh process,
    and its peak RSS does not depend on which ops ran before it."""
    gc.collect()
    if _LIBC is not None:
        _LIBC.malloc_trim(0)


def calibrate():
    """Seconds for a fixed pure-Python loop that calls no hsep code.

    On a shared host the machine's speed drifts by up to a third within
    minutes, and this loop slows and speeds up with the ops.  The
    collector is off while it runs, so its time does not depend on how
    much data hsep keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(CALIBRATION_LOOPS):
            acc += i * i % 7
            table[i & 1023] = (acc, i)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Calibrations every CALIBRATION_INTERVAL_S of wall time, from a
    SIGALRM handler, so that they sample the machine's speed evenly over
    a pass, long ops included.  `spent` is the wall time the handler has
    taken, which the op timings leave out."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples.append(calibrate())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(calibrate())


def speed_scale(calibrations):
    """Factor that turns seconds measured alongside `calibrations` into
    seconds at the reference speed."""
    return REFERENCE_CALIBRATION_S / statistics.median(calibrations)


def workload_ops(name):
    """The op specs of one pass; BENCHMARK.json says why each workload exists."""
    import workloads as w

    if name == "ring-enum":
        ops = [w.scalar_extension_op(3, m) for m in (4, 3, 2)]
        ops += [w.scalar_extension_op(2, m) for m in range(2, 10)]
        return ops + w.corpus_sep_ops(ROOT, ("sep_report",))
    if name == "ring-epi":
        # T2 over a composite modulus is the workload's median op, and its
        # time moves by up to a factor of two with the basis, so each pass
        # has three bases of each; that puts op_p50_s among twelve of them.
        ops = [w.triangular_epi_op(3, m) for m in (2, 3, 4)]
        ops += [w.triangular_epi_op(2, m) for m in (2, 3, 5, 7)]
        ops += [w.triangular_epi_op(2, m, copy) for m in (4, 6, 8, 9) for copy in (1, 2, 3)]
        return ops + w.corpus_sep_ops(ROOT, ("sep_epi",))
    if name == "talg":
        # the witnesses over F_7 at (2,5) and (3,4) and over Q at (4,3)
        # cost about the same and are the median op; three runs of each
        # F_7 witness a pass put op_p50_s among seven of them
        ops = []
        for dim, deg in ((3, 4), (2, 5), (4, 3)):
            ops += [w.talg_verify_op(dim, deg, fld) for fld in ("q", w.FIELD_P)]
            ops.append(w.talg_witness_op(dim, deg, "q"))
            ops += [w.talg_witness_op(dim, deg, w.FIELD_P, copy) for copy in (1, 2, 3)]
        return ops + w.corpus_talg_ops(ROOT)
    if name == "cat-search":
        # with LR = Id on C3×[9], its three product scans cost about the
        # same as the unit-side scans on C4×[7] and sit in the middle of
        # the pass, where op_p50_s is read; C4×[7] rather than C4×[8]
        # keeps a pass near 8 s, so that a run makes three of them
        ops = w.cyclic_chain_ops(4, 7, 1) + w.cyclic_chain_ops(3, 9, 0)
        return ops + w.corpus_cat_ops(ROOT)
    raise ValueError(name)


def warmup_ops(name):
    """Small instances of the workload's op kinds, run once before timing.

    Python specialises bytecode on first use and numpy sets up lazily;
    without a warm-up the first pass runs small ops up to twice as slowly
    as later passes."""
    import workloads as w

    if name == "ring-enum":
        return [w.scalar_extension_op(2, m) for m in (2, 3, 4)]
    if name == "ring-epi":
        return [w.triangular_epi_op(2, m) for m in (2, 3, 4)] + w.corpus_sep_ops(ROOT, ("sep_epi",))
    if name == "talg":
        return [op(2, 3, fld) for op in (w.talg_verify_op, w.talg_witness_op) for fld in ("q", w.FIELD_P)]
    if name == "cat-search":
        return w.cyclic_chain_ops(2, 3, 0) + w.cyclic_chain_ops(2, 3, 1)
    raise ValueError(name)


def write_pass(ops, seed, index, tag, workdir):
    """Write one pass's documents; returns [(op, path)] in seeded order.

    A document depends on the seed, the pass index and the op, not on the
    tag, which only enters the labels."""
    out = []
    for i, op in enumerate(ops):
        path = None
        if op.make is not None:
            rng = random.Random("%d:%d:%d:%s" % (seed, index, i, op.name))
            path = workdir / ("p%d%s-%02d.json" % (index, tag, i))
            path.write_text(json.dumps(op.make(rng, "#%d%s" % (index, tag))))
        out.append((op, path))
    random.Random("%d:%d:order" % (seed, index)).shuffle(out)
    return out


class Run:
    """Runs passes and tallies attempted and failed ops."""

    def __init__(self, workdir, ops_module):
        self.workdir = workdir
        self.o = ops_module
        self.attempted = 0
        self.failed = 0

    def record(self, op, code, report, counts, mode):
        self.attempted += 1
        problems = self.o.check(op, code, report, counts)
        if problems:
            self.failed += 1
            sys.stderr.write("FAIL %s (%s): %s\n" % (op.name, mode, "; ".join(problems)))

    def plain_pass(self, docs):
        """Untraced pass; returns every op's wall seconds and the pass's
        speed scale, from the calibrations taken during the pass."""
        out = self.workdir / "report.out"
        times = []
        with SpeedSampler() as sampler:
            for op, path in docs:
                release_free_memory()
                t0, spent0 = time.perf_counter(), sampler.spent
                try:
                    code, report = self.o.run_plain(op, path, out)
                except Exception:
                    code, report = "raised", {}
                    traceback.print_exc()
                times.append(time.perf_counter() - t0 - (sampler.spent - spent0))
                self.record(op, code, report, {}, "plain")
        return times, speed_scale(sampler.samples)

    def traced_pass(self, docs, tracer):
        """Traced pass; returns (summed op wall seconds, {count: summed value})."""
        totals = dict.fromkeys(COUNT_METRICS, 0)
        wall = 0.0
        for op, path in docs:
            release_free_memory()
            tracer.op = op.name
            t0 = time.perf_counter()
            try:
                code, report, counts = self.o.run_traced(op, path, tracer)
            except Exception:
                code, report, counts = "raised", {}, {}
                traceback.print_exc()
            wall += time.perf_counter() - t0
            self.record(op, code, report, counts, "traced")
            for key, val in counts.items():
                totals[key] += val
        tracer.op = None
        return wall, totals


def measure_setup(workload, seed, workdir):
    """Median over SETUP_REPS of: importing hsep in a fresh interpreter, plus
    building the op list and writing one pass's documents, at the reference
    speed.  Returns it with the passes written."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]))
    imports, writes, passes, calibrations = [], [], [], []
    for index in range(SETUP_REPS):
        calibrations += [calibrate(), calibrate()]
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=120, check=True
        )
        imports.append(float(probe.stdout.strip()))
        t0 = time.perf_counter()
        passes.append(write_pass(workload_ops(workload), seed, index, "", workdir))
        writes.append(time.perf_counter() - t0)
    scale = speed_scale(calibrations)
    return statistics.median(i + w * scale for i, w in zip(imports, writes)), passes


def metric(value, unit):
    return {"value": value, "unit": unit}


def per_layer(traced_totals, self_times, repeats, overheads):
    """Medians over the traced passes of each module's summed self time and
    of each count; the ratios are taken on the median counts."""
    out = {}
    for span, name in SPAN_METRICS.items():
        out[name] = metric(statistics.median(s.get(span, 0.0) for s in self_times), "s")
    counts = {k: statistics.median(t[k] for t in traced_totals) for k in COUNT_METRICS}
    for key in COUNT_METRICS:
        out[key] = metric(counts[key], "count")
    rows, candidates = counts["exactalg.member_rows"], counts["fincat.candidates"]
    # h-witnesses per locus member enumerated; witnesses per candidate scanned
    out["sepkit.heavy_yield"] = metric(counts["sepkit.h_witnesses"] / rows if rows else 0.0, "ratio")
    out["fincat.witness_yield"] = metric(counts["fincat.witnesses"] / candidates if candidates else 0.0, "ratio")
    out["trace.repeats_s"] = metric(statistics.median(repeats), "s")
    out["trace.overhead_s"] = metric(statistics.median(overheads), "s")
    return out


def measure(args, workdir, ops_module, Tracer):
    setup_s, pregenerated = measure_setup(args.workload, args.seed, workdir)
    ops = workload_ops(args.workload)
    run = Run(workdir, ops_module)
    run.plain_pass(write_pass(warmup_ops(args.workload), args.seed, 0, "w", workdir))
    tracer = Tracer()
    walls, op_times, pass_max, peak_mb = [], [], [], None
    scales, raw_walls = [], []
    overheads, traced_totals, self_times, repeats = [], [], [], []
    min_passes = 1 if args.trace else PEAK_PASSES
    start = time.perf_counter()
    index = 0
    while True:
        docs = pregenerated[index] if index < len(pregenerated) else write_pass(ops, args.seed, index, "", workdir)
        measured, scale = run.plain_pass(docs)
        times = [t * scale for t in measured]
        scales.append(scale)
        raw_walls.append(sum(measured))
        walls.append(sum(times))
        op_times += times
        pass_max.append(max(times))
        if len(walls) == PEAK_PASSES:
            # a fixed amount of work, since every pass adds what hsep's caches retain
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            first = len(tracer.spans)
            wall_t, totals = run.traced_pass(write_pass(ops, args.seed, index, "t", workdir), tracer)
            selfs, rep = tracer.self_times(first)
            overheads.append(wall_t - rep - sum(measured))
            traced_totals.append(totals)
            self_times.append(selfs)
            repeats.append(rep)
        index += 1
        elapsed = time.perf_counter() - start
        if index >= min_passes and elapsed * (index + 1) / index > args.seconds:
            break

    if args.trace:
        metrics = per_layer(traced_totals, self_times, repeats, overheads)
        drift = [k for k in COUNT_METRICS if len({t[k] for t in traced_totals}) > 1]
        if drift:
            sys.stderr.write("FAIL counts drift between passes: %s\n" % ", ".join(drift))
            run.failed += 1
        (workdir.parent / ("trace-%s-%d.json" % (args.workload, args.seed))).write_text(json.dumps(tracer.to_doc()))
    else:
        values = {
            "run_s": statistics.median(walls),
            "op_p50_s": statistics.median(op_times),
            "op_max_s": statistics.median(pass_max),
            "peak_rss_mb": peak_mb,
            "setup_s": setup_s,
            "ok_rate": (run.attempted - run.failed) / run.attempted,
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    print("workload %s: %d ops per pass, %d pass(es), %d op(s) attempted, %d failed"
          % (args.workload, len(ops), index, run.attempted, run.failed))
    if not args.trace:
        print("  speed scale (reference over measured calibration), median of passes: %.4f;"
              " run_s at the measured speed: %.6f s" % (statistics.median(scales), statistics.median(raw_walls)))
    for name, m in metrics.items():
        print("  %-32s %14.6f %s" % (name, m["value"], m["unit"]))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description="hsep benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hsep" / "__init__.py").is_file():
        sys.stderr.write("error: no hsep sources under %s\n" % (ROOT / "src"))
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import ops
    from spans import Tracer

    workdir = ROOT / ".perfbench" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    workdir.mkdir(parents=True)
    try:
        return measure(args, workdir, ops, Tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
