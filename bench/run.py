"""votedecode benchmark: seeded workloads driven through the public CLI entry point.

    python3 bench/run.py --workload beam-map --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 38 --trace 0

A run generates the workload's inputs from ``--seed``.  It then repeats
whole passes (``votedecode.cli.main`` calls, one process, ``workers`` = 1)
for ``--seconds`` seconds and checks every pass against the recorded golden
outputs.  Before the passes it times set-up ten times: importing
``votedecode`` afresh, parsing the config and building the model.  Times
are reported in reference seconds, scaled by a calibration loop timed
around every pass and repetition (see ``calibrate``).  With ``--trace 1``
untraced and traced passes alternate, and the run reports per-layer
metrics instead of end-to-end ones.  The last line of stdout is one JSON object; the full
record, the environment and any spans go to ``.bench_out/``.
"""

from __future__ import annotations

import os

# One process, no extra threads: pin the numeric libraries before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("VOTEDECODE_WORKERS", None)

import argparse
import contextlib
import importlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import golden
from tracing import Tracer
from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPS = 10  # set-up repetitions per run
CPUS = sorted(os.sched_getaffinity(0))
MODULES = ("cli", "config", "formats", "harness", "models", "voting")


def import_votedecode() -> dict:
    """Import the package afresh (dropping any earlier copy) and return its modules."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "votedecode" or m.startswith("votedecode.")]:
        del sys.modules[name]
    importlib.import_module("votedecode.cli")
    return {name: sys.modules[f"votedecode.{name}"] for name in MODULES}


def time_setup(workload: Workload, inputs: Path) -> tuple[float, dict]:
    """Import the package afresh, parse the config and build the model; seconds taken."""
    start = time.perf_counter()
    vd = import_votedecode()
    if workload.config is not None:
        config = vd["config"].load_config(inputs / workload.config)
        vd["harness"].build_model(config.model, config)
    return time.perf_counter() - start, vd


CALIBRATION_LOOPS = 300_000
CALIBRATION_REF_S = 0.04  # the calibration loop's time at the reference CPU speed


def calibrate() -> float:
    """Seconds one fixed stretch of plain interpreter work takes right now.

    On a shared 2-vCPU virtual machine the CPU ran the same code up to 1.9x
    slower for seconds to minutes at a time; the fastest pass of a 38 s run
    spread by 14 % and 34 % over two sets of ten runs (interquartile range
    over median).  So each pass and set-up repetition is timed between two
    calibrations and reported in reference seconds: measured seconds x
    ``CALIBRATION_REF_S`` / calibration seconds.
    Of the loops tried (numpy vector work, small-dict counting, ``Counter``
    n-gram overlaps, random lookups in a large dict or list, this plain
    one), this one tracked the program's slowdowns best on all three
    workloads, or within 0.1 percentage point of the best: in 200-300 s
    probes cut into 38 s windows, the median raw pass moved by 5-27 % from
    window to window (interquartile range over median) and the median
    scaled pass by 2-4.5 %.
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(CALIBRATION_LOOPS):
        total += (i % 7) * 0.5
    return time.perf_counter() - start


def calibrated(work):
    """Run ``work()`` between two calibrations; its result and the factor
    that turns its seconds into reference seconds."""
    before = calibrate()
    result = work()
    return result, CALIBRATION_REF_S * 2 / (before + calibrate())


def pin_cpu(turn: int) -> None:
    """Run on one allowed CPU, the next one each turn.

    On a shared host one CPU can run 1.6x slower than the other for minutes
    while a neighbour loads its core; rotating passes over the CPUs keeps
    that from slowing a whole run.
    """
    os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})


def run_pass(vd: dict, workload: Workload, inputs: Path, outputs: Path, seed: int, tracer: Tracer | None):
    """One pass: every command of the workload.  Returns (seconds, error or None, artifacts)."""
    outputs.mkdir(parents=True)
    captured = {}
    main = vd["cli"].main
    start = time.perf_counter()
    try:
        for command in workload.commands(inputs, outputs, seed):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(command.argv) if tracer is None else tracer.call("cli.main", main, command.argv)
            if code != 0:
                return time.perf_counter() - start, f"`{command.argv[0]}` exited {code}", {}
            if command.stdout is not None:
                captured[command.stdout] = buf.getvalue().encode("utf-8")
    except Exception:  # a crashing pass is counted as failed, never fatal
        return time.perf_counter() - start, traceback.format_exc(), {}
    seconds = time.perf_counter() - start
    artifacts = {p.relative_to(outputs).as_posix(): p.read_bytes() for p in sorted(outputs.rglob("*")) if p.is_file()}
    artifacts.update(captured)
    return seconds, None, artifacts


def read_inputs(inputs: Path) -> dict[str, str]:
    return {p.name: golden.sha256(p.read_bytes()) for p in sorted(inputs.iterdir()) if p.is_file()}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    numpy = sys.modules.get("numpy")
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": getattr(numpy, "__version__", None),
        "nproc": len(os.sched_getaffinity(0)),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Run:
    """Passes of one workload at one seed, each checked against its golden entry."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.goldens = golden.load(BENCH_DIR / "golden" / f"{workload.name}.json")
        self.reference = self.goldens.get(seed, {}).get("outputs")
        self.inputs = work / "inputs"
        self.inputs.mkdir(parents=True)
        workload.generate(seed, self.inputs)

    def check_recorded(self, vd: dict) -> None:
        """Check the generated inputs against the record, or, for a seed with
        no record, run and check one pass of a recorded seed."""
        if self.seed in self.goldens:
            if read_inputs(self.inputs) != self.goldens[self.seed]["inputs"]:
                self.failures.append("generated inputs differ from the recorded ones")
            return
        if not self.goldens:
            return
        seeds = sorted(self.goldens)
        other = seeds[self.seed % len(seeds)]
        inputs = self.work / f"check-{other}"
        inputs.mkdir()
        self.workload.generate(other, inputs)
        problems = []
        if read_inputs(inputs) != self.goldens[other]["inputs"]:
            problems.append("generated inputs differ from the recorded ones")
        _, error, artifacts = run_pass(vd, self.workload, inputs, self.work / "check-out", other, None)
        problems += [error] if error else golden.mismatches(self.goldens[other]["outputs"], artifacts)
        self.attempted += 1
        if problems:
            self.failures.append(f"recorded seed {other}: " + "; ".join(problems))

    def measured_pass(self, vd: dict, tracer: Tracer | None) -> float | None:
        """Run and check one pass; its seconds, or None when it failed."""
        self.attempted += 1
        outputs = self.work / f"out-{self.attempted}"
        if tracer is not None:
            tracer.install(vd)
        try:
            seconds, error, artifacts = run_pass(vd, self.workload, self.inputs, outputs, self.seed, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        if error is None:
            if self.reference is None:
                self.reference = golden.record(artifacts)
            problems = golden.mismatches(self.reference, artifacts)
            error = "; ".join(problems) if problems else None
        shutil.rmtree(outputs, ignore_errors=True)
        if error is not None:
            self.failures.append(f"pass {self.attempted}: {error}")
            return None
        return seconds


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """``SETUP_REPS`` set-up repetitions, then passes until ``seconds`` are up.

    Each repetition and pass runs on one CPU between two calibrations.
    ``setup_s`` comes from the median repetition and ``rows_per_s`` from the
    median pass, both in reference seconds; the raw seconds are recorded
    alongside.  A fixed number of repetitions keeps ``peak_rss_mb`` from
    depending on how many passes fit in the run: every fresh import keeps
    up to 1 MiB more resident.
    """
    importlib.import_module("numpy")  # dependencies load once; the package's own import is timed
    importlib.import_module("click")
    _, vd = time_setup(run.workload, run.inputs)  # warm-up: the first import also compiles bytecode
    run.check_recorded(vd)
    deadline = time.perf_counter() + seconds
    times, setup_times, scaled, setup_scaled = [], [], [], []
    try:
        for turn in range(SETUP_REPS):
            pin_cpu(turn)
            (took, vd), scale = calibrated(lambda: time_setup(run.workload, run.inputs))
            setup_times.append(took)
            setup_scaled.append(took * scale)
        while not times or time.perf_counter() < deadline:
            pin_cpu(len(times))
            took, scale = calibrated(lambda: run.measured_pass(vd, None))
            times.append(took)
            if took is not None:
                scaled.append(took * scale)
            elif len(run.failures) >= 3:
                break
    finally:
        os.sched_setaffinity(0, CPUS)
    metrics = {
        "rows_per_s": {"value": run.workload.rows / statistics.median(scaled) if scaled else 0.0, "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
    }
    detail = {"pass_s": times, "setup_s": setup_times, "pass_ref_s": scaled, "setup_ref_s": setup_scaled}
    return metrics, detail


def per_layer(run: Run, vd: dict, seconds: float) -> tuple[dict, dict]:
    """Untraced and traced passes in turn for ``seconds``; metrics per traced pass."""
    run.check_recorded(vd)
    tracer = Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    try:
        while not traced or time.perf_counter() < deadline:
            turn = len(traced)
            pin_cpu(turn)
            # The order alternates, so an order effect (say, a cold cache after the move) cancels.
            if turn % 2:
                traced.append(run.measured_pass(vd, tracer))
                plain.append(run.measured_pass(vd, None))
            else:
                plain.append(run.measured_pass(vd, None))
                traced.append(run.measured_pass(vd, tracer))
            if len(run.failures) >= 3:
                break
    finally:
        os.sched_setaffinity(0, CPUS)
    traced_ok = [t for t in traced if t is not None]
    # The two passes of a turn run side by side, so the host's speed mostly cancels in their ratio.
    pairs = [t / p for p, t in zip(plain, traced) if p is not None and t is not None]
    n = len(traced) or 1
    self_s = tracer.self_times()
    calls = Counter(name for name, *_ in tracer.spans)
    beam_spans = {i for i, span in enumerate(tracer.spans) if span[0] == "decode.beam"}
    beam_queries = sum(1 for span in tracer.spans if span[0] == "models.query" and span[3] in beam_spans)
    counts = tracer.counts

    def ratio(a: float, b: float, scale: float = 1.0) -> float:
        return a / b * scale if b else 0.0

    values = {
        "config.load_s": (self_s["config.load"] / n, "s"),
        "models.build_s": (self_s["models.build"] / n, "s"),
        "models.queries": (calls["models.query"] / n, "count"),
        "models.query_s": (self_s["models.query"] / n, "s"),
        "models.query_us": (ratio(self_s["models.query"], calls["models.query"], 1e6), "us"),
        "decode.beam_calls": (calls["decode.beam"] / n, "count"),
        "decode.beam_self_s": (self_s["decode.beam"] / n, "s"),
        "decode.beam_queries_per_call": (ratio(beam_queries, calls["decode.beam"]), "count"),
        "decode.sample_seqs": (counts["decode.sample_seqs"] / n, "count"),
        "decode.sample_self_s": (self_s["decode.sample"] / n, "s"),
        "decode.sample_ms_per_seq": (ratio(self_s["decode.sample"], counts["decode.sample_seqs"], 1e3), "ms"),
        "decode.candidates": (counts["decode.candidates"] / n, "count"),
        "decode.empty_sets": (counts["decode.empty_sets"] / n, "count"),
        "voting.elections": (calls["voting.vote"] / n, "count"),
        "voting.pairs": (counts["voting.pairs"] / n, "count"),
        "voting.vote_s": (self_s["voting.vote"] / n, "s"),
        "voting.pair_ns": (ratio(self_s["voting.vote"], counts["voting.pairs"], 1e9), "ns"),
        "metrics.evaluate_calls": (calls["metrics.evaluate"] / n, "count"),
        "metrics.evaluate_s": (self_s["metrics.evaluate"] / n, "s"),
        "metrics.bootstrap_resamples": (counts["metrics.bootstrap_resamples"] / n, "count"),
        "metrics.bootstrap_s": (self_s["metrics.bootstrap"] / n, "s"),
        "formats.read_s": (self_s["formats.read"] / n, "s"),
        "formats.records_read": (counts["formats.records_read"] / n, "count"),
        "formats.write_s": (self_s["formats.write"] / n, "s"),
        "formats.records_written": (counts["formats.records_written"] / n, "count"),
        "formats.bytes_written": (counts["formats.bytes_written"] / n, "bytes"),
        "harness.self_s": (self_s["harness.run"] / n, "s"),
        "cli.self_s": (self_s["cli.main"] / n, "s"),
        "trace.overhead_share": (statistics.median(pairs) - 1.0 if pairs else 0.0, "ratio"),
        "trace.self_share": (ratio(sum(self_s.values()), sum(traced_ok)), "ratio"),
    }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
    detail = {"plain_pass_s": plain, "traced_pass_s": traced, "spans": tracer.spans}
    return metrics, detail


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_run" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        run = Run(workload, args.seed, work)
        if args.trace:
            metrics, detail = per_layer(run, import_votedecode(), args.seconds)
        else:
            metrics, detail = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }
    env = environment()
    spans = detail.pop("spans", None)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "golden_seed_recorded": args.seed in run.goldens, "env": env, "detail": detail,
              "failures": run.failures, "result": result}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        with open(out_dir / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fp:
            for span in spans:
                fp.write(json.dumps(span) + "\n")

    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {workload.name}  seed {args.seed}  golden {'recorded' if args.seed in run.goldens else 'not recorded: passes checked against the first'}")
    for name, metric in metrics.items():
        print(f"  {name:30s} {metric['value']:.6g} {metric['unit']}")
    if detail.get("pass_ref_s"):
        for label, key in (("pass", "pass_ref_s"), ("set-up", "setup_ref_s"), ("raw pass", "pass_s"),
                           ("raw set-up", "setup_s")):
            q1, q2, q3 = quartiles([t for t in detail[key] if t is not None])
            print(f"  {label + ' seconds':30s} median {q2:.6g}, quartiles {q1:.6g} .. {q3:.6g} s"
                  f" over {len(detail[key])}")
    print(f"  {'fail_share':30s} {result['failed'] / max(result['attempted'], 1):.6g} ratio"
          f"  ({result['failed']} of {result['attempted']} passes)")
    print("  env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, each in its own process (so peak RSS is per workload), as one table."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "votedecode" / "__init__.py").is_file():
        print(f"bench: no votedecode package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
