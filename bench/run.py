"""Benchmark runner: one workload, one seed, one process.

    python3 bench/run.py --workload figures --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The workload's operations (see
workloads.py) are `clext.cli.main([...])` calls, replayed in whole passes
until `--seconds` have gone by and at least MIN_SAMPLES operations were
timed.  Every output is checked (checks.py) after the timed passes.
With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` untraced and traced passes alternate and the line holds the
per-layer metrics of the traced ones (tracing.py).  The full record,
with the environment it ran in, is written to
`<results>/<workload>-seed<seed>-trace<trace>.json`.

Times are reported at a reference host speed.  A fixed calibration
kernel, which shares no code with clext, is timed between every two
operations, and each operation's time is scaled by REFERENCE_CAL_S over
the median of the four calibrations nearest to it.  The raw wall-clock
times are kept in the record.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before anything loads numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import clext  # noqa: E402
import clext.cli  # noqa: E402
import numpy as np  # noqa: E402

from workloads import WORKLOADS, make_ops  # noqa: E402

if Path(clext.__file__).resolve().parent != SRC / "clext":
    sys.exit(f"clext was imported from {clext.__file__}, not from {SRC}")

MIN_SAMPLES = 40  # the tail percentile needs ten samples beyond it
TAIL_BEYOND = 10
SETUP_PROBES = 7
# untimed passes first: the first seconds of a fresh process read slow
WARMUP_SECONDS = 2.0
# calibration-kernel time that defines the reference host speed
REFERENCE_CAL_S = 0.002


def calibration_kernel() -> float:
    """Fixed work in the program's style: a Python series recursion and small numpy ops."""
    total = 0.0
    for _ in range(6):
        term = 1.0
        for k in range(400):
            num = 1.0
            for a in (0.5, 1.25):
                num *= a + k
            den = k + 1.0
            for b in (1.5, 2.5, 0.75):
                den *= b + k
            term = term * (num / den) * 3.0
            total += term
    arr = np.linspace(0.0, 1.0, 1024)
    for _ in range(40):
        arr = np.sqrt(arr * arr + 0.5)
    return total + float(arr[0])


def calibrate() -> float:
    """Wall seconds the calibration kernel takes on the host right now."""
    t0 = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - t0


def run_op(argv: list[str], out: Path) -> int:
    """One CLI command as a user types it; its exit code."""
    try:
        return clext.cli.main([*argv, "--out", str(out)])
    except SystemExit as exc:  # argparse rejects the command line
        return exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an uncaught error is a failed operation, not a crashed run
        sys.stderr.write(f"error: uncaught {type(exc).__name__}: {exc}\n")
        return 3


def one_pass(ops, outs) -> dict:
    """Times and exit codes of one pass, each op scaled to the reference speed.

    cals[i] is timed just before op i and cals[i + 1] just after it; the
    host speed for op i is the median of cals[i - 1 .. i + 2], so one
    disturbed calibration does not carry into the op's time.
    """
    for out in outs:
        out.unlink(missing_ok=True)
    walls, cpus, codes, cals = [], [], [], [calibrate()]
    for op, out in zip(ops, outs):
        t0, c0 = time.perf_counter(), time.process_time()
        codes.append(run_op(op.argv, out))
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        cals.append(calibrate())
    scales = [REFERENCE_CAL_S / statistics.median(cals[max(i - 1, 0):i + 3])
              for i in range(len(ops))]
    lat = [w * k for w, k in zip(walls, scales)]
    return {"wall": sum(lat), "cpu": sum(c * k for c, k in zip(cpus, scales)),
            "raw_wall": sum(walls), "raw_cpu": sum(cpus), "lat": lat, "codes": codes}


class Outputs:
    """Distinct outputs per operation, so each is checked once per run."""

    def __init__(self, n_ops: int):
        self.seen = [dict() for _ in range(n_ops)]  # text -> occurrences
        self.exit_failures = 0

    def collect(self, outs, codes):
        for i, (out, code) in enumerate(zip(outs, codes)):
            if code != 0:
                self.exit_failures += 1
                continue
            text = out.read_text(encoding="utf-8")
            self.seen[i][text] = self.seen[i].get(text, 0) + 1

    def check(self, ops, seed) -> tuple[int, list[dict]]:
        """(failed occurrences, failure records) after checking every distinct output."""
        from checks import check

        failed, records = 0, []
        for op, texts in zip(ops, self.seen):
            for text, times in texts.items():
                errors = check(op, text, seed)
                if errors:
                    failed += times
                    records.append({"op": op.name, "argv": op.argv, "errors": errors[:5]})
        return failed, records


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """(scaled, raw) wall times of fresh processes that import clext.cli and build the inputs."""
    raw, cals = [], [calibrate()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload,
             "--seed", str(seed)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )  # no timeout: with one, the wait polls at up to 50 ms steps
        raw.append(time.perf_counter() - t0)
        cals.append(calibrate())
    scaled = [w * REFERENCE_CAL_S / statistics.median(cals[max(i - 1, 0):i + 3])
              for i, w in enumerate(raw)]
    return scaled, raw


def environment() -> dict:
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "clext").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
    }


def git_sha() -> str | None:
    """HEAD of the checkout's git repository, read from .git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(ops, outs, outputs, seconds, tracer=None) -> dict:
    """Whole passes until `seconds` have gone by and MIN_SAMPLES ops were timed.

    Untimed warm-up passes run first, for WARMUP_SECONDS and at least one.
    With a tracer, passes alternate untraced / traced, and at least two
    traced passes run so that their counts can be compared.
    """
    warmup = 0
    start = time.perf_counter()
    while warmup == 0 or time.perf_counter() - start < WARMUP_SECONDS:
        outputs.collect(outs, one_pass(ops, outs)["codes"])
        warmup += 1
    passes, traced, layer_passes, spans = [], [], [], None
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if tracer is None and elapsed >= seconds and len(passes) * len(ops) >= MIN_SAMPLES:
            break
        if tracer is not None and elapsed >= seconds and len(traced) >= 2:
            break
        if tracer is not None and len(passes) > len(traced):
            tracer.reset()
            tracer.install()
            try:
                p = one_pass(ops, outs)
            finally:
                tracer.uninstall()
            traced.append(p)
            # layer times at the reference speed of this pass
            scale = p["wall"] / p["raw_wall"]
            layer_passes.append({k: v * scale if k.endswith("_ms") else v
                                 for k, v in tracer.pass_metrics().items()})
            if spans is None:
                spans = tracer.span_records()
        else:
            p = one_pass(ops, outs)
            passes.append(p)
        outputs.collect(outs, p["codes"])
    return {"passes": passes, "traced": traced, "layer_passes": layer_passes, "spans": spans,
            "warmup": warmup}


def end_to_end(m: dict, setup: list[float]) -> dict:
    lat_ms = sorted(x * 1e3 for p in m["passes"] for x in p["lat"])
    return {
        "pass_s": metric(statistics.median(p["wall"] for p in m["passes"]), "s"),
        "cpu_s": metric(statistics.median(p["cpu"] for p in m["passes"]), "s"),
        "op_ms_p50": metric(statistics.median(lat_ms), "ms"),
        # the highest percentile with TAIL_BEYOND samples beyond it
        "op_ms_tail": metric(lat_ms[-TAIL_BEYOND - 1], "ms"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(m: dict) -> tuple[dict, bool]:
    """Counts of the first traced pass, median times; and whether counts repeated."""
    from tracing import COUNT_METRICS, PER_LAYER

    passes = m["layer_passes"]
    repeat = all(p[k] == passes[0][k] for p in passes for k in COUNT_METRICS)
    out = {}
    for name in PER_LAYER:
        if name in COUNT_METRICS:
            out[name] = metric(passes[0][name], "count")
        else:
            out[name] = metric(statistics.median(p[name] for p in passes), "ms")
    out["trace.pass_ratio"] = metric(
        statistics.median(p["wall"] for p in m["traced"])
        / statistics.median(p["wall"] for p in m["passes"]), "ratio")
    return out, repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", type=Path, default=BENCH / "results",
                    help="directory for the result record")
    ap.add_argument("--probe", action="store_true",
                    help="set-up probe: import clext.cli, build the inputs, exit")
    args = ap.parse_args(argv)
    ops = make_ops(args.workload, args.seed)
    if args.probe:
        return 0

    setup, setup_raw = ([], []) if args.trace else setup_seconds(args.workload, args.seed)
    results = args.results if args.results.is_absolute() else ROOT / args.results
    work = results / f"tmp-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    outs = [work / f"op{i:03d}.csv" for i in range(len(ops))]
    outputs = Outputs(len(ops))
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    try:
        m = measure(ops, outs, outputs, args.seconds, tracer)
        if args.trace:
            metrics, counts_repeat = per_layer(m)
        else:
            metrics, counts_repeat = end_to_end(m, setup), None
    finally:
        for out in outs:
            out.unlink(missing_ok=True)
        work.rmdir()
    check_failed, failures = outputs.check(ops, args.seed)
    attempted = (m["warmup"] + len(m["passes"]) + len(m["traced"])) * len(ops)
    failed = outputs.exit_failures + check_failed
    result = {"correct": check_failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    passes = m["passes"]
    record = {
        **result,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": [op.name for op in ops], "failures": failures,
        "warmup_passes": m["warmup"], "passes": len(passes),
        "pass_s": [p["wall"] for p in passes], "cpu_s": [p["cpu"] for p in passes],
        "raw_pass_s": [p["raw_wall"] for p in passes], "raw_cpu_s": [p["raw_cpu"] for p in passes],
        "traced_pass_s": [p["wall"] for p in m["traced"]],
        "setup_s": setup, "raw_setup_s": setup_raw,
        "op_ms_median": {op.name: statistics.median(p["lat"][i] for p in passes) * 1e3
                         for i, op in enumerate(ops)},
        "counts_repeat": counts_repeat,
        "environment": environment(),
    }
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if m["spans"] is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(m["spans"]) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
