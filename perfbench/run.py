"""End-to-end benchmark of the ratecert command line.

    python3 perfbench/run.py --workload certify-dynamic --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 -m pytest perfbench/tests -q        # self-test on tiny decks

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout and nowhere else.  One single-threaded, closed-loop client
drives ``ratecert.cli.main`` in-process with one command (an "op") in
flight.  The seed fixes a deck of ops (see ``workloads.py``); the loop runs
the whole deck in a fixed number of passes, chosen so that the ops take
about ``--seconds`` at the reference speed (``CAL_REF_S``).  Only the op is
timed: input generation, the output checks of ``oracle.py`` and hashing run
outside the clock.

End-to-end metrics (``--trace 0``), per workload:

* ``ops_per_s``: ops completed per second of op time;
* ``op_p50_s``: median op time;
* ``op_tail_s``: op time at the highest percentile that leaves ten ops
  above it (the percentile and the op count are in the summary line);
* ``setup_s``: median over fresh processes of the time from process start
  to the first op (interpreter start, import of ``ratecert.cli``, deck);
* ``peak_rss_mb``: peak resident set of the benchmark process;
* ``certified_frac``: instances certified below rate 1 / instances, over
  the deck's distinct instances (each sweep row is an instance).

Failed ops (``failed`` / ``attempted``) and the mean gap ``rho_star -
r_exact`` over certified instances are in the summary line; the gap is also
the per-layer metric ``certifier.rho_gap_mean``.  Neither is an end-to-end
metric here: no op fails at a sound commit (a bound on 0 means nothing), and
the gap is a fixed property of each deck that moves by more than any
allowed bound from one seed to the next.

With ``--trace 1`` the second pass is traced, and the last line carries the
per-layer metrics of ``tracing.py`` plus the tracing overhead.  The line
before the last is a summary with the seed, the output digest (sha256 over
the exit code and output files of the first pass, in deck order), the tail
percentile, certificate quality and the machine record; the full record
(every instance and op) and, for traced runs, the spans are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# End-to-end metrics: name -> unit.
END_TO_END = {
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "certified_frac": "ratio",
}
TAIL_BEYOND = 10          # samples the tail percentile must leave above it
# A shared 2-CPU virtual machine changes speed by up to 2x for seconds to
# minutes at a time (other tenants), and process CPU time slows with it.  Every op is therefore timed twice over: its wall time, and that
# wall time scaled to a reference speed by a calibration loop timed just
# before and just after it.  The end-to-end times are the scaled ones, in
# seconds at the speed where the loop takes CAL_REF_S; the raw wall times
# are kept in the record.
CAL_REF_S = 0.0025
WALL_CAP_S = 150.0        # start no pass expected to end a run past this
SETUP_SNIPPET = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import ratecert.cli, workloads; "
    "workloads.make_deck(sys.argv[3], int(sys.argv[4]))"
)


class ProgramMissing(RuntimeError):
    pass


def load_program(root: Path) -> dict:
    """Import ratecert from ``root/src`` only; refuse any other copy."""
    src = (root / "src").resolve()
    if not (src / "ratecert" / "cli.py").is_file():
        raise ProgramMissing(f"no ratecert sources under {src}")
    sys.path.insert(0, str(src))
    import ratecert.certifier as certifier
    import ratecert.cli as cli
    import ratecert.ellipsoid as ellipsoid
    import ratecert.simulator as simulator

    if src not in Path(cli.__file__).resolve().parents:
        raise ProgramMissing(f"imported {cli.__file__}, not the copy under {src}")
    return {"cli": cli, "certifier": certifier, "ellipsoid": ellipsoid,
            "simulator": simulator}


def calibrate() -> float:
    """Mean time of six runs of a fixed loop of small numpy products and
    Python arithmetic, the instruction mix of the program, in seconds.  The
    mean, not the fastest run, tracks the slowdown an op sees."""
    t0 = time.perf_counter()
    for _ in range(6):
        a = np.eye(3) + 0.1
        acc = 0.0
        for i in range(600):
            b = a @ a
            acc += float(b[0, 1]) * 0.5 + i
            a = 0.5 * (a + a.T)
    return (time.perf_counter() - t0) / 6


def scaled(wall: float, cal_before: float, cal_after: float) -> float:
    return wall * CAL_REF_S / (0.5 * (cal_before + cal_after))


def measure_setup(workload: str, seed: int, repeats: int) -> list[tuple[float, float]]:
    """(wall, scaled) time from process start to the first op: interpreter
    start, import of ratecert.cli and input generation, in fresh processes."""
    samples = []
    cal = calibrate()
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(ROOT / "src"), str(BENCH_DIR),
             workload, str(seed)],
            check=True, timeout=60, stdin=subprocess.DEVNULL,
        )
        wall = time.perf_counter() - t0
        cal_after = calibrate()
        samples.append((wall, scaled(wall, cal, cal_after)))
        cal = cal_after
    return samples


def op_digest(res: oracle.OpResult) -> str:
    h = hashlib.sha256(f"exit={res.exit_code}\n".encode())
    for kind in sorted(res.outputs):
        h.update(f"{kind} {len(res.outputs[kind])}\n".encode())
        h.update(res.outputs[kind])
    return h.hexdigest()


class Runner:
    """Runs one workload's deck in passes and collects what it measured."""

    def __init__(self, modules: dict, deck: list, work_dir: str, trace: bool):
        self.cli = modules["cli"]
        self.deck = deck
        self.work_dir = work_dir
        self.oracle = oracle.Oracle(modules["certifier"])
        self.tracer = tracing.Tracer(modules) if trace else None
        self.op_commands: dict[int, str] = {}
        self.ops: list[dict] = []          # one record per op run
        self.first_pass: list[oracle.OpResult] = []
        self.pass_walls: list[tuple[bool, float]] = []   # (traced, scaled op time)
        self.cal = calibrate()

    def _run_op(self, index: int, inst, traced: bool) -> tuple[float, oracle.OpResult]:
        argv, outs = inst.argv(self.work_dir, index)
        for path in outs.values():
            if os.path.exists(path):
                os.remove(path)
        out, err = io.StringIO(), io.StringIO()
        error = None
        op_id = len(self.ops)
        span = None
        if traced:
            self.op_commands[op_id] = inst.command
            self.tracer.op = op_id
            span = self.tracer.open(0)
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception as exc:  # a raising command is a failed op, not a crash
            rc, error = None, repr(exc)
        wall = time.perf_counter() - t0
        if traced:
            self.tracer.close(*span)
            self.tracer.op = -1
        outputs = {kind: Path(p).read_bytes() for kind, p in outs.items() if os.path.exists(p)}
        res = oracle.OpResult(argv=argv, outputs=outputs, stdout=out.getvalue(),
                              exit_code=rc, error=error, certs=self.capture.take())
        return wall, res

    def run_pass(self, traced: bool) -> float:
        first = not self.first_pass
        pass_wall = 0.0
        for index, inst in enumerate(self.deck):
            raw, res = self._run_op(index, inst, traced)
            cal_before, self.cal = self.cal, calibrate()
            wall = scaled(raw, cal_before, self.cal)
            pass_wall += wall
            reasons = self.oracle.check(res)
            digest = op_digest(res)
            if first:
                self.first_pass.append(res)
            elif digest != self.ops[index]["digest"]:
                reasons.append("output differs from the first pass over the same input")
            self.ops.append({"index": index, "wall_s": wall, "raw_wall_s": raw,
                             "calibration_s": cal_before, "traced": traced,
                             "exit_code": res.exit_code, "digest": digest,
                             "failures": reasons})
        self.pass_walls.append((traced, pass_wall))
        return pass_wall

    def run(self, passes: int, trace: bool) -> None:
        """Run the deck ``passes`` times; with ``trace`` the second pass is
        the traced one and the others are untraced."""
        started = time.perf_counter()
        with oracle.Capture(self.cli) as self.capture:
            for index in range(passes):
                if trace and index == 1:
                    with self.tracer.installed():
                        self.run_pass(True)
                else:
                    self.run_pass(False)
                elapsed = time.perf_counter() - started
                if elapsed * (index + 2) / (index + 1) > WALL_CAP_S:
                    break


def tail(walls: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) at the highest percentile that
    leaves TAIL_BEYOND samples above it; the maximum when there are too few."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / n, n - k - 1


def quality(results: list[oracle.OpResult], closed_form_rate) -> dict:
    """Certificate quality over the deck's distinct instances."""
    certs = [c for r in results for c in r.certs]
    gaps = [c.rho_star - oracle.exact_rate(c, closed_form_rate)
            for c in certs if c.rho_star is not None]
    return {
        "instances": len(certs),
        "certified": len(gaps),
        "certified_frac": len(gaps) / len(certs) if certs else None,
        "rho_gap_mean": statistics.fmean(gaps) if gaps else None,
        "grid_points": [len(c.grid) for c in certs],
    }


def src_line_count(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src" / "ratecert").glob("*.py")))


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "src_lines": src_line_count(ROOT),
    }


def execute(workload: str, seed: int, seconds: float, trace: bool,
            sizes: workloads.Sizes | None = None) -> dict:
    """Run one workload; return the result record (see ``final_line``)."""
    sizes = sizes or workloads.FULL
    modules = load_program(ROOT)
    setup = measure_setup(workload, seed, sizes.setup_repeats) if not trace else []
    deck = workloads.make_deck(workload, seed, sizes)
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        runner = Runner(modules, deck, work_dir, trace)
        runner.run(workloads.passes(workload, seconds, trace), trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    untraced = [op["wall_s"] for op in runner.ops if not op["traced"]]
    failed = [op for op in runner.ops if op["failures"]]
    q = quality(runner.first_pass, modules["certifier"].closed_form_rate)
    tail_value, tail_pct, tail_beyond = tail(untraced)
    digest = hashlib.sha256("".join(op["digest"] for op in runner.ops[:len(deck)])
                            .encode()).hexdigest()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "instances": [{"command": inst.command, **inst.params} for inst in deck],
        "machine": machine_record(),
        "passes": len(runner.pass_walls),
        "attempted": len(runner.ops),
        "failed": len(failed),
        "failed_frac": len(failed) / len(runner.ops),
        "failures": [{"op": op["index"], "reasons": op["failures"]} for op in failed],
        "digest": digest,
        "tail": {"percentile": tail_pct, "samples": len(untraced), "beyond": tail_beyond},
        "setup_samples_s": setup,
        "quality": {k: v for k, v in q.items() if k != "grid_points"},
        "ops": runner.ops,
    }
    if not trace:
        record["metrics"] = {
            "ops_per_s": len(untraced) / sum(untraced),
            "op_p50_s": statistics.median(untraced),
            "op_tail_s": tail_value,
            "setup_s": statistics.median(scaled_s for _, scaled_s in setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "certified_frac": q["certified_frac"],
        }
        record["units"] = END_TO_END
    else:
        traced_walls = [w for t, w in runner.pass_walls if t]
        plain_walls = [w for t, w in runner.pass_walls if not t]
        overhead = statistics.fmean(traced_walls) / statistics.fmean(plain_walls) - 1.0
        stats = tracing.SpanStats(runner.tracer, runner.op_commands)
        values, missing = tracing.per_layer(stats, q, overhead, runner.tracer.missing)
        record["metrics"] = values
        record["units"] = tracing.UNITS
        record["missing"] = {"span_names": runner.tracer.missing, "metrics": missing}
        record["not_exercised"] = [m for m, v in values.items()
                                   if v is None and m not in missing]
        runner.tracer.save(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz")
    return record


def final_line(record: dict) -> dict:
    """The contract line: every metric with its unit.  A per-layer metric
    that is missing or not exercised by the workload reads 0 here and is
    named in the summary line."""
    metrics = {name: {"value": 0.0 if value is None else value, "unit": record["units"][name]}
               for name, value in record["metrics"].items()}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def summary(record: dict) -> dict:
    keys = ("workload", "seed", "trace", "passes", "attempted", "failed", "failed_frac",
            "digest", "tail", "setup_samples_s", "quality", "machine", "missing",
            "not_exercised", "failures")
    return {k: record[k] for k in keys if k in record}


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, stdin=subprocess.DEVNULL,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result, info = json.loads(lines[-1]), json.loads(lines[-2])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, mv in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = mv
        rows.append((name, result, info))
    for name, result, info in rows:
        q = info["quality"]
        print(f"== {name}: {result['attempted']} ops, failed_frac {info['failed_frac']:.3g}, "
              f"tail at p{info['tail']['percentile']:.1f} of {info['tail']['samples']} ops, "
              f"{q['certified']}/{q['instances']} certified, "
              f"rho_gap_mean {q['rho_gap_mean']:.4g}, digest {info['digest'][:16]}")
        for metric, mv in result["metrics"].items():
            print(f"   {metric:34s} {mv['value']:<14.6g} {mv['unit']}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        record = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary(record)))
    print(json.dumps(final_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
