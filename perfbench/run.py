"""shufflecalc benchmark: drives the public CLI in a closed loop with one
client, one op process at a time, on inputs generated from a seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The lines before it record the environment and a readable summary.  See
README.md in this directory for workloads, metrics and how to read them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import hostspeed
import workloads

WORKLOADS = ("transform-deep", "verify-suites", "enumerate-details")

# The suites of `shufflecalc verify`, one per-layer time metric each.
SUITES = (
    "ad-composition", "adjoint-sums", "bch-prelie", "boolean-oracle", "cfree-additivity",
    "cfree-degenerations", "cfree-oracle", "coassociativity", "conv-associativity",
    "conv-inverse", "coproduct-grading", "counit", "cumulant-conversions",
    "exp-half-inverse", "exp-log-inverse", "exp-transforming", "factorizations",
    "free-oracle", "half-coproduct-split", "half-sum-convolution", "magnus-crosscheck",
    "monotone-oracle", "nc-counts", "prelie-identity", "sharp-adjoint", "sharp-product",
    "shuffle-axioms",
)

# setup_s is the median of set-up probes made at both ends of the run and
# after every op process, so that it spans the same stretch of host speed
# as the ops.
SETUP_EDGE = 4
# op_tail_s is this fixed quantile of the op latencies.  A percentile
# chosen per run to leave ten samples above it would rise with the sample
# count, so a faster program, running more ops in the same seconds, would
# read a slower op type and show a false regression.  With one sample of
# each of 12 op types in a pass, p75 is the highest quantile that rests on
# more than one or two of them.
TAIL_Q = 0.75
RUN_LIMIT_S = 170  # no op process may outlive this point of the run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class Failure(Exception):
    pass


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, work: Path, calibrated: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.started = time.perf_counter()
        pythonpath = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_samples: list[float] = []
        # With calibration every process time is scaled by the host speed
        # measured just before and just after it (see hostspeed.py).
        self.calibrated = calibrated
        if calibrated:
            hostspeed.calibrate()  # warm-up
            self.last_cal = hostspeed.calibrate()
            self.cals = [self.last_cal]

    # --- processes ---------------------------------------------------------

    def spawn(self, cmd: list[str]) -> tuple[float, bytes]:
        """Run one process to completion; return its wall time, scaled when
        calibrated, and its stdout.  A nonzero exit, a traceback or a
        timeout raises Failure."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        timeout = max(1.0, RUN_LIMIT_S - (time.perf_counter() - self.started))
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.work)
            # A timer thread kills a hung op; wait() itself blocks in waitpid,
            # so the measured time is not rounded to a polling interval.
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                code = proc.wait()
            finally:
                watchdog.cancel()
                watchdog.join()
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            seconds = time.perf_counter() - start
        if self.calibrated:
            after = hostspeed.calibrate()
            seconds = hostspeed.scale(seconds, self.last_cal, after)
            self.last_cal = after
            self.cals.append(after)
        stdout = out_path.read_bytes()
        stderr = err_path.read_bytes()
        out_path.unlink()
        err_path.unlink()
        if code != 0 or b"Traceback" in stderr:
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:] or ["no stderr"]
            raise Failure(f"exit {code}: {tail[0]}")
        return seconds, stdout

    def cli_cmd(self, argv, trace: Path | None) -> list[str]:
        if trace is None:
            return [sys.executable, "-m", "shufflecalc.cli", *argv]
        return [sys.executable, str(HERE / "child.py"), "--trace", str(trace), "cli", *argv]

    def fail(self, what: str, why: str) -> None:
        self.failures.append(f"{what}: {why}")
        print(f"FAIL {self.workload} seed={self.seed} {what}: {why}", file=sys.stderr)

    # --- set-up ------------------------------------------------------------

    def probe(self) -> float:
        """Wall time of one no-work CLI call: interpreter start, imports and
        argument parsing."""
        seconds, out = self.spawn(self.cli_cmd(workloads.SETUP_ARGV, None))
        if json.loads(out)["count"] != 1:
            raise Failure(f"set-up call printed {out!r}")
        return seconds

    # --- one pass over the op list ------------------------------------------

    def prepare_ops(self) -> list[tuple[workloads.Op, tuple[str, ...]]]:
        if self.workload == "transform-deep":
            ops = workloads.transform_ops(self.seed)
        else:
            ops = workloads.enumerate_ops()
        prepared = []
        for op in ops:
            paths = {}
            for key, obj in op.inputs.items():
                path = self.work / f"{op.name}-{key}.json"
                path.write_text(json.dumps(obj))
                paths[key] = str(path)
            prepared.append((op, tuple(a.format(**paths) for a in op.argv)))
        return prepared

    def run_cli_op(self, op, argv, trace: Path | None, samples, traces) -> None:
        self.attempted += 1
        try:
            seconds, out = self.spawn(self.cli_cmd(argv, trace))
        except Failure as exc:
            self.fail(op.name, str(exc))
            return
        problem = op.check(out)
        if problem:
            self.fail(op.name, problem)
            return
        samples[op.name].append(seconds)
        if trace is not None:
            traces.append(json.loads(trace.read_text()))
            trace.unlink()

    def run_verify_pass(self, trace: Path | None, samples, traces) -> None:
        cmd = [sys.executable, str(HERE / "child.py")]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        cmd += ["verify", "--seed", str(self.seed), "--letters", ",".join(workloads.VERIFY_LETTERS),
                "--max-len", str(workloads.VERIFY_MAX_LEN)]
        if self.calibrated:
            cmd.append("--calibrate")
        try:
            _, out = self.spawn(cmd)
        except Failure as exc:
            self.attempted += 1
            self.fail("verify process", str(exc))
            return
        for line in out.decode().splitlines():
            suite = json.loads(line)
            self.attempted += 1
            if suite["passed"]:
                seconds = suite["seconds"]
                if self.calibrated:
                    seconds = hostspeed.scale(seconds, suite["cal_before"], suite["cal_after"])
                    self.cals.append(suite["cal_after"])
                samples[suite["suite"]].append(seconds)
            else:
                self.fail(suite["suite"], suite["detail"])
        if trace is not None:
            traces.append(json.loads(trace.read_text()))
            trace.unlink()

    def one_pass(self, ops, trace: Path | None, samples, traces, after=lambda: None) -> None:
        """Every op of the workload once; ``after`` runs after each op
        process.  For verify-suites that process is the whole pass: a fresh
        process per pass gives suite k the same cache state in every pass."""
        if self.workload == "verify-suites":
            self.run_verify_pass(trace, samples, traces)
            after()
        else:
            for op, argv in ops:
                self.run_cli_op(op, argv, trace, samples, traces)
                after()

    # --- runs ----------------------------------------------------------------

    def measure(self, ops) -> dict:
        """Closed loop of whole passes until the deadline, at least one, so
        every op is checked and every op has the same number of samples."""
        samples: dict[str, list[float]] = defaultdict(list)
        deadline = time.perf_counter() + self.seconds
        while not samples or time.perf_counter() < deadline:
            self.one_pass(ops, None, samples, [],
                          after=lambda: self.setup_samples.append(self.probe()))
        return samples

    def end_to_end(self) -> dict:
        ops = [] if self.workload == "verify-suites" else self.prepare_ops()
        self.probe()  # warm-up
        for _ in range(SETUP_EDGE):
            self.setup_samples.append(self.probe())
        samples = self.measure(ops)
        for _ in range(SETUP_EDGE):
            self.setup_samples.append(self.probe())
        values = sorted(v for vs in samples.values() for v in vs)
        if not values:
            raise Failure("no op succeeded")
        n = len(values)
        tail = quantile(values, TAIL_Q)
        beyond = sum(v > tail for v in values)
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        fail_ratio = len(self.failures) / self.attempted
        for name, times in samples.items():
            print(f"op {name}: median {statistics.median(times):.4f} s over {len(times)}")
        print(f"summary {self.workload} seed={self.seed}: {len(samples)} distinct ops, "
              f"{n} samples; op_tail_s is p{TAIL_Q * 100:.0f} ({beyond} samples beyond); "
              f"fail_ratio = {len(self.failures)}/{self.attempted} = {fail_ratio}; "
              f"host calibration median {statistics.median(self.cals):.4f} s "
              f"(reference {hostspeed.REFERENCE_S} s)")
        return {
            "setup_s": (statistics.median(self.setup_samples), "s"),
            "wall_s": (sum(statistics.median(v) for v in samples.values()), "s"),
            "op_p50_s": (quantile(values, 0.5), "s"),
            "op_tail_s": (tail, "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
            "ok_ratio": (1 - fail_ratio, "ratio"),
        }

    def per_layer(self) -> dict:
        """Untraced and traced passes alternate until the deadline (at least
        one of each).  Counts come from the first traced pass; times are
        medians over traced passes."""
        ops = [] if self.workload == "verify-suites" else self.prepare_ops()
        deadline = time.perf_counter() + self.seconds
        plain: dict[str, list[float]] = defaultdict(list)
        traced: dict[str, list[float]] = defaultdict(list)
        passes: list[list[dict]] = []
        trace = self.work / "trace.json"
        while not passes or time.perf_counter() < deadline:
            self.one_pass(ops, None, plain, [])
            passes.append([])
            self.one_pass(ops, trace, traced, passes[-1])
        if not plain or not traced:
            raise Failure("no op succeeded")
        layer = [aggregate(p) for p in passes]
        counts = layer[0]

        def median_of(key):
            return float(statistics.median(p[key] for p in layer))

        traced_wall = sum(statistics.median(v) for v in traced.values())
        plain_wall = sum(statistics.median(v) for v in plain.values())
        metrics = {
            "cli.parse_s": (median_of("cli.parse_s"), "s"),
            "cli.serialize_s": (median_of("cli.serialize_s"), "s"),
            "cli.bytes_in": (counts["cli.bytes_in"], "B"),
            "cli.bytes_out": (counts["cli.bytes_out"], "B"),
            "cumulants.calls": (counts["cumulants.calls"], "count"),
            "cumulants.compute_s": (median_of("cumulants.compute_s"), "s"),
            "functionals.evals": (counts["functionals.evals"], "count"),
            "functionals.memo_hit_ratio": (
                counts["functionals.memo_hits"] / counts["functionals.evals"]
                if counts["functionals.evals"] else 0.0, "ratio"),
            "functionals.self_s": (median_of("functionals.self_s"), "s"),
            "functionals.materialize_s": (median_of("functionals.materialize_s"), "s"),
            "series.evals": (counts["series.evals"], "count"),
            "series.self_s": (median_of("series.self_s"), "s"),
            "coalgebra.coproduct_calls": (counts["coalgebra.coproduct_calls"], "count"),
            "coalgebra.half_calls": (counts["coalgebra.half_calls"], "count"),
            "coalgebra.word_coproducts": (counts["coalgebra.word_coproducts"], "count"),
            "coalgebra.self_s": (median_of("coalgebra.self_s"), "s"),
            "coalgebra.cache_entries": (counts["coalgebra.cache_entries"], "count"),
            "coalgebra.cache_terms": (counts["coalgebra.cache_terms"], "count"),
            "words.word_allocs": (counts["words.word_allocs"], "count"),
            "words.barword_allocs": (counts["words.barword_allocs"], "count"),
            "partitions.calls": (counts["partitions.calls"], "count"),
            "partitions.partitions_built": (counts["partitions.partitions_built"], "count"),
            "partitions.self_s": (median_of("partitions.self_s"), "s"),
        }
        for suite in SUITES:
            times = traced.get(suite, [0.0]) if self.workload == "verify-suites" else [0.0]
            metrics[f"verify.suite.{suite}_s"] = (statistics.median(times), "s")
        passed = sum(1 for s in SUITES if s in traced) if self.workload == "verify-suites" else 0
        metrics["verify.suites_passed"] = (passed, "count")
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        print(f"summary {self.workload} seed={self.seed}: {len(passes)} traced passes; "
              f"untraced wall_s {plain_wall:.4f}, traced {traced_wall:.4f}")
        return metrics


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics, the i-th of n weighted by the Beta(p(n+1), (1-p)(n+1)) mass
    on [(i-1)/n, i/n].  A run holds a few samples of each of a dozen or so
    op types; the plain sample quantile jumps between op types as their
    order shifts, and this estimate moves smoothly."""
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 400  # integration points per order statistic
    m = n * steps
    logs = [(a - 1) * math.log((j + 0.5) / m) + (b - 1) * math.log(1 - (j + 0.5) / m)
            for j in range(m)]
    top = max(logs)
    density = [math.exp(v - top) for v in logs]
    weights = [sum(density[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def aggregate(traces: list[dict]) -> dict:
    """Sum the op traces of one pass; cache sizes are the largest at any op
    end."""
    out: dict[str, float] = defaultdict(int)
    for t in traces:
        for key, value in t["counts"].items():
            out[key] += value
        for layer, seconds in t["self_s"].items():
            out[f"{layer}.self_s"] += seconds
        for key, seconds in t["phase_s"].items():
            out[key] += seconds
        for key in ("coalgebra.cache_entries", "coalgebra.cache_terms"):
            out[key] = max(out[key], t[key])
    return out


def commit() -> str:
    """The checked-out commit, read from .git without running git."""
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
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "shufflecalc" / "cli.py").is_file():
        print(f"error: no shufflecalc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    hostspeed.pin_to_one_cpu()
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "commit": commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    work = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(args.workload, args.seed, args.seconds, work, calibrated=not args.trace)
    try:
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    print("env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"metric {args.workload} {name} = {value} {unit}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
