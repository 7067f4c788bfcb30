"""oamsim benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 bench/run.py --workload aligned-scans --seed 1 --seconds 36 --trace 0

Every op is an in-process ``oamsim.cli.main([...])`` call with ``--set``
overrides and ``--out`` pointing into ``bench/out``.  The tables each op
writes are checked (``checks.py``); a failed check or a non-zero exit code
counts the op as failed.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units come from ``BENCHMARK.json``.  See ``bench/README.md``.
"""

import os

# Pinned before numpy is imported, here and in every child process.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import argparse
import gc
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, pass_ops, reference_ops

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
COUNT_UNITS = {"count", "B"}


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
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


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("name", "unknown"),
            "pinned": {key: os.environ[key] for key in PINNED},
            "commit": git_commit(), "workload_seed": seed}


class Runner:
    """Runs and checks ops, keeping the tallies for one benchmark run."""

    def __init__(self, work: Path):
        import oamsim.cli
        from checks import check_op

        self._cli = oamsim.cli
        self._check = check_op
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._next = 0

    def fail(self, label: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"{label}: {p}" for p in problems]

    def op(self, op, keep: bool = False) -> tuple[float, dict, Path]:
        """Time one main() call, then check its tables; returns (seconds, facts, out)."""
        out = self.work / f"op{self._next}"
        self._next += 1
        self.attempted += 1
        start = time.perf_counter()
        code = self._cli.main(op.argv(out))
        elapsed = time.perf_counter() - start
        problems, facts = self._check(out) if code == 0 else ([f"exit code {code}"], {})
        if problems:
            self.fail(f"{op.command} {dict(op.overrides)}", problems)
        if not keep:
            shutil.rmtree(out, ignore_errors=True)
        return elapsed, facts, out

    def run_pass(self, ops, keep_first: bool = False):
        """Op times, accuracy facts and the first op's output of one pass."""
        gc.collect()
        times, facts, first = [], [], None
        for k, op in enumerate(ops):
            elapsed, op_facts, out = self.op(op, keep=keep_first and k == 0)
            times.append(elapsed)
            facts.append(op_facts)
            first = first or out
        return times, facts, first

    def rerun_matches(self, op, first_out: Path) -> None:
        """Repeat an op with the same config and seed; tables must be byte-identical."""
        from checks import same_tables

        failed = self.failed
        _, _, out = self.op(op, keep=True)
        try:
            problems = same_tables(first_out, out)
        except OSError as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            # one op, so at most one failure even if its own checks failed too
            self.problems += [f"rerun {op.command}: {p}" for p in problems]
            self.failed = failed + 1
        shutil.rmtree(out, ignore_errors=True)
        shutil.rmtree(first_out, ignore_errors=True)


def measure_setup(workload: str, seed: int, max_ops: int) -> float:
    """Median set-up time over several fresh processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(max_ops)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def keep_going(started: float, passes: int, seconds: float) -> bool:
    """Start another pass only if one more, at the mean pace so far, ends in time."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / passes <= seconds


def mean_fact(facts: list[dict], key: str) -> float:
    values = [f[key] for f in facts if key in f]
    return statistics.fmean(values) if values else float("nan")


def end_to_end(runner: Runner, args) -> tuple[dict, dict]:
    setup_s = measure_setup(args.workload, args.seed, args.max_ops)
    walls, op_times, facts, first_out = [], [], [], None
    started = time.perf_counter()
    while not walls or keep_going(started, len(walls), args.seconds):
        ops = pass_ops(args.workload, args.seed, len(walls), args.max_ops)
        times, pass_facts, first = runner.run_pass(ops, keep_first=not walls)
        walls.append(sum(times))
        op_times.append(times)
        if first_out is None:
            first_out, facts = first, pass_facts
    # before the rerun and the reference ops, which are not the workload
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.rerun_matches(pass_ops(args.workload, args.seed, 0, args.max_ops)[0], first_out)
    for op in reference_ops(args.workload, args.seed):
        facts.append(runner.op(op)[1])
    return {
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(t for times in op_times for t in times),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "fwhm_rel_error": mean_fact(facts, "fwhm_rel_error"),
        "tomo_fidelity_mean": mean_fact(facts, "tomo_fidelity"),
        "tomo_chi2_dof_mean": mean_fact(facts, "tomo_chi2_dof"),
    }, {"pass_walls": walls, "op_times": op_times, "ops": sum(map(len, op_times))}


def traced(runner: Runner, args, units: dict) -> tuple[dict, dict]:
    """Per-layer figures from traced passes, each repeated untraced for the overhead.

    The untraced repeat runs the very configs of the traced pass, so their
    difference is the cost of tracing alone; the program keeps no state between
    main() calls.  Tracing the first run of each config keeps the layer
    figures clear of any cache such a repeat could hit.
    """
    from tracing import Tracer, layer_metrics

    traced_walls, untraced_walls, per_pass, spans, first_out = [], [], [], [], None
    started = time.perf_counter()
    while not per_pass or keep_going(started, len(per_pass), args.seconds):
        ops = pass_ops(args.workload, args.seed, len(per_pass), args.max_ops)
        with Tracer() as tracer:
            times, _, first = runner.run_pass(ops, keep_first=not per_pass)
        first_out = first_out or first
        traced_walls.append(sum(times))
        per_pass.append(layer_metrics(tracer.spans, sum(times)))
        spans.append([vars(s) for s in tracer.spans])
        untraced_walls.append(sum(runner.run_pass(ops)[0]))
    runner.rerun_matches(pass_ops(args.workload, args.seed, 0, args.max_ops)[0], first_out)
    # Exact counts are taken from the first traced pass, so two runs with the
    # same seed report the same figures; times are medians over traced passes.
    metrics = {name: per_pass[0][name] if unit in COUNT_UNITS
               else statistics.median(p[name] for p in per_pass)
               for name, unit in units.items() if name in per_pass[0]}
    metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                   - statistics.median(untraced_walls))
    return metrics, {"spans": spans}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; passes start only while they fit in it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=0,
                        help="cut each pass to its first N ops (0: the full op list)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "oamsim" / "cli.py").is_file():
        print(f"bench: oamsim sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    env = environment(args.seed)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        runner = Runner(work)
        computed, extra = traced(runner, args, units) if args.trace else end_to_end(runner, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: {"value": computed[name], "unit": unit} for name, unit in units.items()}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"env": env, "workload": args.workload, "seconds": args.seconds,
              "attempted": runner.attempted, "failed": runner.failed,
              "problems": runner.problems, "metrics": metrics}
    if args.trace:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(extra.pop("spans")) + "\n")
    (OUT / f"result-{tag}.json").write_text(json.dumps({**record, **extra}, indent=1) + "\n")

    print("env " + json.dumps(env))
    for problem in runner.problems[:20]:
        print("problem: " + problem, file=sys.stderr)
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    if not args.trace:
        print(f"ops = {extra['ops']} in {len(extra['pass_walls'])} passes")
    print(f"error_rate = {runner.failed / runner.attempted!r} "
          f"({runner.failed} failed / {runner.attempted} attempted)")
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
