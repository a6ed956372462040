"""qcollapse benchmark: one workload, one closed-loop caller, one process.

    python3 perfbench/run.py --workload hwfc-worlds --seed 1 --seconds 23 --trace 0

Requests are sent one after another, each after the previous returned; no
threads.  With ``--trace 0`` the run measures the end-to-end metrics, with
times scaled to reference speed (see ``speed.py``).  With ``--trace 1``
untraced and traced rounds alternate, and the run reports the per-layer
metrics of the traced rounds and the tracing overhead (traced over
untraced request time).  Every request's output is checked; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  Results and output digests are also stored under
``perfbench/results/``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import report
import speed

# One closed-loop caller on a 2-core machine: keep numpy's BLAS to one
# thread, here and in every child process.  By default OpenBLAS spins a
# second thread even for the small vectors qcollapse hands it (process CPU
# time twice the wall time), and wall times then hinge on whatever else runs
# on the other core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORK = HERE / ".work"

SETUP_PROBES = 5
CLI_PROBES = 5
DIGEST_ROUNDS = 2
# Peak memory is read after a fixed number of requests, not at the end of
# the run: qcollapse's distribution caches grow with every request served,
# so an end-of-run reading would rise with the host's speed and with every
# speed-up of the program.  Every workload completes these within 23 s.
RSS_REQUESTS = 48
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=23.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set the workload up, print 'ready' and exit (used for setup_s)")
    return parser.parse_args(argv)


def timed_rounds(workload, seed: int, budget_s: float):
    """Whole rounds until ``budget_s`` has passed (at least DIGEST_ROUNDS
    rounds).  The speed reference is timed before the first request and
    after every request; a request's speed factor is the mean of the two
    taken around it.  Returns the outcomes, their speed factors, and the
    peak RSS once RSS_REQUESTS requests are done (or at the end, if fewer
    were)."""
    n = len(workload.worlds)
    outcomes, references, rss = [], [speed.speed_factor()], None
    started = time.perf_counter()
    while True:
        for _ in range(n):
            outcomes.append(workload.run(len(outcomes), seed))
            references.append(speed.speed_factor())
        if rss is None and len(outcomes) >= RSS_REQUESTS:
            rss = peak_rss_mb()
        if time.perf_counter() - started >= budget_s and len(outcomes) >= DIGEST_ROUNDS * n:
            factors = [(a + b) / 2 for a, b in zip(references, references[1:])]
            return outcomes, factors, rss if rss is not None else peak_rss_mb()


def run_digest(outcomes) -> str:
    """Digest of the first DIGEST_ROUNDS rounds; every run executes them."""
    return hashlib.sha256("\n".join(o.digest for o in outcomes).encode()).hexdigest()


def setup_probe_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from spawning a fresh benchmark process to its 'ready' line
    (interpreter start, imports, workload construction and warm-up), and
    the mean of the speed factors measured right before and after."""
    before = speed.speed_factor()
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
    started = time.perf_counter()
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - started
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode}, said {line!r})")
    return seconds, (before + speed.speed_factor()) / 2


def cli_probe_seconds(env) -> tuple[float, float]:
    """Median wall time of a bare interpreter, and median time to import
    qcollapse.cli inside a fresh one."""
    bare, imports = [], []
    code = "import time; t = time.perf_counter(); import qcollapse.cli; print(time.perf_counter() - t)"
    for _ in range(CLI_PROBES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=PROBE_TIMEOUT_S)
        bare.append(time.perf_counter() - started)
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                             capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        imports.append(float(out.stdout.strip()))
    return report.median(bare), report.median(imports)


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for
    (the CLI processes, on cli-demos)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def describe_failures(outcomes) -> str:
    reasons: dict[str, int] = {}
    for o in outcomes:
        if not o.ok:
            reasons[o.reason] = reasons.get(o.reason, 0) + 1
    return ", ".join(f"{k}={v}" for k, v in sorted(reasons.items())) or "none"


def end_to_end_run(workload, args, setup_here: float):
    """Timed rounds for ``--seconds``, then the setup probes."""
    n = len(workload.worlds)
    outcomes, factors, rss = timed_rounds(workload, args.seed, args.seconds)
    setups = [setup_probe_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    values, raw, latency = report.request_values(outcomes, factors, n)
    values["setup_s"] = report.median([s * f for s, f in setups])
    raw["setup_s"] = report.median([s for s, _ in setups])
    values["peak_rss_mb"] = rss
    for label, lat in zip(workload.labels, latency["worlds"]):
        print(f"  world {label}: n={lat['n']} p50={lat['p50']:.4f} ms "
              f"p90={lat['p90']:.4f} ms, {lat['p90_beyond']} beyond p90")
    rel = latency["relative"]
    weak = "" if rel["p90_beyond"] >= 10 else " (fewer than 10: weakly supported)"
    print(f"  latency over own world's median, pooled: n={rel['n']} p90={rel['p90']:.4f}, "
          f"{rel['p90_beyond']} beyond{weak}; Harrell-Davis p90={rel['p90_hd']:.4f}")
    print(f"  speed factor per request: median {report.median(factors):.4f}, "
          f"range {min(factors):.4f}-{max(factors):.4f} ({len(factors)} requests)")
    ok = sum(o.ok for o in outcomes)
    elapsed = sum(o.seconds for o in outcomes)
    notes = {
        "requests_per_s": f"{ok} ok requests in {elapsed:.3f} s; "
        f"raw {raw['requests_per_s']:.6g}",
        "request_ms.p50": f"geometric mean of world medians; raw {raw['request_ms.p50']:.6g}",
        "request_ms.p90": f"p50 x pooled Harrell-Davis p90 over world medians; raw {raw['request_ms.p90']:.6g}",
        "ok_fraction": f"failed_fraction={1 - ok / len(outcomes):.6g} "
        f"({len(outcomes) - ok}/{len(outcomes)}: {describe_failures(outcomes)})",
        "setup_s": "median of " + ", ".join(f"{s * f:.4f}" for s, f in setups)
        + f"; raw {raw['setup_s']:.6g}; this process {setup_here:.4f} s without interpreter start",
        "peak_rss_mb": f"ru_maxrss of this process and its children after "
        f"{RSS_REQUESTS} requests; {peak_rss_mb():.6g} at the end of the run",
    }
    units = {name: unit for name, (unit, _) in report.END_TO_END.items()}
    return values, units, notes, outcomes, outcomes[: DIGEST_ROUNDS * n], None


def traced_run(workload, args, setup_here: float):
    """Untraced and traced rounds alternate, so both see the program's
    caches equally warm; the traced rounds give the per-layer values."""
    import layers
    import workloads

    n = len(workload.worlds)
    outcomes, traced = [], []
    started = time.perf_counter()
    index = 0
    while time.perf_counter() - started < args.seconds or len(traced) < len(outcomes):
        if len(traced) < len(outcomes):
            traced += workload.trace(range(index, index + n), args.seed)
        else:
            outcomes += [workload.run(i, args.seed) for i in range(index, index + n)]
        index += n
    summary = workload.trace_summary()
    values = layers.layer_values(summary, len(traced))
    values["cli.interpreter_s"], values["cli.import_s"] = cli_probe_seconds(workloads.child_env(ROOT))
    untraced_s = sum(o.seconds for o in outcomes)
    traced_s = sum(o.seconds for o in traced)
    values["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    units = layers.PER_LAYER_UNITS
    notes = {
        "quantum.simulate.state_bytes": "computed as 16 * 2^Q per call, not measured",
        "trace.overhead_pct": f"{len(outcomes)} untraced requests {untraced_s:.3f} s, "
        f"{len(traced)} traced requests {traced_s:.3f} s",
    }
    values = {name: values[name] for name in units}
    return values, units, notes, outcomes + traced, outcomes[:n] + traced[:n], summary


def main(argv=None) -> int:
    args = parse_args(argv)
    speed.pin_to_one_cpu()
    src = ROOT / "src"
    if not (src / "qcollapse" / "__init__.py").is_file():
        print(f"perfbench: no qcollapse package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    work_dir = WORK / args.workload
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(args.workload, ROOT, work_dir)
    workload.warm_up(args.seed)
    setup_here = time.perf_counter() - PROCESS_START
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    machine = report.machine(args.seed)
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    measure = traced_run if args.trace else end_to_end_run
    values, units, notes, checked, first_rounds, summary = measure(workload, args, setup_here)
    n = len(workload.worlds)
    digest = run_digest(first_rounds)
    gate_errors = []
    replay = [workload.run(i, args.seed) for i in range(DIGEST_ROUNDS * n)]
    if run_digest(replay) != digest:
        gate_errors.append("replaying the first rounds gave different outputs")
    gate_errors += [o.gate_error for o in checked + replay if o.gate_error]
    store_error = report.check_stored_digest(
        RESULTS, f"{args.workload}|{args.seed}|{report.code_hash(ROOT)}", digest)
    if store_error:
        gate_errors.append(store_error)

    for name, value in values.items():
        note = notes.get(name)
        print(f"  {name} = {value:.6g} {units[name]}" + (f"  [{note}]" if note else ""))
    print(f"digest={digest} (first {DIGEST_ROUNDS} rounds, {DIGEST_ROUNDS * n} requests)")
    for err in gate_errors:
        print(f"CHECK FAILED: {err}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    result = {"correct": not gate_errors, "attempted": len(checked),
              "failed": sum(not o.ok for o in checked), "metrics": metrics}
    report.write_json(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", {
        **result, "workload": args.workload, "seconds": args.seconds, "machine": machine,
        "digest": digest, "gate_errors": gate_errors, "notes": notes,
        "trace_summary": summary,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
