"""Arithmetic and bookkeeping of the benchmark's results: percentiles,
metric names, the machine description and the stored results."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
from pathlib import Path

import numpy as np

# Metric names: a letter or digit, then letters, digits, "_", "." or "-".
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# name -> (unit, better) of every end-to-end metric, in report order.
END_TO_END = {
    "requests_per_s": ("1/s", "higher"),
    "request_ms.p50": ("ms", "lower"),
    "request_ms.p90": ("ms", "lower"),
    "ok_fraction": ("fraction", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def percentile(samples: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default), q in [0, 1]."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def harrell_davis(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density.  For a tail
    quantile of a few dozen samples it varies far less from run to run than
    the one or two order statistics a plain percentile rests on."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n == 0:
        raise ValueError("quantile of no samples")
    if n == 1:
        return float(x[0])
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    grid = np.linspace(0.0, 1.0, 100_001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(weights @ x)


def latency_summary(samples_ms: list[float]) -> dict:
    """p50 and p90 with the sample count and how many samples lie beyond
    each; a percentile is well supported with at least ten beyond it."""
    out = {"n": len(samples_ms)}
    for label, q in (("p50", 0.5), ("p90", 0.9)):
        value = percentile(samples_ms, q)
        out[label] = value
        out[f"{label}_beyond"] = sum(1 for s in samples_ms if s > value)
    return out


def geometric_mean(values: list[float]) -> float:
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def request_values(outcomes, factors, n_worlds: int) -> tuple[dict, dict, dict]:
    """End-to-end values of a timed phase in reference-speed units, the same
    values in raw wall time, and the latency summaries behind them.

    ``outcomes`` are whole rounds, so outcome k ran on world k % n_worlds;
    ``factors`` holds each request's speed factor.  Throughput counts only
    requests that succeeded, over the time of all requests; latency covers
    every attempted request, failed ones at the time they took to fail, with
    one sample per CLI process of a request that was rerun.

    Worlds differ in cost by up to 10x, so a percentile of all requests
    pooled falls on the edge between two worlds and jumps from run to run.
    So p50 is each world's median combined as a geometric mean, which
    weighs a relative change of any world equally.  p90 is that p50 times
    the 90th percentile of every request's latency over its own world's
    median, pooled over worlds: the tail is measured on all requests at
    once, which leaves ten or more samples beyond it where a single world
    would have few.  That percentile is the Harrell-Davis estimate, which
    stays steady on workloads with only a few dozen requests in a run.
    """
    ok = sum(o.ok for o in outcomes)

    def summarize(scale):
        worlds = [
            [x * 1e3 * s for o, s in zip(outcomes[j::n_worlds], scale[j::n_worlds])
             for x in o.latencies]
            for j in range(n_worlds)
        ]
        per_world = [latency_summary(lat) for lat in worlds]
        pooled = [x / summary["p50"] for lat, summary in zip(worlds, per_world) for x in lat]
        relative = latency_summary(pooled)
        relative["p90_hd"] = harrell_davis(pooled, 0.9)
        p50 = geometric_mean([summary["p50"] for summary in per_world])
        values = {
            "requests_per_s": ok / math.fsum(o.seconds * s for o, s in zip(outcomes, scale)),
            "request_ms.p50": p50,
            "request_ms.p90": p50 * relative["p90_hd"],
            "ok_fraction": ok / len(outcomes),
        }
        return values, {"worlds": per_world, "relative": relative}

    values, latency = summarize(factors)
    raw, _ = summarize([1.0] * len(factors))
    return values, raw, latency


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


def machine(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "seed": seed,
    }


def code_hash(root: Path) -> str:
    """Hash of everything that decides a run's outputs: the package, the
    benchmark and the demo configs."""
    h = hashlib.sha256()
    files = sorted(
        [*root.glob("src/**/*.py"), *root.glob("perfbench/*.py"), *root.glob("demos/configs/*.yaml")]
    )
    for path in files:
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_stored_digest(results_dir: Path, key: str, digest: str) -> str | None:
    """Record ``digest`` under ``key``; an error if an earlier run stored a
    different one for the same key."""
    path = results_dir / "digests.json"
    stored = json.loads(path.read_text()) if path.is_file() else {}
    earlier = stored.get(key)
    if earlier is not None and earlier != digest:
        return f"output digest {digest[:16]} differs from {earlier[:16]} of an earlier run"
    stored[key] = digest
    write_json(path, stored)
    return None


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    os.replace(tmp, path)
