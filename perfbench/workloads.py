"""The benchmark's workloads: the worlds each one runs and how one request
on a world is made, checked and encoded for the output digest.

A request's inputs come only from the workload seed and the request index
(see :func:`request_seed`), so a request gives the same output whenever it
runs.  Requests go round-robin over a workload's worlds; one pass over all
worlds is a round.

Why each workload exists and which layers it loads is recorded in
``BENCHMARK.json`` and ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from qcollapse import classic, hybrid, quantum
from qcollapse.errors import (
    BudgetExceededError,
    CapacityError,
    ConflictError,
    RestartsExhaustedError,
)
from qcollapse.framework import RandomSource
from qcollapse.hybrid import equal_blocks
from qcollapse.model import encode_values
from qcollapse.usecases import (
    checkerboard_usecase,
    hexmap_usecase,
    pipes_usecase,
    platformer_usecase,
    voxel_skyline_usecase,
)

import layers
import spans

# Documented ways for a request to fail; they count in the failed fraction.
EXPECTED_FAILURES = (ConflictError, RestartsExhaustedError, CapacityError, BudgetExceededError)

QWFC_SHOTS = 1000
# Restarts of a conflicting hwfc instance, and runs of a CLI process that
# exits 3 (conflict), before the request counts as failed.  Hexmap r=3 in
# 8 blocks conflicts on about one instance in ten.
HWFC_RESTARTS = 10
CLI_ATTEMPTS = 5
PROB_TOL = 1e-9
CLI_TIMEOUT_S = 120


def fingerprint(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def request_seed(seed: int, index: int, attempt: int = 0) -> int:
    """Seed of request ``index`` of a run with workload seed ``seed``, and
    of its later attempts, if the request is retried."""
    text = f"{seed}:{index}" if attempt == 0 else f"{seed}:{index}:{attempt}"
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass
class Outcome:
    """One request: wall time of the program's work, success, and the
    SHA-256 of the canonical encoding of its output.  ``gate_error`` is set
    when the output breaks an invariant no valid run can break (mass not
    summing to one, a shot outside the support, an undocumented exception
    or exit code); that makes the whole run incorrect."""

    seconds: float
    ok: bool
    reason: str
    digest: str
    gate_error: str | None = None
    # Wall time of each qcollapse process of a CLI request; empty for a
    # request made in this process.
    processes: tuple[float, ...] = ()

    @property
    def latencies(self) -> tuple[float, ...]:
        """The latency samples of this request: one per CLI process (a user
        waits for each), else the request's whole time."""
        return self.processes or (self.seconds,)


class World:
    """A use case at one size; ``validator`` is looked up per call so the
    tracer can wrap it."""

    def __init__(self, label: str, usecase, partitioning=None):
        self.label = label
        self.usecase = usecase
        self.adjacency = usecase.adjacency
        self.n_values = usecase.alphabet.n_values
        self.segments = tuple(range(1, self.adjacency.n_segments + 1))
        self.partitioning = partitioning if partitioning is not None else usecase.partitioning
        self.validator = usecase.validator

    def problems(self, instance) -> tuple[list[str], str | None]:
        """(validator violations, invariant breach or None) of one instance."""
        mapping = instance.mapping
        if tuple(sorted(mapping)) != self.segments:
            return [], f"{self.label}: instance covers {len(mapping)} of {len(self.segments)} segments"
        if not all(1 <= v <= self.n_values for v in mapping.values()):
            return [], f"{self.label}: value outside [1, {self.n_values}]"
        return self.validator(instance), None

    def key(self, instance) -> int:
        return encode_values(instance.mapping, self.segments, self.n_values)


# -- in-process requests ----------------------------------------------------


def hwfc_request(world: World, rng: RandomSource):
    """One hwfc instance; returns (instances, exact distribution or None).

    hwfc has no restart of its own.  A conflict is restarted from scratch
    with the next draws of the same generator, as ``cwfc_generate`` does,
    and the request fails only when HWFC_RESTARTS restarts all conflict.
    Every conflict still counts in ``hybrid.conflicts``, and its time in
    the request's latency."""
    for attempt in range(HWFC_RESTARTS + 1):
        try:
            instance = hybrid.hwfc_generate(
                world.adjacency, world.n_values, world.usecase.ruleset, world.partitioning, rng
            )
        except ConflictError:
            if attempt == HWFC_RESTARTS:
                raise RestartsExhaustedError(HWFC_RESTARTS) from None
            continue
        return [instance], None
    raise AssertionError("unreachable")


def cwfc_request(world: World, rng: RandomSource):
    instance = classic.cwfc_generate(
        world.adjacency, world.usecase.alphabet, world.usecase.ruleset, rng
    )
    return [instance], None


def qwfc_request(world: World, rng: RandomSource):
    """One circuit: compile, simulate, exact distribution, many shots."""
    circuit = quantum.build_circuit(
        world.adjacency, world.n_values, world.usecase.ruleset, world.usecase.order
    )
    psi = quantum.simulate(circuit)
    dist = quantum.exact_distribution(psi, circuit.layout)
    return quantum.sample_shots(psi, circuit.layout, QWFC_SHOTS, rng), dist


def check_distribution(world: World, dist, keys: list[int]) -> str | None:
    """Invariant breach of an exact distribution and the shots drawn from it."""
    mass = dist.total_mass()
    if abs(mass - 1.0) > PROB_TOL:
        return f"{world.label}: exact distribution sums to {mass!r}"
    outside = sum(1 for k in keys if k not in dist.probs)
    if outside:
        return f"{world.label}: {outside} shots outside the support"
    return None


class InProcessWorkload:
    """Requests made by calling qcollapse in this process."""

    def __init__(self, worlds: list[World], request):
        self.worlds = worlds
        self.request = request
        self.tracer = None
        self.labels = [world.label for world in worlds]

    def warm_up(self, seed: int) -> None:
        """One request per world on indices no timed request uses, so lazy
        compilation and the per-ruleset caches are filled before timing."""
        for j in range(len(self.worlds)):
            self.run(-1 - j, seed)

    def run(self, index: int, seed: int) -> Outcome:
        world = self.worlds[index % len(self.worlds)]
        rng = RandomSource(request_seed(seed, index))
        head = f"{index} {world.label}"
        started = time.perf_counter()
        try:
            instances, dist = self.request(world, rng)
            keys = [world.key(instance) for instance in instances]
            breach = None if dist is None else check_distribution(world, dist, keys)
            violations = 0
            for instance in dict(zip(keys, instances)).values():  # each distinct shot once
                found, problem = world.problems(instance)
                violations += len(found)
                breach = breach or problem
        except EXPECTED_FAILURES as exc:
            seconds = time.perf_counter() - started
            reason = type(exc).__name__
            return Outcome(seconds, False, reason, fingerprint(f"{head} failed {reason}"))
        except Exception as exc:  # an undocumented failure must not stop the run
            seconds = time.perf_counter() - started
            traceback.print_exc(file=sys.stderr)
            reason = type(exc).__name__
            return Outcome(seconds, False, reason, fingerprint(f"{head} error {reason}"),
                           f"{world.label}: unexpected {reason}: {exc}")
        seconds = time.perf_counter() - started
        record = f"{head} {' '.join(map(str, keys))}"
        if dist is not None:
            record += " support " + " ".join(map(str, sorted(dist.probs)))
        record = fingerprint(record)
        if breach is not None:
            return Outcome(seconds, False, "invariant", record, breach)
        if violations:
            return Outcome(seconds, False, "validator", record)
        return Outcome(seconds, True, "", record)

    def trace(self, indices, seed: int) -> list[Outcome]:
        """Run ``indices`` with every layer traced into ``self.tracer``, which
        lives as long as the workload, as the program's caches do."""
        if self.tracer is None:
            self.tracer = spans.Tracer()
        layers.install(self.tracer)
        for world in self.worlds:
            self.tracer.wrap(world, "validator", layers.VALIDATOR_SPAN)
        outcomes = []
        try:
            for index in indices:
                span = self.tracer.open("request")
                outcomes.append(self.run(index, seed))
                self.tracer.close(span)
        finally:
            self.tracer.restore()
        return outcomes

    def trace_summary(self) -> dict:
        return self.tracer.summary() if self.tracer is not None else spans.empty_summary()


# -- CLI requests -----------------------------------------------------------


def child_env(root: Path) -> dict[str, str]:
    """Environment for a child interpreter that imports qcollapse from src/."""
    env = dict(os.environ)
    parts = [str(root / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


class CliWorkload:
    """One ``qcollapse`` process per request, over every demo config.  A
    process that exits 3 (a conflict; the hexmap demo does so on some
    seeds) is run again with the next attempt's seed, as a user would, up
    to CLI_ATTEMPTS processes.  The request's time covers all of them; each
    process is one latency sample."""

    def __init__(self, root: Path, work_dir: Path):
        self.root = root
        self.work_dir = work_dir
        self.worlds = sorted((root / "demos" / "configs").glob("*.yaml"))
        if not self.worlds:
            raise FileNotFoundError(f"no demo configs under {root / 'demos' / 'configs'}")
        self.labels = [config.stem for config in self.worlds]
        self.env = child_env(root)
        self.summary = spans.empty_summary()

    def warm_up(self, seed: int) -> None:
        """Compile and cache the package's bytecode, as any earlier run would."""
        subprocess.run(
            [sys.executable, "-c", "import qcollapse.cli"],
            env=self.env, cwd=self.root, check=True, timeout=CLI_TIMEOUT_S,
        )

    def run(self, index: int, seed: int, traced: bool = False) -> Outcome:
        """One request; with ``traced``, each process runs under
        ``traced_cli.py`` and its trace summary is merged into ours."""
        config = self.worlds[index % len(self.worlds)]
        out = self.work_dir / "out"
        spans_out = self.work_dir / "spans.json"
        times = []
        for attempt in range(CLI_ATTEMPTS):
            shutil.rmtree(out, ignore_errors=True)
            args = ["--config", str(config),
                    "--seed", str(request_seed(seed, index, attempt)), "--out", str(out)]
            if traced:
                spans_out.unlink(missing_ok=True)
                command = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                           str(spans_out), *args]
            else:
                command = [sys.executable, "-m", "qcollapse.cli", *args]
            started = time.perf_counter()
            proc = subprocess.run(command, env=self.env, cwd=self.root, capture_output=True,
                                  text=True, timeout=CLI_TIMEOUT_S)
            times.append(time.perf_counter() - started)
            if traced and spans_out.is_file():
                spans.merge(self.summary, json.loads(spans_out.read_text()))
            if proc.returncode != 3:
                break
        outcome = self.check(index, config.stem, proc, out, sum(times), len(times))
        outcome.processes = tuple(times)
        return outcome

    @staticmethod
    def check(index: int, label: str, proc, out: Path, seconds: float,
              attempts: int = 1) -> Outcome:
        """Classify the last CLI process of a request and encode its artifacts."""
        lines = proc.stdout.strip().splitlines()
        summary = lines[-1] if lines else ""
        fields = dict(tok.split("=", 1) for tok in summary.split() if "=" in tok)
        fields.pop("wall_time", None)
        head = f"{index} {label} attempts={attempts} exit={proc.returncode} " + " ".join(
            f"{k}={v}" for k, v in sorted(fields.items())
        )
        artifacts = sorted(out.iterdir()) if out.is_dir() else []
        record = fingerprint("\n".join(
            [head] + [f"{p.name} {hashlib.sha256(p.read_bytes()).hexdigest()}" for p in artifacts]
        ))
        if proc.returncode == 3:  # documented: conflict or restarts exhausted, every attempt
            return Outcome(seconds, False, "exit 3", record)
        if proc.returncode != 0:
            err = proc.stderr.strip().splitlines()[-1:] or [""]
            return Outcome(seconds, False, f"exit {proc.returncode}", record,
                           f"{label}: exit {proc.returncode}: {err[0]}")
        if fields.get("mode") == "oracle":
            dists = [p for p in artifacts if p.name.endswith("-dist.json")]
            if not dists:
                return Outcome(seconds, False, "invariant", record,
                               f"{label}: oracle run wrote no distribution")
            probs = json.loads(dists[0].read_text())["probabilities"].values()
            mass = sum(probs)
            if abs(mass - 1.0) > PROB_TOL:
                return Outcome(seconds, False, "invariant", record,
                               f"{label}: distribution sums to {mass!r}")
            return Outcome(seconds, True, "", record)
        violations = fields.get("validator_violations")
        if violations is None:
            return Outcome(seconds, False, "invariant", record,
                           f"{label}: summary lacks validator_violations: {summary!r}")
        if violations != "0":
            return Outcome(seconds, False, "validator", record)
        return Outcome(seconds, True, "", record)

    def trace(self, indices, seed: int) -> list[Outcome]:
        """Run ``indices`` as traced CLI processes, merging their summaries."""
        return [self.run(index, seed, traced=True) for index in indices]

    def trace_summary(self) -> dict:
        return self.summary


# -- the workloads ----------------------------------------------------------


def hwfc_worlds() -> InProcessWorkload:
    # The acceptance suite's criterion-6 mix plus hexmap: many 10-16 qubit
    # block circuits, one shot each; hexmap r=3 in 8 blocks conflicts on
    # some instances, which are restarted (see hwfc_request).
    return InProcessWorkload([
        World("pipes-10x4", pipes_usecase(10, 4)),  # columns:10
        World("platformer-10x10", platformer_usecase(10, 10)),  # blocks:20
        World("voxels-4x4x4", voxel_skyline_usecase(4, 4, 4)),  # layers:4
        World("hexmap-r3", hexmap_usecase(3), equal_blocks(37, 8)),  # blocks:8
    ], hwfc_request)


def qwfc_exact() -> InProcessWorkload:
    # One whole-world circuit per request.  Voxels 3x3x2 has a large support
    # (19,683) drawn many times from one state; platformer 3x2 is an
    # 18-qubit state with 27 nonzero amplitudes.
    return InProcessWorkload([
        World("voxels-3x3x2", voxel_skyline_usecase(3, 3, 2)),
        World("voxels-2x2x5", voxel_skyline_usecase(2, 2, 5)),
        World("pipes-3x2", pipes_usecase(3, 2)),
        World("platformer-3x2", platformer_usecase(3, 2)),
    ], qwfc_request)


def cwfc_worlds() -> InProcessWorkload:
    # No circuit is built.  Hexmap, pipes and checkerboard have constant
    # weights, so value_distribution hits its cache; platformer has
    # functional weights, which bypass it.  The voxel skyline is left out:
    # cwfc breaks its validator on every instance (see
    # test_cwfc_voxel_skyline_breaks_its_validator).
    return InProcessWorkload([
        World("hexmap-r6", hexmap_usecase(6)),
        World("pipes-20x8", pipes_usecase(20, 8)),
        World("checkerboard-16x16", checkerboard_usecase(16, 16)),
        World("platformer-10x10", platformer_usecase(10, 10)),
    ], cwfc_request)


NAMES = ("hwfc-worlds", "qwfc-exact", "cwfc-worlds", "cli-demos")


def make(name: str, root: Path, work_dir: Path):
    if name == "hwfc-worlds":
        return hwfc_worlds()
    if name == "qwfc-exact":
        return qwfc_exact()
    if name == "cwfc-worlds":
        return cwfc_worlds()
    if name == "cli-demos":
        return CliWorkload(root, work_dir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
