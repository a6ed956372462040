"""Command line front end.

Reads a YAML config, runs one of the four generation modes and writes the
requested artifacts.  Exit codes: 0 success, 2 config or validation problem,
3 conflict or restart exhaustion, 4 a resource cap was exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .classic import _start, cwfc_generate
from .config import MODES, RunConfig, load_config
from .errors import (
    BudgetExceededError,
    CapacityError,
    ConfigError,
    ConflictError,
    GenerationError,
    RestartsExhaustedError,
)
from .framework import (
    RandomSource,
    _check_budget,
    exact_distribution_oracle,
    fixed_order_selector,
    ruleset_value_selector,
    with_restarts,
)
from .hybrid import _check_first_blocks, hwfc_exact_distribution, hwfc_generate
from .model import ContentInstance, Distribution, bits_per_value
from .quantum import (
    _check_index_qubits,
    build_circuit,
    exact_distribution,
    export_qasm,
    lower_to_gates,
    sample_shots,
    walked_state,
)

# Unused here; perfbench/layers.py wraps this name on this module.
from .quantum import simulate  # noqa: F401
from .render import FORMATS, render

_EXTENSIONS = {"ascii": "txt", "ppm": "ppm", "voxel-slices": "txt", "structured-dump": "txt"}

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONFLICT = 3
EXIT_CAPACITY = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcollapse",
        description="Pattern-based content generation: classical, circuit-based and hybrid.",
    )
    parser.add_argument("--config", required=True, type=Path, help="YAML config file")
    parser.add_argument("--mode", choices=MODES, help="override the configured mode")
    parser.add_argument("--seed", type=int, help="override the configured seed")
    parser.add_argument("--shots", type=int, help="override the configured shot count")
    parser.add_argument("--out", type=Path, help="directory for rendered artifacts")
    parser.add_argument("--format", choices=FORMATS, help="override the render format")
    parser.add_argument(
        "--export-qasm", action="store_true", help="also write the gate-level circuit as OpenQASM 3"
    )
    parser.add_argument(
        "--exact-dist", action="store_true", help="also write the exact instance distribution as JSON"
    )
    parser.add_argument(
        "--validate-only", action="store_true", help="check the config and exit without generating"
    )
    return parser


def _write(out: Path | None, name: str, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text, encoding="utf-8")


def _distribution_json(dist: Distribution) -> str:
    payload = {
        "segments": list(dist.segments),
        "n_values": dist.n_values,
        "probabilities": {str(k): p for k, p in sorted(dist.probs.items())},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _legend_json(config: RunConfig) -> str:
    payload = {
        "alphabet": [
            {"value": v, "name": config.alphabet.symbol(v).name}
            for v in range(1, config.alphabet.n_values + 1)
        ],
        "topology": {"type": config.topology.kind, **dict(config.topology.params)},
        "mode": config.mode,
        "seed": config.seed,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit_instances(config: RunConfig, instances: list[ContentInstance], out: Path | None) -> int:
    ext = _EXTENSIONS[config.output_format]
    violations = 0
    for i, instance in enumerate(instances):
        text = render(instance, config.alphabet, config.topology, config.output_format, config.scale)
        _write(out, f"{config.name}-{i:04d}.{ext}", text)
        if config.validator is not None:
            violations += len(config.validator(instance))
    return violations


def _check_flags(config: RunConfig, args) -> None:
    """Refuse the flags the configured mode cannot serve, an exact
    enumeration past its budget, a circuit past the int64 basis indices, a
    cwfc world that conflicts before any draw and an hwfc block whose
    interface is empty that conflicts or passes a cap, before anything is
    drawn."""
    if args.export_qasm and config.mode != "qwfc":
        raise ConfigError("--export-qasm only applies to mode 'qwfc' (one circuit per run)")
    if args.exact_dist and config.mode == "cwfc":
        raise ConfigError("--exact-dist is only available for qwfc, hwfc and oracle modes")
    if config.mode == "oracle" or (args.exact_dist and config.mode == "hwfc"):
        _check_budget(config.topology.adjacency.n_segments, config.alphabet.n_values)
    if config.mode == "qwfc":
        _check_index_qubits(len(config.order) * bits_per_value(config.alphabet.n_values))
    elif config.mode == "hwfc":
        adjacency, n_values = config.topology.adjacency, config.alphabet.n_values
        _check_first_blocks(adjacency, n_values, config.ruleset, config.partitioning)
    elif config.mode == "cwfc":
        _start(config.topology.adjacency, config.ruleset, config.alphabet.n_values)


def run(config: RunConfig, args, started: float) -> int:
    """Generate, write and summarise; ``wall_time`` counts from ``started``."""
    rng = RandomSource(config.seed)
    out: Path | None = args.out
    adjacency = config.topology.adjacency
    n = adjacency.n_segments
    n_values = config.alphabet.n_values
    restarts = 0
    qubits = None
    instances: list[ContentInstance] = []
    if args.exact_dist and config.mode == "hwfc":
        # enumerated before drawing: the budget, and a conflict on every branch, fail up front
        dist = hwfc_exact_distribution(adjacency, n_values, config.ruleset, config.partitioning)

    def bump():
        nonlocal restarts
        restarts += 1

    if config.mode == "cwfc":
        for _ in range(config.shots):
            instances.append(
                cwfc_generate(
                    adjacency,
                    config.alphabet,
                    config.ruleset,
                    rng,
                    config.max_restarts,
                    on_restart=bump,
                )
            )

    elif config.mode == "qwfc":
        circuit = build_circuit(adjacency, n_values, config.ruleset, config.order)
        qubits = circuit.layout.n_qubits
        state = walked_state(circuit)
        instances = sample_shots(state, circuit.layout, config.shots, rng)
        if args.exact_dist:
            _write(out, f"{config.name}-dist.json", _distribution_json(exact_distribution(state, circuit.layout)))
        if args.export_qasm:
            gates = lower_to_gates(circuit)
            _write(out, f"{config.name}.qasm", export_qasm(gates, circuit.layout))

    elif config.mode == "hwfc":
        assert config.partitioning is not None

        def attempt():
            return hwfc_generate(adjacency, n_values, config.ruleset, config.partitioning, rng)

        for _ in range(config.shots):
            instances.append(with_restarts(attempt, config.max_restarts, bump))
        qubits = bits_per_value(n_values) * max(map(len, config.partitioning.blocks))
        if args.exact_dist:
            _write(out, f"{config.name}-dist.json", _distribution_json(dist))

    elif config.mode == "oracle":
        dist = exact_distribution_oracle(
            n,
            n_values,
            fixed_order_selector(config.order, n),
            ruleset_value_selector(adjacency, config.ruleset, n_values),
        )
        _write(out, f"{config.name}-dist.json", _distribution_json(dist))

    violations = _emit_instances(config, instances, out)
    if out is not None:
        _write(out, f"{config.name}-legend.json", _legend_json(config))

    elapsed = time.perf_counter() - started
    summary = [f"mode={config.mode}", f"seed={config.seed}", f"instances={len(instances)}"]
    if config.mode in ("cwfc", "hwfc"):
        summary.append(f"restarts={restarts}")
    if qubits is not None:
        summary.append(f"qubits={qubits}")
    if config.validator is not None and instances:
        summary.append(f"validator_violations={violations}")
    summary.append(f"wall_time={elapsed:.3f}s")
    print(" ".join(summary))
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        flags = {field: getattr(args, field) for field in ("mode", "seed", "shots", "format")}
        config = load_config(args.config, {k: v for k, v in flags.items() if v is not None})
        _check_flags(config, args)
        if args.validate_only:
            print(f"config ok: mode={config.mode} segments={config.topology.adjacency.n_segments}")
            return EXIT_OK
        return run(config, args, started)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (ConflictError, RestartsExhaustedError) as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_CONFLICT
    except (CapacityError, BudgetExceededError) as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except GenerationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
