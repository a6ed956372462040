"""Which qcollapse functions are traced, the counters taken at each, and the
per-layer metrics derived from a trace summary.

Every wrap point is the name a caller looks up at call time: hwfc calls
``qcollapse.hybrid.build_circuit``, the CLI calls ``qcollapse.cli.render``,
the entropy scan calls ``qcollapse.classic.shannon_entropy``, and so on.
"""

from __future__ import annotations

import numpy as np

from qcollapse import classic, cli, framework, hybrid, model, quantum

# (module, attribute, span name); a span name may have several wrap points.
WRAP_POINTS = (
    (quantum, "build_circuit", "quantum.build_circuit"),
    (hybrid, "build_circuit", "quantum.build_circuit"),
    (cli, "build_circuit", "quantum.build_circuit"),
    (quantum, "simulate", "quantum.simulate"),
    (hybrid, "simulate", "quantum.simulate"),
    (cli, "simulate", "quantum.simulate"),
    (quantum, "exact_distribution", "quantum.exact_distribution"),
    (hybrid, "exact_distribution", "quantum.exact_distribution"),
    (cli, "exact_distribution", "quantum.exact_distribution"),
    (quantum, "sample_shots", "quantum.sample_shots"),
    (hybrid, "sample_shots", "quantum.sample_shots"),
    (cli, "sample_shots", "quantum.sample_shots"),
    (hybrid, "hwfc_generate", "hybrid.hwfc_generate"),
    (cli, "hwfc_generate", "hybrid.hwfc_generate"),
    (classic, "cwfc_generate", "classic.cwfc_generate"),
    (cli, "cwfc_generate", "classic.cwfc_generate"),
    (classic, "shannon_entropy", "classic.shannon_entropy"),
    (classic, "generate", "framework.generate"),
    (classic, "value_distribution", "model.value_distribution"),
    (quantum, "value_distribution", "model.value_distribution"),
    (framework, "value_distribution", "model.value_distribution"),
    (cli, "render", "render.render"),
    (cli, "load_config", "config.load_config"),
)

VALIDATOR_SPAN = "usecases.validator"


def _arg(args, kwargs, position: int, name: str, default=None):
    if len(args) > position:
        return args[position]
    return kwargs.get(name, default)


def _after_build_circuit(tracer, args, kwargs, circuit) -> None:
    if circuit is None:
        return
    tracer.add("quantum.build_circuit.loads", len(circuit.loads))
    tracer.high("quantum.build_circuit.qubits_max", circuit.n_qubits)
    frozen = _arg(args, kwargs, 4, "frozen")
    if frozen is None:
        return
    # The interface is every frozen segment adjacent to the block; a block
    # depends on earlier blocks only through it.
    adjacency, ruleset, block = args[0], args[2], tuple(args[3])
    values = frozen.mapping
    interface = sorted(
        {
            (s, values[s])
            for seg in block
            for d in range(1, adjacency.n_directions + 1)
            for s in adjacency.neighbors(seg, d)
            if s in values
        }
    )
    tracer.add("hybrid.interface_compiles")
    key = (id(adjacency), id(ruleset), block, tuple(interface))
    if tracer.seen("hybrid.interface", key):
        tracer.add("hybrid.interface_repeats")


def _after_simulate(tracer, args, kwargs, psi) -> None:
    if psi is None:
        return
    n_qubits = args[0].n_qubits
    tracer.add("quantum.simulate.state_bytes", 16 << n_qubits)
    tracer.add("quantum.simulate.amplitudes", 1 << n_qubits)
    tracer.add("quantum.simulate.nonzero", int(np.count_nonzero(psi)))


def _after_sample_shots(tracer, args, kwargs, shots) -> None:
    if shots is not None:
        tracer.add("quantum.sample_shots.shots", len(shots))


def _after_value_distribution(tracer, args, kwargs, _probs) -> None:
    segment, adjacency, content, ruleset, n_values = args[:5]
    frozen = _arg(args, kwargs, 5, "frozen")
    signature = model.constraint_signature(
        segment, adjacency, content.mapping, frozen.mapping if frozen is not None else None
    )
    tracer.seen(
        "model.value_distribution.key",
        (id(adjacency), id(ruleset), n_values, segment, signature),
    )


def _after_render(tracer, args, kwargs, text) -> None:
    if text is not None:
        tracer.add("render.bytes", len(text.encode("utf-8")))


def _after_load_config(tracer, args, kwargs, config) -> None:
    if config is not None and config.validator is not None:
        config.validator = tracer.traced(config.validator, VALIDATOR_SPAN)


AFTER = {
    "quantum.build_circuit": _after_build_circuit,
    "quantum.simulate": _after_simulate,
    "quantum.sample_shots": _after_sample_shots,
    "model.value_distribution": _after_value_distribution,
    "render.render": _after_render,
    "config.load_config": _after_load_config,
}


def install(tracer) -> None:
    """Wrap every wrap point; undo with ``tracer.restore()``."""
    for module, attr, name in WRAP_POINTS:
        tracer.wrap(module, attr, name, AFTER.get(name))


# name -> unit of every per-layer metric, in report order.  "/req" values
# are totals over the traced requests divided by their number.
PER_LAYER_UNITS = {
    "quantum.build_circuit.time_s": "s/req",
    "quantum.build_circuit.calls": "1/req",
    "quantum.build_circuit.loads": "1/req",
    "quantum.build_circuit.qubits_max": "qubits",
    "quantum.simulate.time_s": "s/req",
    "quantum.simulate.state_bytes": "B/req",
    "quantum.simulate.support_ratio": "ratio",
    "quantum.exact_distribution.time_s": "s/req",
    "quantum.sample_shots.time_s": "s/req",
    "quantum.sample_shots.shots": "1/req",
    "hybrid.hwfc_generate.self_s": "s/req",
    "hybrid.blocks_per_instance": "blocks",
    "hybrid.conflicts": "1/req",
    "hybrid.interface_repeat_ratio": "ratio",
    "model.value_distribution.calls": "1/req",
    "model.value_distribution.time_s": "s/req",
    "model.value_distribution.reuse_ratio": "ratio",
    "classic.cwfc_generate.time_s": "s/req",
    "classic.shannon_entropy.calls": "1/req",
    "classic.shannon_entropy.self_s": "s/req",
    "classic.restarts": "1/req",
    "framework.generate.self_s": "s/req",
    "usecases.validator.time_s": "s/req",
    "render.render.time_s": "s/req",
    "render.bytes": "B/req",
    "config.load_config.time_s": "s/req",
    "cli.import_s": "s",
    "cli.interpreter_s": "s",
    "trace.counters_s": "s/req",
    "trace.overhead_pct": "%",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(summary: dict, n_requests: int) -> dict[str, float]:
    """Per-layer values derived from a trace summary of ``n_requests``
    requests (all names of PER_LAYER_UNITS except the cli.* and
    trace.overhead_pct ones, which are measured outside the trace)."""
    spans, edges = summary["spans"], summary["edges"]
    counters, maxima = summary["counters"], summary["maxima"]
    per = lambda x: x / n_requests

    def span(name: str, field: str) -> float:
        return spans.get(name, {}).get(field, 0)

    hwfc_calls = span("hybrid.hwfc_generate", "calls")
    cwfc_calls = span("classic.cwfc_generate", "calls")
    vd_calls = span("model.value_distribution", "calls")
    return {
        "quantum.build_circuit.time_s": per(span("quantum.build_circuit", "total_s")),
        "quantum.build_circuit.calls": per(span("quantum.build_circuit", "calls")),
        "quantum.build_circuit.loads": per(counters.get("quantum.build_circuit.loads", 0)),
        "quantum.build_circuit.qubits_max": maxima.get("quantum.build_circuit.qubits_max", 0),
        "quantum.simulate.time_s": per(span("quantum.simulate", "total_s")),
        "quantum.simulate.state_bytes": per(counters.get("quantum.simulate.state_bytes", 0)),
        "quantum.simulate.support_ratio": _ratio(
            counters.get("quantum.simulate.nonzero", 0),
            counters.get("quantum.simulate.amplitudes", 0),
        ),
        "quantum.exact_distribution.time_s": per(span("quantum.exact_distribution", "total_s")),
        "quantum.sample_shots.time_s": per(span("quantum.sample_shots", "total_s")),
        "quantum.sample_shots.shots": per(counters.get("quantum.sample_shots.shots", 0)),
        "hybrid.hwfc_generate.self_s": per(span("hybrid.hwfc_generate", "self_s")),
        "hybrid.blocks_per_instance": _ratio(
            edges.get("hybrid.hwfc_generate>quantum.build_circuit", 0), hwfc_calls
        ),
        "hybrid.conflicts": per(
            spans.get("hybrid.hwfc_generate", {}).get("errors", {}).get("ConflictError", 0)
        ),
        "hybrid.interface_repeat_ratio": _ratio(
            counters.get("hybrid.interface_repeats", 0),
            counters.get("hybrid.interface_compiles", 0),
        ),
        "model.value_distribution.calls": per(vd_calls),
        "model.value_distribution.time_s": per(span("model.value_distribution", "total_s")),
        "model.value_distribution.reuse_ratio": _ratio(
            vd_calls, counters.get("model.value_distribution.key.distinct", 0)
        ),
        "classic.cwfc_generate.time_s": per(span("classic.cwfc_generate", "total_s")),
        "classic.shannon_entropy.calls": per(span("classic.shannon_entropy", "calls")),
        "classic.shannon_entropy.self_s": per(span("classic.shannon_entropy", "self_s")),
        # Every cwfc attempt runs framework.generate once; the first is not a restart.
        "classic.restarts": per(
            edges.get("classic.cwfc_generate>framework.generate", 0) - cwfc_calls
        ),
        "framework.generate.self_s": per(span("framework.generate", "self_s")),
        "usecases.validator.time_s": per(span(VALIDATOR_SPAN, "total_s")),
        "render.render.time_s": per(span("render.render", "total_s")),
        "render.bytes": per(counters.get("render.bytes", 0)),
        "config.load_config.time_s": per(span("config.load_config", "total_s")),
        "trace.counters_s": per(span("trace.counters", "total_s")),
    }
