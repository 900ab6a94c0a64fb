"""Canonical node taxonomy for streaming task graphs.

The paper (Section 3.1) distinguishes six kinds of canonical nodes:

* **computational** nodes, further classified by their production rate
  ``R(v) = O(v) / I(v)``:

  - *element-wise* nodes (``R = 1``), e.g. vector addition, Hadamard
    product, activation functions;
  - *downsampler* nodes (``R < 1``), e.g. reductions, pooling;
  - *upsampler* nodes (``R > 1``), e.g. replication, concatenation;

* **buffer** nodes, passive memory components that store all their input
  before re-emitting it (possibly multiple times / reshaped) — streaming
  cannot cross a buffer node, and buffer nodes are never scheduled on a
  processing element;

* **source** nodes, which read their output from global memory, and
  **sink** nodes, which store their input to global memory.

A node is *canonical* when it receives the same amount of data from every
input edge and produces the same amount of data on every output edge.  We
therefore store the per-edge input volume ``I(v)`` and per-edge output
volume ``O(v)`` directly on the node.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Hashable

__all__ = [
    "CanonicalityError",
    "NodeKind",
    "NodeSpec",
    "check_node",
    "classify_rate",
    "COMPUTATIONAL_KINDS",
    "PASSIVE_KINDS",
]


class NodeKind(enum.Enum):
    """The canonical node kinds of Section 3.1."""

    ELEMENTWISE = "elementwise"
    DOWNSAMPLER = "downsampler"
    UPSAMPLER = "upsampler"
    BUFFER = "buffer"
    SOURCE = "source"
    SINK = "sink"

    # Enum's ``__hash__`` is a Python-level ``hash(self._name_)``; members
    # compare by identity, so the identity hash is equivalent and runs in
    # C (every kind-set test and kind-keyed lookup pays it per node)
    __hash__ = object.__hash__

    @property
    def is_computational(self) -> bool:
        """True for nodes that occupy a processing element when scheduled."""
        return self in COMPUTATIONAL_KINDS

    @property
    def is_passive(self) -> bool:
        """True for buffer/source/sink nodes (no PE, no rate constraint)."""
        return self in PASSIVE_KINDS


COMPUTATIONAL_KINDS = frozenset(
    {NodeKind.ELEMENTWISE, NodeKind.DOWNSAMPLER, NodeKind.UPSAMPLER}
)
PASSIVE_KINDS = frozenset({NodeKind.BUFFER, NodeKind.SOURCE, NodeKind.SINK})


def classify_rate(input_volume: int, output_volume: int) -> NodeKind:
    """Classify a computational node from its per-edge I/O volumes.

    ``R = O/I``; R == 1 is element-wise, R < 1 a downsampler, R > 1 an
    upsampler (Section 3.1).
    """
    if input_volume <= 0:
        raise ValueError(
            f"computational nodes need input_volume > 0, got {input_volume}"
        )
    if output_volume <= 0:
        raise ValueError(
            f"computational nodes need output_volume > 0, got {output_volume}"
        )
    if output_volume == input_volume:
        return NodeKind.ELEMENTWISE
    if output_volume < input_volume:
        return NodeKind.DOWNSAMPLER
    return NodeKind.UPSAMPLER


class CanonicalityError(ValueError):
    """Raised when a graph violates the canonical task graph rules."""


def check_node(
    name: Hashable, kind: NodeKind, input_volume: int, output_volume: int
) -> None:
    """The per-node rules of Section 3.1, for :class:`NodeSpec` and the
    wire ingest alike: int (not bool), non-negative volumes; the kind a
    computational node's rate implies; ``I == 0 < O`` for a source,
    ``O == 0 < I`` for a sink, positive ``I`` and ``O`` for a buffer.
    Raises ``ValueError``."""
    if type(input_volume) is not int or type(output_volume) is not int:
        raise ValueError(
            f"node {name!r}: volumes must be integers, got "
            f"I={input_volume!r}, O={output_volume!r}"
        )
    if input_volume < 0 or output_volume < 0:
        raise ValueError("volumes must be non-negative")
    if kind in COMPUTATIONAL_KINDS:
        expected = classify_rate(input_volume, output_volume)
        if expected is not kind:
            raise ValueError(
                f"node {name!r}: volumes I={input_volume}, "
                f"O={output_volume} imply {expected.value}, "
                f"not {kind.value}"
            )
    elif kind is NodeKind.SOURCE:
        if input_volume != 0:
            raise ValueError(f"source {name!r} must have I(v) == 0")
        if output_volume <= 0:
            raise ValueError(f"source {name!r} must have O(v) > 0")
    elif kind is NodeKind.SINK:
        if output_volume != 0:
            raise ValueError(f"sink {name!r} must have O(v) == 0")
        if input_volume <= 0:
            raise ValueError(f"sink {name!r} must have I(v) > 0")
    elif kind is NodeKind.BUFFER:
        if input_volume <= 0 or output_volume <= 0:
            raise ValueError(
                f"buffer {name!r} must have positive I(v) and O(v)"
            )


@dataclass(frozen=True)
class NodeSpec:
    """Immutable description of one canonical node.

    Attributes
    ----------
    name:
        Hashable node identifier (unique within a graph).
    kind:
        The :class:`NodeKind`.
    input_volume:
        ``I(v)`` — elements received *from each* input edge.  Zero for
        sources (they read from global memory instead).
    output_volume:
        ``O(v)`` — elements produced *to each* output edge.  Zero for
        sinks (they write to global memory instead).
    label:
        Optional human-readable label (e.g. the operator it came from).
    """

    name: Hashable
    kind: NodeKind
    input_volume: int = 0
    output_volume: int = 0
    label: str = ""
    metadata: dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        check_node(self.name, self.kind, self.input_volume, self.output_volume)

    @property
    def production_rate(self) -> Fraction:
        """``R(v) = O(v) / I(v)`` as an exact rational.

        Sinks have rate 0 (paper convention); sources have no production
        rate, for which we raise.
        """
        if self.kind is NodeKind.SOURCE:
            raise ValueError("source nodes have no production rate")
        if self.kind is NodeKind.SINK:
            return Fraction(0)
        return Fraction(self.output_volume, self.input_volume)

    @property
    def work(self) -> int:
        """``W(v) = max(I(v), O(v))`` (Section 4.2) — ideal isolated time.

        Passive nodes (buffer/source/sink) carry no schedulable work: they
        are memory components, their data movement time is accounted for in
        the computational nodes reading/writing them.
        """
        if self.kind in PASSIVE_KINDS:
            return 0
        return max(self.input_volume, self.output_volume)
