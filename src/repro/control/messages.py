"""Typed control-plane messages exchanged between controller and enclaves.

The paper's controller "programs stages and enclaves" over the network
(Section 3.2); this module is the wire protocol for that traffic.  Every
configuration-bearing message carries the *epoch* of the per-enclave
desired state it was computed from — a monotonically increasing version
number the controller bumps on every configuration change for that
host.  Enclave agents reject any configuration message whose epoch is
lower than the last one they applied (``Nack`` with reason
``stale-epoch``), which makes reordered or replayed installs fail
deterministically instead of silently rolling a host backwards.

A :class:`ConfigBatch` carries several configuration messages — one
host's ops for one rollout wave, or its rollback to a snapshot —
that the agent applies in one event, whole or not at all.  Each op in
it keeps the epoch the controller bumped it to, and the batch carries
the epoch after its last op, so a host's epoch counts ops whether
they travel alone or batched.

Messages travel inside an :class:`Envelope` added by the channel layer
(:mod:`repro.control.channel`): ``(src, dst, session, seq)``.  The
session number identifies one incarnation of a sender→receiver stream;
it is bumped on reconnect/restart so that retransmits from a dead
incarnation are discarded.  Payloads are plain Python objects — the
simulated network is in-process, so "serialization" is nominal, but
every payload is a frozen dataclass to keep the protocol explicit.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple


class ControlError(Exception):
    """A control-plane operation failed."""


#: Nack reason used for deterministic stale-epoch rejection.
STALE_EPOCH = "stale-epoch"


@dataclass(frozen=True)
class ControlMessage:
    """Base class for all control-plane payloads."""


@dataclass(frozen=True)
class ConfigMessage(ControlMessage):
    """Base for configuration-bearing (epoch-checked) messages."""

    host: str
    epoch: int


@dataclass(frozen=True)
class FunctionMessage(ConfigMessage):
    """Base for the messages that carry a program to an enclave.

    ``program`` is the :class:`~repro.lang.compiler.CompiledAction`
    the controller compiled — bytecode plus schemas, which the enclave
    verifies and binds, never compiles.  A hand-built message may
    carry action source instead (also accepted as ``source_fn=``); the
    enclave then compiles it itself.  ``kwargs`` are binding options
    (``backend``, ``commit_packet_writes``), plus the compile options
    when the message carries source.
    """

    name: str = ""
    program: object = None
    kwargs: Mapping[str, object] = field(default_factory=dict)
    source_fn: InitVar[object] = None

    def __post_init__(self, source_fn: object) -> None:
        if source_fn is not None:
            object.__setattr__(self, "program", source_fn)


@dataclass(frozen=True)
class InstallFunction(FunctionMessage):
    """Install an action function at the enclave.

    Re-delivery after a partition or replay after an enclave restart
    must converge, so agents treat an install of an already-present
    function as a state-preserving replace — the message is idempotent.
    """


@dataclass(frozen=True)
class ReplaceFunction(FunctionMessage):
    """Hot-swap an installed function's program (Section 3.4.3)."""


@dataclass(frozen=True)
class RemoveFunction(ConfigMessage):
    """Uninstall a function from the enclave.

    Used by rollbacks that must retire a function installed by an
    abandoned wave.  Removing an absent function is a no-op, so
    retransmits and replays converge.  The sender is responsible for
    retiring the function's rules first (a wholesale
    :class:`UpdateRules` without them) — an enclave refuses to drop a
    function that live rules still reference.
    """

    name: str = ""


@dataclass(frozen=True)
class RuleSpec:
    """One desired match-action rule (the controller's view)."""

    pattern: str
    function: str
    table_id: int = 0
    priority: int = 0
    next_table: Optional[int] = None


@dataclass(frozen=True)
class InstallRule(ConfigMessage):
    """Append one match-action rule; the Ack carries the rule id."""

    rule: RuleSpec = None  # type: ignore[assignment]


@dataclass(frozen=True)
class UpdateRules(ConfigMessage):
    """Replace the enclave's entire rule set with ``rules``.

    Used for bulk updates and for desired-state replay after an
    enclave restart; applying it twice yields the same tables.
    """

    rules: Tuple[RuleSpec, ...] = ()


#: ``kind`` values understood by :class:`UpdateGlobals`.
GLOBAL_SCALAR = "scalar"
GLOBAL_ARRAY = "array"
GLOBAL_RECORDS = "records"
GLOBAL_KEYED = "keyed"


@dataclass(frozen=True)
class UpdateGlobals(ConfigMessage):
    """Set one global of one installed function.

    ``kind`` selects the enclave API used (``set_global`` /
    ``set_global_array`` / ``set_global_records`` /
    ``set_global_keyed``); ``key`` is only meaningful for keyed
    arrays.  Last-writer-wins per ``(function, name, kind, key)``.
    """

    function: str = ""
    name: str = ""
    kind: str = GLOBAL_SCALAR
    key: Optional[tuple] = None
    values: object = None


@dataclass(frozen=True)
class ConfigBatch(ConfigMessage):
    """Several config messages for one host, applied as one.

    The agent applies ``ops`` in order in one event, so no packet sees
    a configuration between two of them.  If it refuses one, it undoes
    the ops already applied, keeps its applied epoch, and Nacks with
    the refused op's index.  ``epoch`` is the epoch after the last op
    (each op carries its own); the stale-epoch check reads it.  The
    Ack's ``result`` is the tuple of the ops' results.
    """

    ops: Tuple[ConfigMessage, ...] = ()


@dataclass(frozen=True)
class Hello(ControlMessage):
    """Agent → controller: I (re)connected; replay my desired state.

    ``applied_epoch`` is what the agent currently has (0 after a
    restart that lost soft state), so the controller can log how far
    back the host fell.
    """

    host: str = ""
    applied_epoch: int = 0


@dataclass(frozen=True)
class StatsReport(ControlMessage):
    """Agent → controller: the agent's state at ``at_ns``.

    Pushed best-effort on the agent's report timer when it has
    something to sample or something changed (an idle agent still
    sends one every heartbeat), and carried on every :class:`Ack` of
    a config message once reporting is on — built when that Ack is
    sent, with ``telemetry`` empty.

    ``stats`` is the enclave's per-function counter summary;
    ``telemetry`` carries named observation feeds (e.g.
    ``flow_sizes`` samples for PIAS threshold recomputation,
    ``path_capacity`` rows for WCMP re-weighting); ``registry``
    carries the host's metric-registry snapshot
    (:meth:`repro.telemetry.registry.MetricRegistry.snapshot`) when
    the host runs with telemetry enabled — empty otherwise.
    ``health`` carries agent-local health signals (e.g. enclave fault
    counters, app-level probes) consumed by rollout health gates
    (:mod:`repro.fleet.health`); empty when no health source is set.
    """

    host: str = ""
    at_ns: int = 0
    applied_epoch: int = 0
    stats: Mapping[str, Mapping[str, int]] = field(default_factory=dict)
    telemetry: Mapping[str, object] = field(default_factory=dict)
    registry: Mapping[str, object] = field(default_factory=dict)
    health: Mapping[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Ack(ControlMessage):
    """Receiver → sender: message ``(session, seq)`` was processed.

    ``result`` carries the operation's return value (e.g. the rule id
    of an :class:`InstallRule`, the installed function object).
    ``report`` is the sending agent's :class:`StatsReport`, built when
    this Ack was sent, once the agent reports; ``None`` otherwise.  A
    re-ack of a duplicate builds a fresh one.
    """

    session: int = 0
    seq: int = 0
    result: object = None
    report: Optional[StatsReport] = None


@dataclass(frozen=True)
class Nack(ControlMessage):
    """Receiver → sender: message ``(session, seq)`` was rejected.

    ``reason`` is a short machine-checkable string (see
    :data:`STALE_EPOCH`); ``error`` optionally carries the exception
    the apply raised, so synchronous (inproc) callers can re-raise it.
    ``op_index`` is the position of the op the agent refused in a
    :class:`ConfigBatch` (0 for a bare config message); ``None`` when
    no op was refused.
    """

    session: int = 0
    seq: int = 0
    reason: str = ""
    error: Optional[BaseException] = None
    op_index: Optional[int] = None


@dataclass
class Envelope:
    """Channel-layer wrapper around one payload.

    ``seq`` is a per-(sender, session) sequence number for reliable
    messages, or ``-1`` for fire-and-forget traffic (acks, telemetry).
    """

    src: str
    dst: str
    session: int
    seq: int
    payload: ControlMessage

    @property
    def reliable(self) -> bool:
        return self.seq >= 0

    def describe(self) -> str:
        return (f"{type(self.payload).__name__} "
                f"{self.src}->{self.dst} s{self.session}#{self.seq}")
