"""What a rollout installs: an ordered list of control-plane ops.

A :class:`FleetProgram` is the fleet-wide analogue of one host's
desired-state delta — an ordered sequence of operations (install
function, set globals, install rules, ...) applied identically to
every host of a wave through the :class:`~repro.control.plane.
ControlPlane`.  ``apply`` sends a host its ops as one message, a
:class:`~repro.control.messages.ConfigBatch` (a program of one op
goes bare), and returns its one :class:`~repro.control.channel.
PendingSend`, which the orchestrator tracks to Ack-completion.  The
host's agent applies the batch in one event, whole or not at all, so
no packet sees a half-applied program.  Each op still bumps the
host's epoch, and the batch carries the epoch after its last op: a
host's epoch counts ops, so an op sent at any earlier epoch — say,
before a restart — stays stale.

Values may be host-dependent (an attacker-side spoof guard needs each
host's *own* IP): wrap them in :class:`PerHost` and they are resolved
at apply time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Mapping, Optional, Sequence


class ProgramError(Exception):
    """A fleet program was malformed."""


@dataclass(frozen=True)
class PerHost:
    """A program value resolved per host at apply time."""

    fn: Callable[[str], object]

    def resolve(self, host: str) -> object:
        return self.fn(host)


def _resolve(value, host: str):
    if isinstance(value, PerHost):
        return value.resolve(host)
    return value


@dataclass(frozen=True)
class FleetOp:
    """Base class for one control-plane operation."""

    def apply(self, plane, host: str):
        """Call the plane for this op; returns what the call does."""
        raise NotImplementedError


@dataclass(frozen=True)
class InstallFunctionOp(FleetOp):
    name: str
    source_fn: object
    kwargs: Mapping[str, object] = field(default_factory=dict)

    def apply(self, plane, host: str):
        return plane.install_function(host, self.name,
                                      self.source_fn,
                                      **dict(self.kwargs))


@dataclass(frozen=True)
class ReplaceFunctionOp(FleetOp):
    name: str
    source_fn: object
    kwargs: Mapping[str, object] = field(default_factory=dict)

    def apply(self, plane, host: str):
        return plane.replace_function(host, self.name,
                                      self.source_fn,
                                      **dict(self.kwargs))


@dataclass(frozen=True)
class RemoveFunctionOp(FleetOp):
    name: str

    def apply(self, plane, host: str):
        return plane.remove_function(host, self.name)


@dataclass(frozen=True)
class InstallRuleOp(FleetOp):
    pattern: str
    function: str
    table_id: int = 0
    priority: int = 0
    next_table: Optional[int] = None

    def apply(self, plane, host: str):
        return plane.install_rule(host, self.pattern, self.function,
                                  table_id=self.table_id,
                                  priority=self.priority,
                                  next_table=self.next_table)


@dataclass(frozen=True)
class SetGlobalOp(FleetOp):
    """Scalar / array / records / keyed global write.

    ``kind`` mirrors :mod:`repro.control.messages` global kinds;
    ``value`` (and ``key``) may be :class:`PerHost`.
    """

    function: str
    name: str
    kind: str = "scalar"
    key: object = None
    value: object = None

    def apply(self, plane, host: str):
        value = _resolve(self.value, host)
        key = _resolve(self.key, host)
        if self.kind == "scalar":
            return plane.set_global(host, self.function, self.name,
                                    value)
        if self.kind == "array":
            return plane.set_global_array(host, self.function,
                                          self.name, value)
        if self.kind == "records":
            return plane.set_global_records(host, self.function,
                                            self.name, value)
        if self.kind == "keyed":
            return plane.set_global_keyed(host, self.function,
                                          self.name, key, value)
        raise ProgramError(f"unknown global kind {self.kind!r}")


class FleetProgram:
    """Ordered ops applied to each host of a wave."""

    def __init__(self, ops: Sequence[FleetOp],
                 name: str = "program") -> None:
        if not ops:
            raise ProgramError("a fleet program needs at least one op")
        self.ops: List[FleetOp] = list(ops)
        self.name = name

    def apply(self, plane, host: str):
        """Push every op to ``host`` as one send; returns its
        :class:`~repro.control.channel.PendingSend`."""
        with plane.batch(host) as batch:
            for op in self.ops:
                op.apply(plane, host)
        return batch.pending

    def __len__(self) -> int:
        return len(self.ops)

    # -- fluent builders ---------------------------------------------------

    @classmethod
    def build(cls, name: str = "program") -> "ProgramBuilder":
        return ProgramBuilder(name)


class ProgramBuilder:
    """Small fluent helper for composing programs."""

    def __init__(self, name: str = "program") -> None:
        self.name = name
        self._ops: List[FleetOp] = []

    def install_function(self, name: str, source_fn,
                         **kwargs) -> "ProgramBuilder":
        self._ops.append(InstallFunctionOp(name, source_fn,
                                           dict(kwargs)))
        return self

    def replace_function(self, name: str, source_fn,
                         **kwargs) -> "ProgramBuilder":
        self._ops.append(ReplaceFunctionOp(name, source_fn,
                                           dict(kwargs)))
        return self

    def remove_function(self, name: str) -> "ProgramBuilder":
        self._ops.append(RemoveFunctionOp(name))
        return self

    def install_rule(self, pattern: str, function: str,
                     table_id: int = 0, priority: int = 0,
                     next_table: Optional[int] = None,
                     ) -> "ProgramBuilder":
        self._ops.append(InstallRuleOp(pattern, function, table_id,
                                       priority, next_table))
        return self

    def set_global(self, function: str, name: str,
                   value) -> "ProgramBuilder":
        self._ops.append(SetGlobalOp(function, name, "scalar",
                                     None, value))
        return self

    def set_global_array(self, function: str, name: str,
                         values) -> "ProgramBuilder":
        self._ops.append(SetGlobalOp(function, name, "array",
                                     None, values))
        return self

    def set_global_records(self, function: str, name: str,
                           records) -> "ProgramBuilder":
        self._ops.append(SetGlobalOp(function, name, "records",
                                     None, records))
        return self

    def set_global_keyed(self, function: str, name: str, key,
                         values) -> "ProgramBuilder":
        self._ops.append(SetGlobalOp(function, name, "keyed",
                                     key, values))
        return self

    def done(self) -> FleetProgram:
        return FleetProgram(self._ops, name=self.name)
