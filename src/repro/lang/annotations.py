"""State annotations for Eden action functions.

The paper (Section 3.4.4, Figure 8) requires three kinds of type
annotations on the state an action function touches:

1. *Lifetime* — whether a variable lives for the duration of a packet, a
   message, or for as long as the function is installed (global).
2. *Access permissions* — read-only or read-write; these determine the
   concurrency level the enclave may use when invoking the function.
3. *Header mapping* — which packet-header field backs a packet-scoped
   variable (e.g. ``priority`` maps to the 802.1q priority code point).

In the paper these are .NET attributes on F# record types.  Here they are
plain declarative schema objects that the compiler consumes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple


class Lifetime(enum.Enum):
    """How long a piece of state outlives a single function invocation."""

    PACKET = "packet"
    MESSAGE = "message"
    GLOBAL = "global"


class AccessLevel(enum.Enum):
    """Access permission of the action function over a state variable."""

    READ_ONLY = "ro"
    READ_WRITE = "rw"


class FieldKind(enum.Enum):
    """Shape of a state variable as seen by the DSL."""

    INT = "int"
    ARRAY = "array"          # flat array of integers
    RECORD_ARRAY = "records"  # array of records with integer fields


@dataclass(frozen=True)
class Field:
    """A single named state variable within a scope.

    ``header_map`` only makes sense for packet-scoped fields and records
    the packet-header field that backs the variable, keyed by protocol
    (e.g. ``{"ipv4": "total_length"}``).

    ``record_fields`` is required when ``kind`` is ``RECORD_ARRAY`` and
    fixes the order (and thus heap layout) of the record's integer
    members.

    ``binder`` optionally overrides how the enclave runtime resolves the
    variable's value at invocation time.  It receives the packet view and
    the scope's backing store and returns the value (an int, or a sequence
    for arrays).  This is how per-packet keyed global state such as
    WCMP's ``pathMatrix[src, dst]`` is bound.
    """

    name: str
    access: AccessLevel = AccessLevel.READ_ONLY
    kind: FieldKind = FieldKind.INT
    header_map: Dict[str, str] = field(default_factory=dict)
    record_fields: Tuple[str, ...] = ()
    default: int = 0
    binder: Optional[Callable] = None

    def __post_init__(self) -> None:
        if self.kind is FieldKind.RECORD_ARRAY and not self.record_fields:
            raise ValueError(
                f"record array field {self.name!r} needs record_fields")
        if self.kind is not FieldKind.RECORD_ARRAY and self.record_fields:
            raise ValueError(
                f"field {self.name!r} is not a record array but has "
                f"record_fields")
        if self.kind is not FieldKind.INT and \
                self.access is AccessLevel.READ_WRITE and \
                self.binder is not None:
            raise ValueError(
                f"array field {self.name!r}: custom binders are only "
                f"supported for read-only arrays")

    @property
    def is_array(self) -> bool:
        return self.kind in (FieldKind.ARRAY, FieldKind.RECORD_ARRAY)

    @property
    def stride(self) -> int:
        """Heap words per element (1 for flat arrays)."""
        if self.kind is FieldKind.RECORD_ARRAY:
            return len(self.record_fields)
        return 1

    def record_offset(self, member: str) -> int:
        """Heap-word offset of ``member`` inside one record element."""
        try:
            return self.record_fields.index(member)
        except ValueError:
            raise KeyError(
                f"record array {self.name!r} has no member {member!r}; "
                f"members are {self.record_fields}") from None


class SchemaError(Exception):
    """A schema was declared inconsistently or a lookup failed."""


@dataclass(frozen=True)
class Schema:
    """An ordered collection of :class:`Field` bound to one lifetime.

    An action function takes up to three schemas — one per parameter
    (``packet``, ``msg``, ``_global``) — mirroring the three function
    arguments in the paper's Figure 7.
    """

    name: str
    lifetime: Lifetime
    fields: Tuple[Field, ...]

    def __post_init__(self) -> None:
        seen = set()
        for f in self.fields:
            if f.name in seen:
                raise SchemaError(
                    f"schema {self.name!r}: duplicate field {f.name!r}")
            seen.add(f.name)
        if self.lifetime is Lifetime.PACKET:
            for f in self.fields:
                if f.is_array:
                    raise SchemaError(
                        f"schema {self.name!r}: packet-scoped field "
                        f"{f.name!r} cannot be an array")

    def __hash__(self) -> int:     # a field's header_map is a dict
        return hash(self.name)

    def field_named(self, name: str) -> Field:
        for f in self.fields:
            if f.name == name:
                return f
        raise SchemaError(f"schema {self.name!r} has no field {name!r}")

    def has_field(self, name: str) -> bool:
        return any(f.name == name for f in self.fields)

    @property
    def field_names(self) -> Tuple[str, ...]:
        return tuple(f.name for f in self.fields)

    def writable_fields(self) -> Tuple[Field, ...]:
        return tuple(f for f in self.fields
                     if f.access is AccessLevel.READ_WRITE)


def schema(name: str, lifetime: Lifetime,
           fields: Sequence[Field]) -> Schema:
    """Convenience constructor mirroring the paper's annotated types."""
    return Schema(name=name, lifetime=lifetime, fields=tuple(fields))


#: The canonical packet schema used by the Eden enclave.  The header-map
#: entries mirror Figure 8 of the paper (e.g. ``size`` maps to the IPv4
#: TotalLength field, ``priority`` to the 802.1q priority code point).
DEFAULT_PACKET_SCHEMA = schema(
    "Packet", Lifetime.PACKET, [
        Field("size", AccessLevel.READ_ONLY,
              header_map={"ipv4": "total_length",
                          "ipv6": "payload_length"}),
        # Header fields are writable: "It can modify the packet
        # variable, thus allowing the function to change header
        # fields" (Section 3.4.2) — NAT-style functions depend on it.
        Field("src_ip", AccessLevel.READ_WRITE,
              header_map={"ipv4": "src"}),
        Field("dst_ip", AccessLevel.READ_WRITE,
              header_map={"ipv4": "dst"}),
        Field("src_port", AccessLevel.READ_WRITE,
              header_map={"tcp": "src_port"}),
        Field("dst_port", AccessLevel.READ_WRITE,
              header_map={"tcp": "dst_port"}),
        Field("proto", AccessLevel.READ_ONLY,
              header_map={"ipv4": "protocol"}),
        Field("priority", AccessLevel.READ_WRITE,
              header_map={"802.1q": "pcp"}),
        Field("path_id", AccessLevel.READ_WRITE,
              header_map={"802.1q": "vlan_id"}),
        Field("drop", AccessLevel.READ_WRITE),
        Field("to_controller", AccessLevel.READ_WRITE),
        Field("queue_id", AccessLevel.READ_WRITE),
        Field("charge", AccessLevel.READ_WRITE),
        Field("ecn", AccessLevel.READ_WRITE,
              header_map={"ipv4": "ecn"}),
        Field("tenant", AccessLevel.READ_ONLY),
    ])
