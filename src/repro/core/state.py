"""Enclave state management and the concurrency model.

Section 3.4.4: "The authoritative state is maintained in the enclave,
and the annotations determine the concurrency model for the action
functions."  This module holds that authoritative state —

* :class:`GlobalStore` — per-action-function global scalars and arrays,
  written by the controller (e.g. PIAS priority thresholds, WCMP path
  matrices, Pulsar queue maps);
* :class:`MessageStore` — per-message state created lazily on the first
  packet of a message and garbage-collected when the message ends;

— whose write scopes bound a program's admissible concurrency level
(:class:`ConcurrencyLevel`, derived from the bytecode by
:mod:`repro.lang.analysis`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, Iterable, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..lang.analysis import ConcurrencyLevel  # noqa: F401  (re-export)
from ..lang.annotations import AccessLevel, FieldKind, Schema
from ..lang.bytecode import wrap64


class StateError(Exception):
    """A state operation violated the schema or store invariants."""


class ArrayValue(list):
    """A global array as :class:`GlobalStore` holds and hands it out: a
    list that refuses in-place change.  What a reader holds (the
    generic tier, a binder, the controller) is what the store holds
    until a store write replaces it, so the heap image a hot plan
    binds (:meth:`GlobalStore.heap_image`) cannot go stale behind the
    store's back."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a global array is read-only; write it through "
                        "its GlobalStore")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = _refuse
    sort = reverse = _refuse


_NO_ARRAY = ArrayValue()
ScalarOrArray = Union[int, List[int], Dict[tuple, List[int]]]


class GlobalStore:
    """Authoritative global state of one action function.

    Scalars are plain ints.  Array fields hold either a flat list (for
    :attr:`FieldKind.ARRAY`) or a flattened record list (stride x
    elements, for :attr:`FieldKind.RECORD_ARRAY`).  Array fields may
    also be *keyed*: a dict of key -> array, resolved per packet by the
    field's ``binder`` — this is how WCMP's ``pathMatrix[src, dst]`` is
    expressed.

    Every array is an :class:`ArrayValue`: a write replaces it whole,
    and none changes in place.  A hot function that only reads
    arrays binds a heap image of them (:meth:`heap_image`) that every
    array write drops.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._scalars: Dict[str, int] = {}
        self._arrays: Dict[str, ArrayValue] = {}
        self._keyed: Dict[str, Dict[tuple, ArrayValue]] = {}
        self._images: Dict[Tuple[str, ...], tuple] = {}
        for f in schema.fields:
            if f.is_array:
                self._arrays[f.name] = _NO_ARRAY
            else:
                self._scalars[f.name] = f.default

    # -- controller-facing writes ----------------------------------------

    def set_scalar(self, name: str, value: int) -> None:
        f = self.schema.field_named(name)
        if f.is_array:
            raise StateError(f"{name} is an array; use set_array")
        self._scalars[name] = wrap64(value)

    def set_array(self, name: str,
                  values: Sequence[int]) -> None:
        f = self.schema.field_named(name)
        if not f.is_array:
            raise StateError(f"{name} is a scalar; use set_scalar")
        flat = ArrayValue(wrap64(v) for v in values)
        if len(flat) % f.stride:
            raise StateError(
                f"{name}: {len(flat)} values is not a multiple of "
                f"stride {f.stride}")
        self._arrays[name] = flat
        self._images.clear()

    def set_records(self, name: str,
                    records: Iterable[Sequence[int]]) -> None:
        """Set a record array from per-element tuples."""
        f = self.schema.field_named(name)
        if f.kind is not FieldKind.RECORD_ARRAY:
            raise StateError(f"{name} is not a record array")
        flat: List[int] = []
        for rec in records:
            if len(rec) != f.stride:
                raise StateError(
                    f"{name}: record {rec!r} has {len(rec)} members, "
                    f"expected {f.stride}")
            flat.extend(wrap64(v) for v in rec)
        self._arrays[name] = ArrayValue(flat)
        self._images.clear()

    def set_keyed_array(self, name: str, key: tuple,
                        values: Sequence[int]) -> None:
        """Set one key's slice of a keyed array (see class docstring)."""
        f = self.schema.field_named(name)
        if not f.is_array:
            raise StateError(f"{name} is a scalar")
        flat = ArrayValue(wrap64(v) for v in values)
        if len(flat) % f.stride:
            raise StateError(
                f"{name}: {len(flat)} values is not a multiple of "
                f"stride {f.stride}")
        self._keyed.setdefault(name, {})[key] = flat
        self._images.clear()

    def saved(self, name: str) -> tuple:
        """Field ``name`` as it is now — scalar, array and keyed
        slices — for :meth:`restore` to put back."""
        keyed = self._keyed.get(name)
        return (self._scalars.get(name), self._arrays.get(name),
                dict(keyed) if keyed is not None else None)

    def restore(self, name: str, saved: tuple) -> None:
        """Undo every write of ``name`` since :meth:`saved` returned
        ``saved``."""
        scalar, array, keyed = saved
        if scalar is not None:
            self._scalars[name] = scalar
        if array is not None:
            self._arrays[name] = array
        if keyed is None:
            self._keyed.pop(name, None)
        else:
            self._keyed[name] = keyed
        self._images.clear()

    # -- runtime reads/writes ----------------------------------------------

    def scalar(self, name: str) -> int:
        return self._scalars[name]

    def array(self, name: str) -> ArrayValue:
        return self._arrays[name]

    def keyed_array(self, name: str, key: tuple) -> ArrayValue:
        keyed = self._keyed.get(name)
        if keyed is None or key not in keyed:
            return _NO_ARRAY
        return keyed[key]

    def heap_image(self, names: Tuple[str, ...]
                   ) -> Tuple[List[int], Tuple[int, ...],
                              Tuple[int, ...]]:
        """``(heap, bases, words)``: the arrays ``names`` wrapped and
        laid end to end, the base and the word count of each.

        A hot plan reads this heap instead of copying the arrays per
        packet when its function neither writes nor binds any of them
        (``pycodegen.plan_for``).  Built on the first read after an
        array write and kept until the next one: every array writer
        here drops it.  A reader must not write into the heap.
        """
        image = self._images.get(names)
        if image is None:
            heap: List[int] = []
            bases = []
            for name in names:
                bases.append(len(heap))
                heap.extend(wrap64(v) for v in self._arrays[name])
            image = self._images[names] = (
                heap, tuple(bases),
                tuple(len(self._arrays[name]) for name in names))
        return image

    def commit_scalar(self, name: str, value: int) -> None:
        self._scalars[name] = wrap64(value)

    def commit_array(self, name: str, values: List[int]) -> None:
        self._arrays[name] = ArrayValue(values)
        self._images.clear()

    def snapshot(self) -> Dict[str, ScalarOrArray]:
        """A read-only copy of all state (for the controller's queries);
        a keyed array is a mapping of each key to its list."""
        out: Dict[str, ScalarOrArray] = dict(self._scalars)
        for name, arr in self._arrays.items():
            out[name] = list(arr)
        for name, keyed in self._keyed.items():
            out[name] = {key: list(arr) for key, arr in keyed.items()}
        return out


@dataclass
class MessageEntry:
    """State of one message for one action function."""

    values: Dict[str, int]
    created_at: int = 0
    last_used_at: int = 0
    packets: int = 0


class MessageStore:
    """Per-message state of one action function.

    Entries are created lazily when the first packet of a message
    arrives (seeded from schema defaults, overlaid with any metadata the
    stage attached whose names match message fields) and expired either
    explicitly (message end) or by idle timeout.
    """

    def __init__(self, schema: Schema,
                 idle_timeout_ns: int = 10_000_000_000) -> None:
        self.schema = schema
        self.idle_timeout_ns = idle_timeout_ns
        self._entries: Dict[object, MessageEntry] = {}
        self.created_total = 0
        self.expired_total = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def lookup(self, key: object, now_ns: int,
               metadata: Optional[Dict[str, int]] = None
               ) -> Tuple[MessageEntry, bool]:
        """Return (entry, is_new) for the message ``key``."""
        entry = self._entries.get(key)
        if entry is not None:
            entry.last_used_at = now_ns
            entry.packets += 1
            return entry, False
        values = {f.name: f.default for f in self.schema.fields
                  if not f.is_array}
        entry = MessageEntry(values=values, created_at=now_ns,
                             last_used_at=now_ns, packets=1)
        if metadata:
            self.seed(entry, metadata)
        self._entries[key] = entry
        self.created_total += 1
        return entry, True

    def seed(self, entry: MessageEntry,
             metadata: Mapping[str, object]) -> None:
        """Overlay ``metadata`` whose names are scalar message fields
        on a new ``entry``: what :meth:`lookup` does with its
        ``metadata`` when it creates an entry.  A caller that derives
        the metadata only on a miss passes none to ``lookup`` and
        seeds the entry it reports new."""
        values = entry.values
        for name, value in metadata.items():
            if self.schema.has_field(name) and \
                    not self.schema.field_named(name).is_array:
                values[name] = wrap64(int(value))

    def commit(self, key: object, values: Dict[str, int]) -> None:
        """Overlay ``values`` on the entry of message ``key``.

        The enclave itself writes straight into the
        :class:`MessageEntry` that :meth:`lookup` handed it
        (the plan or ``InstalledFunction.run_generic``); this is the
        by-key form for everyone else.
        """
        entry = self._entries.get(key)
        if entry is None:
            raise StateError(f"no message entry for {key!r}")
        entry.values.update(values)

    def end_message(self, key: object) -> None:
        """Explicit message termination (e.g. flow FIN)."""
        if self._entries.pop(key, None) is not None:
            self.expired_total += 1

    def field_values(self, name: str) -> List[int]:
        """Current value of ``name`` across all live messages.

        Telemetry hook: e.g. the control plane samples the PIAS
        function's per-message ``size`` field to rebuild the
        flow-size distribution the threshold computation needs.
        """
        if not self.schema.has_field(name):
            raise StateError(
                f"message schema has no field {name!r}")
        return [entry.values[name]
                for entry in self._entries.values()]

    def expire_idle(self, now_ns: int) -> int:
        """Drop entries idle longer than the timeout; returns count."""
        stale = [k for k, e in self._entries.items()
                 if now_ns - e.last_used_at > self.idle_timeout_ns]
        for k in stale:
            del self._entries[k]
        self.expired_total += len(stale)
        return len(stale)
