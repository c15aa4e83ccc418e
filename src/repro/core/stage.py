"""Eden stages: application-level classification of network traffic.

Section 3.3: a *stage* is any application, library or service that is
Eden-compliant.  A stage classifies the messages it generates using
*classification rules* ``<classifier> -> [class_name, {meta-data}]``,
organized into *rule-sets* such that a message matches at most one rule
per rule-set.  Class names are fully qualified as
``stage.rule-set.class_name`` and travel, along with the selected
metadata, down the host stack to the enclave.

The controller programs stages through the Stage API of Table 3:
``getStageInfo`` (S0), ``createStageRule`` (S1), ``removeStageRule``
(S2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..telemetry import NULL_TELEMETRY, Telemetry

WILDCARD = "*"


class StageError(Exception):
    """A classification rule or lookup was invalid."""


@dataclass(frozen=True)
class Classifier:
    """The match part of a classification rule.

    A mapping from classifier-field name to a required value; fields
    omitted or set to :data:`WILDCARD` match anything.  E.g. the paper's
    ``<GET, "a">`` for memcached is ``{"msg_type": "GET", "key": "a"}``.
    """

    matches: Tuple[Tuple[str, object], ...]

    @classmethod
    def of(cls, **matches: object) -> "Classifier":
        return cls(tuple(sorted(matches.items())))

    def covers(self, attrs: Mapping[str, object]) -> bool:
        for name, expected in self.matches:
            if expected == WILDCARD:
                continue
            if attrs.get(name) != expected:
                return False
        return True

    @property
    def specificity(self) -> int:
        """Number of non-wildcard terms (more specific matches first)."""
        return sum(1 for _, v in self.matches if v != WILDCARD)

    def __str__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.matches)
        return f"<{inner}>"


@dataclass(frozen=True)
class ClassificationRule:
    """One rule: ``<classifier> -> [class_name, {meta-data}]``."""

    rule_id: int
    rule_set: str
    classifier: Classifier
    class_name: str
    metadata_fields: Tuple[str, ...]

    def __str__(self) -> str:
        meta = ", ".join(self.metadata_fields)
        return (f"{self.rule_set}: {self.classifier} -> "
                f"[{self.class_name}, {{{meta}}}]")


@dataclass(frozen=True)
class Classification:
    """The result of classifying one message under one rule-set."""

    class_name: str          # fully qualified: stage.ruleset.class
    metadata: Dict[str, object]

    @property
    def message_id(self) -> Optional[object]:
        return self.metadata.get("msg_id")


@dataclass(frozen=True)
class StageInfo:
    """What ``getStageInfo`` (S0) returns: the stage's classification
    capabilities — which fields it can classify on and which metadata it
    can generate (paper Table 2)."""

    name: str
    classifier_fields: Tuple[str, ...]
    metadata_fields: Tuple[str, ...]


class Stage:
    """An Eden-compliant application or library.

    Subclasses (or instantiations) declare what they *can* do —
    ``classifier_fields`` and ``metadata_fields`` — and the controller
    installs rules deciding what they *should* do.  At send time the
    application calls :meth:`classify` with the attributes of one
    message and attaches the resulting classifications to the data it
    hands to the socket layer.
    """

    def __init__(self, name: str,
                 classifier_fields: Sequence[str],
                 metadata_fields: Sequence[str],
                 telemetry: Optional[Telemetry] = None) -> None:
        self.name = name
        self.classifier_fields = tuple(classifier_fields)
        self.metadata_fields = tuple(metadata_fields)
        self._rules: Dict[int, ClassificationRule] = {}
        self._rule_sets: Dict[str, List[ClassificationRule]] = {}
        self._next_rule_id = itertools.count(1)
        self._next_msg_id = itertools.count(1)
        self.telemetry = (telemetry if telemetry is not None
                          else NULL_TELEMETRY)
        self._m_classified = self.telemetry.registry.counter(
            "stage_messages_classified_total", stage=name)
        self._tracing = self.telemetry.enabled

    # -- Stage API (paper Table 3) -----------------------------------------

    def get_stage_info(self) -> StageInfo:
        """S0: report classification abilities to the controller."""
        return StageInfo(name=self.name,
                         classifier_fields=self.classifier_fields,
                         metadata_fields=self.metadata_fields)

    def create_stage_rule(self, rule_set: str, classifier: Classifier,
                          class_name: str,
                          metadata_fields: Sequence[str]) -> int:
        """S1: install a classification rule; returns its rule id."""
        for fname, _ in classifier.matches:
            if fname not in self.classifier_fields:
                raise StageError(
                    f"stage {self.name!r} cannot classify on "
                    f"{fname!r}; available: {self.classifier_fields}")
        for mfield in metadata_fields:
            if mfield not in self.metadata_fields:
                raise StageError(
                    f"stage {self.name!r} cannot generate metadata "
                    f"{mfield!r}; available: {self.metadata_fields}")
        rule_id = next(self._next_rule_id)
        rule = ClassificationRule(
            rule_id=rule_id, rule_set=rule_set, classifier=classifier,
            class_name=class_name,
            metadata_fields=tuple(metadata_fields))
        self._rules[rule_id] = rule
        bucket = self._rule_sets.setdefault(rule_set, [])
        bucket.append(rule)
        # Most-specific-first so "a message matches at most one rule in
        # each rule-set" resolves deterministically.
        bucket.sort(key=lambda r: (-r.classifier.specificity, r.rule_id))
        return rule_id

    def remove_stage_rule(self, rule_set: str, rule_id: int) -> None:
        """S2: remove a previously installed rule."""
        rule = self._rules.get(rule_id)
        if rule is None or rule.rule_set != rule_set:
            raise StageError(
                f"stage {self.name!r}: no rule {rule_id} in rule set "
                f"{rule_set!r}")
        del self._rules[rule_id]
        bucket = self._rule_sets[rule_set]
        bucket.remove(rule)
        if not bucket:
            del self._rule_sets[rule_set]

    def has_rules(self) -> bool:
        """Whether :meth:`classify` can return anything at all."""
        return bool(self._rules)

    # -- data-path classification ------------------------------------------

    def new_message_id(self) -> int:
        """Allocate a unique message identifier within this stage."""
        return next(self._next_msg_id)

    def classify(self, attrs: Mapping[str, object],
                 msg_id: Optional[int] = None) -> List[Classification]:
        """Classify one message against every installed rule-set.

        ``attrs`` carries both classifier values (e.g. ``msg_type``)
        and metadata values (e.g. ``msg_size``).  A message may belong
        to one class per rule-set (Section 3.3); rule-sets with no
        matching rule contribute nothing.
        """
        if msg_id is None:
            msg_id = self.new_message_id()
        if not self._tracing:
            return self._classify_impl(attrs, msg_id)
        # flow_id here is the message identity — the same
        # ``(stage, msg_id)`` that travels in msg_id metadata — so
        # stage spans join against enclave/packet spans without
        # digging through attrs.
        with self.telemetry.tracer.span("stage.classify",
                                        stage=self.name,
                                        flow_id=(self.name, msg_id)
                                        ) as span:
            results = self._classify_impl(attrs, msg_id)
            span.set(classes=len(results))
        return results

    def _classify_impl(self, attrs: Mapping[str, object],
                       msg_id: Optional[int]) -> List[Classification]:
        if msg_id is None:
            msg_id = self.new_message_id()
        results: List[Classification] = []
        for rule_set in sorted(self._rule_sets):
            for rule in self._rule_sets[rule_set]:
                if not rule.classifier.covers(attrs):
                    continue
                metadata: Dict[str, object] = {}
                for mfield in rule.metadata_fields:
                    if mfield == "msg_id":
                        metadata["msg_id"] = (self.name, msg_id)
                    elif mfield in attrs:
                        metadata[mfield] = attrs[mfield]
                fq_name = f"{self.name}.{rule.rule_set}.{rule.class_name}"
                results.append(Classification(class_name=fq_name,
                                              metadata=metadata))
                break  # at most one rule per rule-set
        self._m_classified.inc()
        return results

    def rules(self) -> List[ClassificationRule]:
        return sorted(self._rules.values(), key=lambda r: r.rule_id)

    def __repr__(self) -> str:
        return (f"Stage({self.name!r}, rules="
                f"{[str(r) for r in self.rules()]})")


def memcached_stage() -> Stage:
    """The memcached stage of paper Table 2: classifies on
    ``<msg_type, key>`` and generates ``{msg_id, msg_type, key,
    msg_size}``."""
    return Stage("memcached",
                 classifier_fields=("msg_type", "key"),
                 metadata_fields=("msg_id", "msg_type", "key",
                                  "msg_size"))


def http_stage() -> Stage:
    """The HTTP-library stage of paper Table 2."""
    return Stage("http",
                 classifier_fields=("msg_type", "url"),
                 metadata_fields=("msg_id", "msg_type", "url",
                                  "msg_size"))


def storage_stage() -> Stage:
    """A storage-service stage (Pulsar case study): classifies on the
    IO operation type and exposes operation size and tenant."""
    return Stage("storage",
                 classifier_fields=("op_type", "tenant"),
                 metadata_fields=("msg_id", "op_type", "msg_size",
                                  "tenant"))
