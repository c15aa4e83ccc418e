"""Eden's control-plane channel (controller ↔ enclave messaging).

The paper's controller "programs stages and enclaves" and periodically
recomputes data-plane parameters from global state (Sections 2.1,
3.5).  This package puts a real (simulated) network between the two:
typed control messages with per-enclave epochs, a reliable channel
with retries and backoff, fault injection, desired-state replay after
enclave restarts, and telemetry-driven control loops.  See
``docs/CONTROL.md``.
"""

from .agent import EnclaveAgent, agent_address
from .channel import (ChannelConfig, ChannelStats, ControlEndpoint,
                      Outcome, PendingSend)
from .faults import FaultInjector, schedule_restart
from .messages import (Ack, ConfigBatch, ConfigMessage, ControlError,
                       ControlMessage, Envelope, GLOBAL_ARRAY,
                       GLOBAL_KEYED, GLOBAL_RECORDS, GLOBAL_SCALAR,
                       Hello, InstallFunction, InstallRule, Nack,
                       RemoveFunction, ReplaceFunction, RuleSpec,
                       STALE_EPOCH, StatsReport, UpdateGlobals,
                       UpdateRules)
from .plane import (ControlLoop, ControlPlane, DesiredState,
                    FunctionSpec)
from .transport import InprocTransport, SimTransport, Transport

__all__ = [
    "Ack", "ChannelConfig", "ChannelStats", "ConfigBatch",
    "ConfigMessage",
    "ControlEndpoint", "ControlError", "ControlLoop",
    "ControlMessage", "ControlPlane", "DesiredState", "EnclaveAgent",
    "Envelope", "FaultInjector", "FunctionSpec", "GLOBAL_ARRAY",
    "GLOBAL_KEYED", "GLOBAL_RECORDS", "GLOBAL_SCALAR", "Hello",
    "InprocTransport", "InstallFunction", "InstallRule", "Nack",
    "Outcome", "PendingSend", "RemoveFunction", "ReplaceFunction",
    "RuleSpec",
    "STALE_EPOCH", "SimTransport", "StatsReport", "Transport",
    "UpdateGlobals", "UpdateRules", "agent_address",
    "schedule_restart",
]
