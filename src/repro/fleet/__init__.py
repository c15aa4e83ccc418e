"""Staged fleet rollouts over the Eden control plane.

The paper's controller programs each enclave individually; this
package turns that primitive into a *fleet* operation: an ordered
:class:`RolloutPlan` of canary-first waves, a :class:`FleetProgram`
of control-plane ops, and a :class:`FleetOrchestrator` that drives
install -> Ack -> health-gate -> advance / pause / roll back — all
through the existing reliable channel, so epoch fencing, loss
recovery and restart replay behave identically at 3 hosts and at
1024.  Fleet-scale runs use the sharded control fabric
(:mod:`repro.fleet.shardfleet`); the DDoS-mitigation scenario lives in
:mod:`repro.fleet.ddos` (imported on demand — it pulls in the function
library).  See ``docs/FLEET.md``.
"""

from .health import (CallbackGate, EpochHealthGate, FAIL, HEALTHY,
                     HealthGate, HostHealth, WAIT)
from .orchestrator import (ABORTED, DONE, FleetOrchestrator, IDLE,
                           OrchestratorError, PAUSE, PAUSED, ROLLBACK,
                           ROLLED_BACK_FLEET, ROLLING_BACK_FLEET,
                           RUNNING, RolloutConfig, SETTLING, TERMINAL)
from .plan import DEFAULT_PERCENTS, PlanError, RolloutPlan, Wave
from .program import (FleetOp, FleetProgram, InstallFunctionOp,
                      InstallRuleOp, PerHost, ProgramBuilder,
                      ProgramError, RemoveFunctionOp,
                      ReplaceFunctionOp, SetGlobalOp)
from .shardfleet import (CONTROLLER_SHARD, FabricError,
                         ShardedControlFabric, ShardedFleet)
from .status import (ACKED, CONFIRMED, FAILED, HostStatus, INSTALLING,
                     PENDING, ROLLED_BACK, ROLLING_BACK, RolloutStatus,
                     WAVE_ABANDONED, WAVE_CONFIRMED, WAVE_FAILED,
                     WAVE_RUNNING, WaveRecord)

__all__ = [
    "ABORTED", "ACKED", "CONFIRMED", "CONTROLLER_SHARD",
    "CallbackGate", "DEFAULT_PERCENTS", "DONE", "EpochHealthGate",
    "FAIL", "FAILED", "FabricError", "FleetOp", "FleetOrchestrator",
    "FleetProgram", "HEALTHY", "HealthGate", "HostHealth",
    "HostStatus", "IDLE", "INSTALLING", "InstallFunctionOp",
    "InstallRuleOp", "OrchestratorError", "PAUSE", "PAUSED",
    "PENDING", "PerHost", "PlanError", "ProgramBuilder",
    "ProgramError", "ROLLBACK", "ROLLED_BACK", "ROLLED_BACK_FLEET",
    "ROLLING_BACK", "ROLLING_BACK_FLEET", "RUNNING",
    "RemoveFunctionOp", "ReplaceFunctionOp", "RolloutConfig",
    "RolloutPlan", "RolloutStatus", "SETTLING", "SetGlobalOp",
    "ShardedControlFabric", "ShardedFleet", "TERMINAL", "WAIT",
    "WAVE_ABANDONED", "WAVE_CONFIRMED", "WAVE_FAILED",
    "WAVE_RUNNING", "Wave", "WaveRecord",
]
