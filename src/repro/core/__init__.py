"""Eden core: controller, stages, and enclaves (paper Section 3)."""

from .composition import ChainLink, CompositionError, FunctionChain

from .accounting import CpuAccounting
from .controller import Controller, ControllerError, PathWeight
from .enclave import (Enclave, EnclaveError, InstalledFunction,
                      MatchActionTable, MatchRule, PLACEMENT_NIC,
                      PLACEMENT_OS, ProcessResult)
from .stage import (Classification, ClassificationRule, Classifier,
                    Stage, StageError, StageInfo, WILDCARD,
                    http_stage, memcached_stage, storage_stage)
from .state import (ConcurrencyLevel, GlobalStore, MessageStore,
                    StateError)

__all__ = [
    "ChainLink", "Classification", "ClassificationRule", "Classifier",
    "ConcurrencyLevel", "CompositionError", "Controller", "ControllerError",
    "CpuAccounting", "Enclave", "FunctionChain",
    "EnclaveError", "GlobalStore", "InstalledFunction",
    "MatchActionTable", "MatchRule", "MessageStore", "PLACEMENT_NIC",
    "PLACEMENT_OS", "PathWeight", "ProcessResult", "Stage",
    "StageError", "StageInfo", "StateError", "WILDCARD",
    "http_stage", "memcached_stage", "storage_stage",
]
