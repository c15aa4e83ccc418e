"""Eden: enabling end-host network functions (SIGCOMM 2015) — a
complete Python reproduction.

Subpackages:

* :mod:`repro.lang` — the action-function DSL, compiler, bytecode
  interpreter (a tree walk and generated code), and static verifier;
* :mod:`repro.core` — the Eden architecture: controller, stages, and
  enclaves with match-action tables and state management;
* :mod:`repro.netsim` — the deterministic discrete-event datacenter
  network simulator (the substrate replacing the paper's testbed);
* :mod:`repro.transport` — a SACK TCP with message boundaries and the
  paper's extended socket send;
* :mod:`repro.stack` — the end-host network stack with the enclave on
  its data path and token-bucket rate limiters;
* :mod:`repro.functions` — the paper's network functions written in
  the DSL, plus Table 1 as executable data;
* :mod:`repro.apps` — Eden-compliant applications and workload
  generators;
* :mod:`repro.experiments` — runners that regenerate Figures 9-12.
"""

__version__ = "1.0.0"

from . import apps, core, experiments, functions, lang, netsim, stack
from . import transport

__all__ = ["apps", "core", "experiments", "functions", "lang",
           "netsim", "stack", "transport", "__version__"]
