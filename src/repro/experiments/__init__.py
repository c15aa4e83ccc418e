"""Experiment runners that regenerate the paper's tables and figures.

One module per evaluation artifact:

* :mod:`.fig9`  — flow scheduling FCTs (baseline / PIAS / SFF,
  native vs Eden);
* :mod:`.fig10` — ECMP vs WCMP throughput on the asymmetric topology;
* :mod:`.fig11` — Pulsar storage QoS (isolated / simultaneous /
  rate-controlled);
* :mod:`.fig12` — CPU overhead of the Eden components;
* :mod:`.micro` — Section 5.4 interpreter footprint and the cost of
  the tree walk against generated code;
* Table 1 lives in :mod:`repro.functions.library`.

``python -m repro <artifact>`` runs one of them and ``python -m repro
report`` all of them, from the one table in :mod:`repro.cli`; the
shapes they must show are pinned by ``tests/integration``.
"""

from . import fig9, fig10, fig11, fig12, micro, sweep

__all__ = ["fig9", "fig10", "fig11", "fig12", "micro", "sweep"]
