"""repro.faults — fault injection, crash recovery checking, and chaos runs.

Three pieces:

* :mod:`repro.faults.plan` — declarative, seeded fault plans (verb loss,
  latency spikes, MN outages, CN crash points);
* :mod:`repro.faults.injector` — the interpreter queue pairs consult on
  every verb (installed via
  :meth:`repro.cluster.cluster.Cluster.install_faults`);
* :mod:`repro.faults.invariants` / :mod:`repro.faults.history` /
  :mod:`repro.faults.chaos` — the whole-index audit, the history checker
  and the seeded chaos harness built on them (the ``chaos`` subcommand).
"""

from repro.faults.chaos import CHAOS_CLUSTER, ChaosResult, run_chaos
from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantReport, check_index_invariants
from repro.faults.plan import (
    CrashFault,
    DelayFault,
    FaultPlan,
    LossFault,
    MnOutage,
)

__all__ = [
    "FaultPlan", "LossFault", "DelayFault", "MnOutage", "CrashFault",
    "FaultInjector",
    "InvariantReport", "check_index_invariants",
    "CHAOS_CLUSTER", "ChaosResult", "run_chaos",
]
