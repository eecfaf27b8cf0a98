"""Synthetic workloads reproducing the paper's application types.

Five vCPU types (§3.2 of the paper) with the mechanisms that make each
quantum-sensitive or quantum-agnostic:

* ``IOInt`` — latency-critical event handling
  (:class:`~repro.workloads.io_workload.IoWorkload`), in *exclusive*
  (pure IO, BOOST-friendly) and *heterogeneous* (request + CGI compute,
  BOOST-defeating) flavours;
* ``ConSpin`` — multi-threaded spin-lock synchronisation
  (:class:`~repro.workloads.spin.SpinWorkload`);
* ``LLCF`` / ``LLCO`` / ``LoLCF`` — CPU burn with working sets that fit
  the LLC, overflow it, or fit the private caches
  (:class:`~repro.workloads.cpu.CpuBurnWorkload` with profiles from
  :mod:`repro.workloads.profiles`).

:mod:`repro.workloads.suites` names concrete SPEC CPU2006 / PARSEC /
SPECweb2009 / SPECmail2009 analogues with per-program parameters that
land each program in the class the paper's Table 3 reports.
"""

from repro.workloads.base import PerfResult, Workload
from repro.workloads.blocking import BlockingSyncWorkload
from repro.workloads.cpu import CpuBurnWorkload
from repro.workloads.io_workload import IoWorkload
from repro.workloads.profiles import (
    llcf_profile,
    llco_profile,
    lolcf_profile,
)
from repro.workloads.spin import SpinWorkload
from repro.workloads.suites import APP_CATALOG, make_app

__all__ = [
    "Workload",
    "PerfResult",
    "CpuBurnWorkload",
    "IoWorkload",
    "SpinWorkload",
    "BlockingSyncWorkload",
    "llcf_profile",
    "llco_profile",
    "lolcf_profile",
    "APP_CATALOG",
    "make_app",
]
