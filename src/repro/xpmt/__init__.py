"""repro.xpmt — the experiment campaign service.

A fuzzbench-style layer over the figure sweeps:

* :mod:`repro.xpmt.spec` — deterministic sweep-cell specs and their
  content hashes; points are keyed ``(commit, seed, spec_hash)``;
* :mod:`repro.xpmt.store` — the sqlite campaign store (stdlib only);
* :mod:`repro.xpmt.runner` — the resumable multi-seed runner layered on
  :mod:`repro.bench.parallel` (stored points are skipped, never redone);
* :mod:`repro.xpmt.stats` — replicate mean/CI and Mann-Whitney checks;
* :mod:`repro.xpmt.report` — the text report (through
  :func:`repro.bench.report.format_table`) and the regression verdict
  against the stored trajectory.

Surfaced as ``python -m repro campaign run|status|report|diff``; this
package re-exports nothing.
"""
