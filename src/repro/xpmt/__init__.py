"""repro.xpmt — the experiment campaign service.

A fuzzbench-style layer over the figure records: a campaign is a
record's grid (:data:`repro.bench.figures.FIGURES`) run over seeds.

* :mod:`repro.xpmt.spec` — campaign plans and the content hashes of
  their points; points are keyed ``(commit, seed, spec_hash)``;
* :mod:`repro.xpmt.store` — the sqlite campaign store (stdlib only);
* :mod:`repro.xpmt.runner` — the resumable multi-seed runner layered on
  :mod:`repro.bench.parallel` (stored points are skipped, never redone);
* :mod:`repro.xpmt.stats` — replicate mean/CI and Mann-Whitney checks;
* :mod:`repro.xpmt.report` — the text report (through
  :func:`repro.bench.report.format_table`), the regression verdict
  against the stored trajectory and the record's claims per seed.

Surfaced as ``python -m repro campaign run NAME --seeds 42-46`` and
``campaign status|report|diff``; this package re-exports nothing.
"""
