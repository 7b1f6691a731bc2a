"""Make ``perfbench/`` and ``src/`` importable for the perfbench tests.

Run with ``python -m pytest perfbench/tests -q``; these are outside
tier-1's ``testpaths`` on purpose (they take ~20 s).
"""

import json
import os
import sys

import pytest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)
for path in (os.path.join(ROOT, "src"), PERFBENCH):
    if path not in sys.path:
        sys.path.insert(0, path)


def _inprocess_spawn(wrap_index=None):
    """A stand-in for ``run.spawn`` that runs children in this process.

    Saves ~0.3 s of interpreter start-up per section, and is the only
    way to hand a section a lying index (*wrap_index*): the fakes live
    in the tests, nothing in ``src/`` or ``perfbench/`` knows them.
    """
    import drills
    import section
    from pinned import WORKLOADS

    def spawn(script, *args):
        if script == "drills.py":
            return drills.run_drills(drills.SMOKE_SCALE)
        ns = section.parse_args(list(args))
        record = section.run_section(WORKLOADS[ns.workload], ns.seed, ns.mode,
                                     smoke=ns.smoke, wrap_index=wrap_index,
                                     spans_out=ns.spans_out)
        return json.loads(json.dumps(record))

    return spawn


@pytest.fixture(scope="session")
def inprocess_spawn():
    """``inprocess_spawn(wrap_index=None)`` -> a ``spawn`` for ``run.main``."""
    return _inprocess_spawn
