"""One checker for every answer a run gave (DESIGN §8 "Histories").

:func:`history` reads a :func:`repro.obs.recording` as the run's ops,
each with its arguments and — unless it is *pending* (its CN crashed, or
it raised) — its answer; :func:`check_history` judges them all.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Iterable, List, NamedTuple, Tuple

__all__ = ["Op", "history", "check_history"]

INF = float("inf")


class Op(NamedTuple):
    """One op of a history; ``end`` is INF while it is pending."""

    client: str
    name: str
    args: Tuple
    begin: float
    end: float = INF
    result: Any = None


def history(recording) -> List[Op]:
    """Every op *recording* saw invoked, in invoke order, with its answer."""
    return [Op(t.client, t.name, t.args, t.begin,
               *((t.op.end, t.op.result) if t.op and not t.op.error else ()))
            for t in recording.ops()]


def check_history(ops: Iterable[Op], loaded: Iterable[Tuple[int, Any]],
                  final: Iterable[Tuple[int, Any]]) -> List[str]:
    """What *ops*, run over *loaded* pairs and leaving *final* pairs, did
    wrong; empty when every answer is legal."""
    writes = {key: [(-INF, -INF, value)] for key, value in loaded}
    reads, scans, found = [], [], []
    for op in ops:
        if op.name in ("scan", "search"):
            if op.end < INF:
                (scans if op.name == "scan" else reads).append(op)
        elif op.result is False:  # an update or delete found no key
            reads.append(op._replace(result=None))
        else:
            write = (op.begin, op.end, None if op.name == "delete" else op.args[1])
            writes.setdefault(op.args[0], [(-INF, -INF, None)]).append(write)
            if op.result is True and op.name != "insert":  # it found the key
                found.append((op, write))
    scans.append(Op("", "final state", (0, INF), INF, INF, sorted(final)))

    def legal(key: int, op: Op, own: Tuple = ()) -> set:
        """The register rule: values of writes other than *op*'s *own*
        invoked before *op* answered, unless answered before ``latest`` —
        the last invoke of a write that answered before *op* was invoked."""
        chain = [w for w in writes.get(key, ((-INF, -INF, None),)) if w is not own]
        latest = max(begin for begin, end, _v in chain if end < op.begin)
        return {value for begin, end, value in chain
                if begin <= op.end and end >= latest}

    violations = [f"{_name(op)}: key {op.args[0]} found, legal [None]"
                  for op, write in found if not legal(op.args[0], op, write) - {None}]
    for op, key, value in ([(op, op.args[0], op.result) for op in reads]
                           + [(op, *pair) for op in scans for pair in op.result]):
        if value not in legal(key, op):
            violations.append(f"{_name(op)}: key {key} read {value!r}, legal "
                              f"{sorted(legal(key, op), key=repr)}")
    keys = sorted(writes)
    for op in scans:
        start, count = op.args
        got = [key for key, _value in op.result]
        violations += [f"{_name(op)}: key {b} " + ("twice" if a == b else f"after {a}")
                       for a, b in zip(got, got[1:]) if a >= b]
        if len(got) > count or got and min(got) < start:
            violations.append(f"{_name(op)}: {len(got)} keys from "
                              f"{min(got)}, asked for {count} from {start}")
        high, seen = got[-1] if len(got) >= count else INF, set(got)
        violations += [f"{_name(op)}: skipped key {key}"
                       for key in keys[bisect_left(keys, start):bisect_right(keys, high)]
                       if key not in seen and None not in legal(key, op)]
    return violations


def _name(op: Op) -> str:
    return op.name if op.begin == INF else (
        f"{op.client} {op.name}{op.args} [{op.begin * 1e6:.3f}-{op.end * 1e6:.3f} us]")
