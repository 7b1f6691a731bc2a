"""Prove the checker fires: plant a lying client, expect a failed run.

The fakes wrap the real index *under* the checker, so the checker sees
what a buggy index would hand its caller.  Nothing in ``src/`` or
``perfbench/`` knows them.
"""

import json

import pytest

import run


class LyingIndex:
    """The real index, except that its clients lie as *client_class* says."""

    def __init__(self, index, client_class):
        self._index = index
        self._client_class = client_class

    def __getattr__(self, attr):
        return getattr(self._index, attr)

    def client(self, ctx):
        return self._client_class(self._index.client(ctx))


class HonestClient:
    def __init__(self, client):
        self._client = client

    def __getattr__(self, attr):
        return getattr(self._client, attr)


class StaleValueClient(HonestClient):
    """Every 50th search answers with a value the key never held — what a
    cache serving an image from another dataset generation would do."""

    searches = 0

    def search(self, key):
        value = yield from self._client.search(key)
        StaleValueClient.searches += 1
        if StaleValueClient.searches % 50 == 0 and value is not None:
            return value ^ (1 << 40)
        return value


class DroppingScanClient(HonestClient):
    """Every 20th scan loses the loaded key in the middle of its range."""

    scans = 0

    def scan(self, key, count):
        items = yield from self._client.scan(key, count)
        DroppingScanClient.scans += 1
        if DroppingScanClient.scans % 20 == 0 and len(items) >= 3:
            items = items[:len(items) // 2] + items[len(items) // 2 + 1:]
        return items


class ForgetsInsertsClient(HonestClient):
    """Answers "absent" for every key the run inserted: the known chime
    defect (README.md) on every seed, so the read-back's own rule is tested."""

    inserted = set()

    def insert(self, key, value):
        ForgetsInsertsClient.inserted.add(key)
        return self._client.insert(key, value)

    def search(self, key):
        value = yield from self._client.search(key)
        return None if key in ForgetsInsertsClient.inserted else value


def measure_with(client_class, workload, inprocess_spawn, capsys, trace=0):
    spawn = inprocess_spawn(lambda index: LyingIndex(index, client_class))
    code = run.main(["--workload", workload, "--seed", "9", "--seconds", "0",
                     "--trace", str(trace), "--smoke"], spawn=spawn)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_honest_wrapper_passes(inprocess_spawn, capsys):
    code, result = measure_with(HonestClient, "scan-insert", inprocess_spawn, capsys)
    assert code == 0 and result["correct"] is True and result["failed"] == 0


@pytest.mark.parametrize("client_class,workload", [
    (StaleValueClient, "read-skew"),
    (StaleValueClient, "radix-coldcache"),
    (DroppingScanClient, "scan-insert"),
])
def test_planted_bug_fails_the_run(client_class, workload, inprocess_spawn, capsys):
    code, result = measure_with(client_class, workload, inprocess_spawn, capsys)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0  # failed_op_ratio


def test_read_back_counts_lost_inserts_without_failing_the_run(inprocess_spawn, capsys):
    code, result = measure_with(ForgetsInsertsClient, "scan-insert", inprocess_spawn,
                                capsys, trace=1)
    assert code == 0 and result["failed"] == 0
    assert result["metrics"]["core.readback_insert_misses"]["value"] > 0
