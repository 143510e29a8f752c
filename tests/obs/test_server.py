"""Tests for the stdlib HTTP status surface."""

import json
import urllib.error
import urllib.request

import pytest

from repro.metrics import MetricsRegistry
from repro.obs import LEDGER_SCHEMA_VERSION, Ledger, ObsServer


@pytest.fixture
def ledger_path(tmp_path):
    path = str(tmp_path / "ledger.jsonl")
    ledger = Ledger(path)
    ledger.append(
        {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "kind": "crosstest",
            "ts": 1.0,
            "run": {},
            "results": {"trials": 3, "fingerprints": ["a|spark_hive|x"]},
            "env": {},
        }
    )
    ledger.append(
        {
            "schema_version": LEDGER_SCHEMA_VERSION,
            "kind": "crosstest",
            "ts": 2.0,
            "run": {},
            "results": {"trials": 3, "fingerprints": ["a|spark_hive|x"]},
            "env": {},
        }
    )
    return path


def _get(server, path):
    with urllib.request.urlopen(server.url(path), timeout=5) as resp:
        return resp.status, json.loads(resp.read())


class TestObsServer:
    def test_endpoints_serve_json(self, ledger_path):
        registry = MetricsRegistry(system="campaign")
        registry.counter("runs").increment(2)
        server = ObsServer(
            ledger_path=ledger_path, registries=(registry,)
        ).start()
        try:
            status, index = _get(server, "/")
            assert status == 200
            assert index["runs"] == 2
            assert index["schema_version"] == LEDGER_SCHEMA_VERSION
            assert set(index["endpoints"]) == set(server.ENDPOINTS)

            _, metrics = _get(server, "/metrics")
            assert metrics["campaign"]["runs"]["value"] == 2.0

            _, ledger = _get(server, "/ledger")
            assert len(ledger["runs"]) == 2

            _, clusters = _get(server, "/clusters")
            assert clusters["total_runs"] == 2
            assert len(clusters["clusters"]) == 1
            assert clusters["clusters"][0]["flake_rate"] == 1.0
        finally:
            server.stop()

    def test_ledger_reread_per_request(self, ledger_path):
        server = ObsServer(ledger_path=ledger_path).start()
        try:
            _, before = _get(server, "/")
            assert before["runs"] == 2
            Ledger(ledger_path).append(
                {
                    "schema_version": LEDGER_SCHEMA_VERSION,
                    "kind": "fuzz",
                    "ts": 3.0,
                    "run": {},
                    "results": {},
                    "env": {},
                }
            )
            _, after = _get(server, "/")
            assert after["runs"] == 3
        finally:
            server.stop()

    def test_unknown_path_is_404_with_endpoint_index(self):
        server = ObsServer().start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server, "/nope")
            assert excinfo.value.code == 404
            payload = json.loads(excinfo.value.read())
            assert "/clusters" in payload["endpoints"]
        finally:
            server.stop()

    def test_corrupt_ledger_is_500_not_crash(self, tmp_path):
        # corruption before the tail is file damage, not a torn append
        path = tmp_path / "bad.jsonl"
        path.write_text('not json\n{"ok": 1}\n')
        server = ObsServer(ledger_path=str(path)).start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(server, "/ledger")
            assert excinfo.value.code == 500
        finally:
            server.stop()

    def test_torn_tail_served_not_500(self, tmp_path):
        # a live campaign writer killed mid-append leaves one partial
        # final line; the server keeps serving the intact prefix and
        # surfaces the tear instead of failing the request
        path = tmp_path / "live.jsonl"
        path.write_text('{"ok": 1}\n{"tor')
        server = ObsServer(ledger_path=str(path)).start()
        try:
            status, payload = _get(server, "/ledger")
            assert status == 200
            assert payload["runs"] == [{"ok": 1}]
            assert payload["truncated_tail"]["lineno"] == 2
        finally:
            server.stop()

    def test_campaign_endpoint_reflects_checkpoint(self, tmp_path):
        checkpoint = tmp_path / "campaign-checkpoint.json"
        server = ObsServer(checkpoint_path=str(checkpoint)).start()

        def record(round_index, coverage, findings, rediscovered, novel):
            return {
                "kind": "commit",
                "state": {
                    "round_index": round_index,
                    "candidates": 16 * round_index,
                    "trials_run": 384 * round_index,
                    "coverage": coverage,
                    "promoted": [],
                    "findings": findings,
                    "failures": {},
                    "rediscovered": rediscovered,
                },
                "offsets": {"ledger_bytes": 0, "fingerprints_bytes": 0},
                "novel_seen": novel,
                "env": {},
            }

        try:
            _, before = _get(server, "/campaign")
            assert before["active"] is False
            # a v2 journal: header, then one commit record per batch
            lines = [
                {
                    "schema_version": 2,
                    "kind": "campaign-checkpoint",
                    "config": {"seed": 7},
                    "offsets": {"ledger_bytes": 0, "fingerprints_bytes": 0},
                    "env": {},
                },
                record(1, ["a"], [{"key": "y", "novel": False}], [], False),
                record(2, ["b"], [{"key": "x", "novel": True}], [2], True),
                record(3, [], [], [], True),
            ]
            # ...and a torn fourth batch, which is not committed yet
            checkpoint.write_text(
                "".join(json.dumps(line) + "\n" for line in lines)
                + '{"kind": "commit", "state": {"round_'
            )
            _, after = _get(server, "/campaign")
            assert after["active"] is True
            assert after["batches"] == 3
            assert after["candidates"] == 48
            assert after["trials"] == 1152
            assert after["coverage_features"] == 2
            assert after["fingerprints"] == 2
            assert after["novel"] == 1
            assert after["novel_seen"] is True
            assert after["config"] == {"seed": 7}
            assert after["schema_version"] == 2
            # a corrupt earlier record is reported, not served as state
            checkpoint.write_text(
                json.dumps(lines[0]) + "\n{broken\n" + json.dumps(lines[1])
                + "\n"
            )
            _, broken = _get(server, "/campaign")
            assert broken["active"] is False
            assert "unreadable checkpoint" in broken["error"]
        finally:
            server.stop()

    def test_no_ledger_means_empty_campaign(self):
        server = ObsServer().start()
        try:
            _, index = _get(server, "/")
            assert index["runs"] == 0
            _, clusters = _get(server, "/clusters")
            assert clusters["clusters"] == []
        finally:
            server.stop()
