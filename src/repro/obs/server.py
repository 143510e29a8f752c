"""A stdlib-only HTTP status surface for long-running campaigns.

The ROADMAP's always-on campaign service needs somewhere to look while
the scheduler streams batches: :class:`ObsServer` exposes the live
:mod:`repro.metrics` registries and the on-disk ledger over three JSON
endpoints —

* ``GET /metrics``  — ``{system: registry.snapshot()}`` for every
  registry handed to the server (read live on each request, so a
  campaign thread appending trials is visible immediately);
* ``GET /ledger``   — the ledger's records (re-read per request, so a
  concurrent writer's appends show up without restarts);
* ``GET /clusters`` — :func:`repro.obs.cluster.cluster_ledger` over
  the current ledger;
* ``GET /campaign`` — the live campaign checkpoint (batch cursor,
  coverage, fingerprint counts), re-read per request so ``status
  --serve`` is the front-end of a *running* campaign;
* ``GET /analytics`` — :func:`repro.analytics.analyze_ledger` over the
  current ledger: commit windows, cluster drift flags, evolution
  events;
* ``GET /``         — the endpoint index plus schema version.

Ledger reads tolerate a torn trailing line (a concurrent campaign
writer killed mid-append): the intact prefix is served, with the torn
tail surfaced as ``"truncated_tail"`` rather than a 500.

No dependencies beyond ``http.server``; start it in the background
(``start()``/``stop()``) next to a scheduler loop, or foreground via
``repro status --serve``.
"""

from __future__ import annotations

import json
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.cluster import DEFAULT_THRESHOLD, cluster_ledger
from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    LedgerError,
    read_ledger_with_tail,
)

__all__ = ["ObsServer", "campaign_snapshot"]


def campaign_snapshot(checkpoint_path: str | None) -> dict:
    """The ``/campaign`` payload: a summary of the checkpoint on disk.

    ``active`` is simply "a readable checkpoint exists" — there is no
    liveness channel to the campaign process, so the panel reports the
    last committed batch cursor plus the checkpoint's mtime and lets
    the reader judge staleness. A batch still being appended is not
    committed yet and does not show. Shared by :class:`ObsServer` and
    the ``repro status`` campaign panel.
    """
    # imported lazily: obs must not hard-depend on the campaign service
    from repro.campaign.checkpoint import (
        CHECKPOINT_SCHEMA_VERSION,
        CheckpointError,
        load_checkpoint,
    )

    payload: dict[str, object] = {
        "checkpoint": checkpoint_path,
        "active": False,
    }
    if checkpoint_path is None or not os.path.exists(checkpoint_path):
        return payload
    try:
        checkpoint = load_checkpoint(checkpoint_path)
        mtime = os.path.getmtime(checkpoint_path)
    except (CheckpointError, OSError) as exc:
        payload["error"] = f"unreadable checkpoint ({exc})"
        return payload
    state = checkpoint.state
    payload.update(
        {
            "active": True,
            "mtime": mtime,
            "schema_version": CHECKPOINT_SCHEMA_VERSION,
            "config": state["config"],
            "batches": state["round_index"],
            "candidates": state["candidates"],
            "trials": state["trials_run"],
            "coverage_features": len(state["coverage"]),
            "fingerprints": len(state["findings"]),
            "novel": sum(
                1 for finding in state["findings"] if finding.get("novel")
            ),
            "rediscovered": len(state["rediscovered"]),
            "novel_seen": checkpoint.novel_seen,
        }
    )
    return payload


class ObsServer:
    """Serve campaign observability over HTTP.

    ``registries`` is any iterable of
    :class:`~repro.metrics.MetricsRegistry` (or objects with a
    compatible ``system``/``snapshot()``, e.g. a
    :class:`~repro.crosstest.CrossTestMetrics` registry); ``port=0``
    binds an ephemeral port, readable from :attr:`address` after
    construction.
    """

    ENDPOINTS = (
        "/",
        "/metrics",
        "/ledger",
        "/clusters",
        "/campaign",
        "/analytics",
    )

    def __init__(
        self,
        ledger_path: str | None = None,
        registries=(),
        host: str = "127.0.0.1",
        port: int = 0,
        threshold: float = DEFAULT_THRESHOLD,
        checkpoint_path: str | None = None,
    ) -> None:
        self.ledger_path = ledger_path
        self.checkpoint_path = checkpoint_path
        self.registries = tuple(registries)
        self.threshold = threshold
        obs = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args) -> None:  # noqa: ARG002
                pass  # request logging is the caller's business, not stderr's

            def do_GET(self) -> None:
                path = self.path.split("?", 1)[0].rstrip("/") or "/"
                try:
                    payload = obs.payload(path)
                except LedgerError as exc:
                    self._reply(500, {"error": str(exc)})
                    return
                if payload is None:
                    self._reply(
                        404,
                        {
                            "error": f"no endpoint {path!r}",
                            "endpoints": list(obs.ENDPOINTS),
                        },
                    )
                    return
                self._reply(200, payload)

            def _reply(self, status: int, payload: dict) -> None:
                body = json.dumps(payload, sort_keys=True).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._thread: threading.Thread | None = None

    # -- payloads ----------------------------------------------------------

    def _records(self) -> tuple[list[dict], tuple[int, str] | None]:
        if self.ledger_path is None:
            return [], None
        # Tolerate a torn tail: a live campaign writer killed mid-append
        # leaves at most one partial final line, and the status surface
        # must keep rendering the intact prefix.
        return read_ledger_with_tail(self.ledger_path)

    def payload(self, path: str) -> dict | None:
        """The JSON body for one endpoint, or ``None`` for a 404."""
        if path == "/":
            records, _ = self._records()
            return {
                "endpoints": list(self.ENDPOINTS),
                "schema_version": LEDGER_SCHEMA_VERSION,
                "ledger": self.ledger_path,
                "checkpoint": self.checkpoint_path,
                "runs": len(records),
            }
        if path == "/metrics":
            return {
                registry.system: registry.snapshot()
                for registry in self.registries
            }
        if path == "/ledger":
            records, truncated = self._records()
            payload = {
                "schema_version": LEDGER_SCHEMA_VERSION,
                "ledger": self.ledger_path,
                "runs": records,
            }
            if truncated is not None:
                payload["truncated_tail"] = {
                    "lineno": truncated[0],
                    "reason": truncated[1],
                }
            return payload
        if path == "/clusters":
            records, _ = self._records()
            return {
                "total_runs": len(records),
                "threshold": self.threshold,
                "clusters": [
                    cluster.to_json()
                    for cluster in cluster_ledger(
                        records, threshold=self.threshold
                    )
                ],
            }
        if path == "/campaign":
            return campaign_snapshot(self.checkpoint_path)
        if path == "/analytics":
            # imported lazily: obs must not hard-depend on analytics
            # (analytics already imports obs for clustering)
            from repro.analytics import analyze_ledger

            records, _ = self._records()
            payload = analyze_ledger(
                records, threshold=self.threshold
            ).to_json()
            payload["total_runs"] = len(records)
            payload["threshold"] = self.threshold
            return payload
        return None

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def url(self, path: str = "/") -> str:
        host, port = self.address
        return f"http://{host}:{port}{path}"

    def start(self) -> "ObsServer":
        """Serve from a daemon thread; returns self for chaining."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="repro-obs-server",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (``repro status --serve``)."""
        self._server.serve_forever()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
