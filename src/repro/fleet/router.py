"""Consistent request routing: workload fingerprints + rendezvous hashing.

The dispatcher's placement problem has two requirements pulling the
same way:

* **cache effectiveness** — identical requests (same cube text, same
  LZW config) should land on the same backend so its hot dictionaries
  and the shared result cache see the repeats;
* **stability under membership change** — when one of N backends dies,
  only the keys that lived on it should move; everything else keeps its
  backend (and its warmth).

Rendezvous (highest-random-weight) hashing gives both with no ring
state to maintain: every request's fingerprint scores each backend with
``sha256(fingerprint ":" backend)`` and the backends are tried in
descending score order.  Removing a backend only reassigns the keys
that ranked it first — the classic 1/N disruption bound — and the
ranked order doubles as the dispatcher's failover order, so retries are
deterministic too.

The fingerprint itself is a SHA-256 over (op, canonicalised config,
payload).  It is computed on the *request* bytes, not the result, so a
cache lookup can happen before any backend is touched.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional, Sequence, Tuple

__all__ = ["workload_fingerprint", "rank_backends"]


def workload_fingerprint(
    op: str,
    config: Optional[Dict[str, Any]],
    payload: bytes,
    seed: Optional[str] = None,
    codes_per_frame: Optional[int] = None,
) -> str:
    """Stable hex digest identifying one unit of routable work.

    Two requests get the same fingerprint iff they would produce the
    same reply on a correct backend: same op, semantically identical
    ``config`` (key order normalised), same payload bytes, same warm
    dictionary ``seed`` (the request's base64 snapshot field, or
    ``None`` for a cold compress — the emitted codes depend on the
    seed, so a cold and a warm compress of identical cubes must never
    share a cache entry), and — for ``compress_stream`` — the same
    ``codes_per_frame``, which changes the v5 container's framing
    bytes.  The streaming ``chunk_bytes`` is left out because it
    provably does not change the reply (the incremental encoder emits
    identical codes for any chunking of the same input, locked by the
    chunk-boundary suite), so requests differing only there share
    routing and cache.
    """
    canonical_config = json.dumps(
        config or {}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    digest = hashlib.sha256()
    digest.update(op.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(canonical_config)
    digest.update(b"\x00")
    if seed is not None:
        digest.update(seed.encode("ascii", "replace"))
    digest.update(b"\x00")
    if codes_per_frame is not None:
        digest.update(str(codes_per_frame).encode("ascii"))
    digest.update(b"\x00")
    digest.update(payload)
    return digest.hexdigest()


def rank_backends(fingerprint: str, backends: Sequence[str]) -> Tuple[str, ...]:
    """Backends in rendezvous order for ``fingerprint`` (best first).

    Deterministic for a given (fingerprint, backend set); ties — only
    possible with duplicate addresses — fall back to address order so
    the result is still total.
    """

    def score(address: str) -> Tuple[bytes, str]:
        weight = hashlib.sha256(
            f"{fingerprint}:{address}".encode("utf-8")
        ).digest()
        return (weight, address)

    return tuple(sorted(backends, key=score, reverse=True))
