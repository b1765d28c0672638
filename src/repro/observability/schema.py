"""The versioned metrics-JSON schema and its event vocabulary.

Every ``--metrics-json`` file and every recorder snapshot embedded in a
report uses one stable shape::

    {
      "schema": "repro.metrics/1",
      "counters":   {"encode.codes": 123, ...},
      "histograms": {"encode.phrase_len_chars": {"1": 40, "2": 12}, ...},
      "spans":      [{"name": "encode", "seconds": 0.0123}, ...]
    }

``counters`` and ``histograms`` are deterministic functions of the
compressed inputs (identical across worker counts and runs); ``spans``
carry wall-clock timings and are the *only* non-deterministic part —
:func:`strip_timing` removes them, and is what the determinism tests and
any cross-run diffing should compare.  Histogram bins are keyed by the
stringified integer value (JSON objects cannot have int keys).

Schema evolution: additions of new counter/histogram names are
backwards-compatible and do not bump the version; renaming or changing
the meaning of an existing name, or reshaping the envelope, bumps the
``repro.metrics/N`` tag.  Consumers must ignore names they do not know.

The full vocabulary version 1 defines lives in
:mod:`repro.observability.events`; its names are re-exported here.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from ..reliability.atomic import atomic_write_text
from . import events
from .events import *  # noqa: F401,F403 - the vocabulary, re-exported
from .recorder import Recorder

__all__ = [
    "SCHEMA_VERSION",
    "metrics_snapshot",
    "strip_timing",
    "write_metrics_json",
] + events.__all__

#: Version tag embedded in every emitted snapshot.
SCHEMA_VERSION = "repro.metrics/1"


def metrics_snapshot(recorder: Recorder, partial: bool = False) -> dict:
    """Wrap a recorder's snapshot in the versioned envelope.

    Missing sections are filled with empty values so every emitted file
    has the same four keys regardless of which sinks were attached.

    ``partial=True`` marks an envelope flushed mid-run (an interrupted
    ``compress``/``batch``, a draining server): the counters are valid
    but cover only the work done so far.  Complete envelopes omit the
    key entirely, so existing consumers and goldens are unaffected.
    """
    data = recorder.snapshot()
    envelope = {
        "schema": SCHEMA_VERSION,
        "counters": data.get("counters", {}),
        "histograms": data.get("histograms", {}),
        "spans": data.get("spans", []),
    }
    if partial:
        envelope["partial"] = True
    return envelope


def strip_timing(snapshot: dict) -> dict:
    """The deterministic part of a snapshot: drop span timings.

    Span *names* stay (their sequence is deterministic); only the
    measured ``seconds`` go.  Two runs over the same inputs — at any
    worker count — must agree on this projection exactly.
    """
    out = dict(snapshot)
    out["spans"] = [{"name": entry["name"]} for entry in snapshot.get("spans", [])]
    return out


def write_metrics_json(
    recorder: Recorder, path: Union[str, Path], partial: bool = False
) -> dict:
    """Write a recorder's snapshot to ``path``; returns the envelope.

    The write is atomic (tmp + fsync + rename), so a consumer polling
    the file never reads a torn envelope — which matters for the
    ``partial=True`` flushes written from signal handlers.
    """
    envelope = metrics_snapshot(recorder, partial=partial)
    atomic_write_text(path, json.dumps(envelope, indent=2, sort_keys=True) + "\n")
    return envelope
