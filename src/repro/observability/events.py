"""The metrics event vocabulary: every counter and histogram name.

Version 1 of the ``repro.metrics`` schema (:mod:`repro.observability.schema`)
defines exactly these names; instrumented code imports the constants
rather than re-typing strings.  This module holds names only — no JSON,
no file I/O — so the encode path can import it without the envelope
writer and its atomic-write helpers.
"""

__all__ = [
    # counter names
    "ENCODE_CHARS",
    "ENCODE_CODES",
    "ENCODE_XBITS",
    "DICT_ALLOCS",
    "DICT_RESETS",
    "DICT_FULL_SKIPS",
    "DICT_CMDATA_TRUNCATIONS",
    "DECODE_CODES",
    "DECODE_CHARS",
    "DECODE_DICT_ENTRIES",
    "DECODE_RESETS",
    "CONTAINER_BYTES_WRITTEN",
    "CONTAINER_BYTES_READ",
    "CONTAINER_SEGMENTS_WRITTEN",
    "CONTAINER_SEGMENTS_READ",
    "STREAM_CHUNKS_FED",
    "STREAM_FRAMES_WRITTEN",
    "STREAM_FRAMES_READ",
    "STREAM_FRAMES_SALVAGED",
    "BATCH_WORKLOADS",
    "BATCH_SHARDS",
    "BATCH_RETRIES",
    "BATCH_WORKER_CRASHES",
    "BATCH_TIMEOUTS",
    "BATCH_DEGRADED_SHARDS",
    "BATCH_SKIPPED_SHARDS",
    "BATCH_JOURNAL_HITS",
    "BATCH_SEEDED_SHARDS",
    "BATCH_SEED_REDERIVATIONS",
    "SERVICE_REQUESTS",
    "SERVICE_ACCEPTED",
    "SERVICE_COMPLETED",
    "SERVICE_ERRORS",
    "SERVICE_SHED",
    "SERVICE_DEADLINE_EXCEEDED",
    "SERVICE_BREAKER_OPEN",
    "SERVICE_DRAINED",
    "SERVICE_PROTOCOL_ERRORS",
    "SERVICE_DISCONNECTS",
    "FLEET_REQUESTS",
    "FLEET_CACHE_HITS",
    "FLEET_CACHE_MISSES",
    "FLEET_CACHE_CORRUPT",
    "FLEET_CACHE_EVICTIONS",
    "FLEET_FAILOVERS",
    "FLEET_HEDGES",
    "FLEET_HEDGE_WINS",
    "FLEET_BACKEND_ERRORS",
    "FLEET_NO_BACKENDS",
    "FLEET_PROBE_FAILURES",
    # histogram names
    "HIST_PHRASE_LEN",
    "HIST_XBITS_PER_PHRASE",
    "HIST_CODES_PER_WIDTH",
    "HIST_REQUEST_LATENCY_MS",
    "HIST_ROUTING_LATENCY_MS",
]

# -- encoder counters --------------------------------------------------
#: Ternary characters consumed (includes the X-padded final character).
ENCODE_CHARS = "encode.chars"
#: Codes emitted; one per LZW phrase.
ENCODE_CODES = "encode.codes"
#: Don't-care bits the encoder resolved (includes final-char padding).
ENCODE_XBITS = "encode.xbits_assigned"
#: Dictionary entries allocated (across resets, total allocations).
DICT_ALLOCS = "dict.allocs"
#: Adaptive-variant dictionary flushes (``reset_on_full``).
DICT_RESETS = "dict.resets"
#: Allocations skipped because all ``N`` codes were in use.
DICT_FULL_SKIPS = "dict.full_skips"
#: Allocations skipped because the entry would exceed ``C_MDATA``.
DICT_CMDATA_TRUNCATIONS = "dict.cmdata_truncations"

# -- decoder counters --------------------------------------------------
#: Codes consumed by the decode loop.
DECODE_CODES = "decode.codes"
#: Characters the decode expanded to.
DECODE_CHARS = "decode.chars"
#: Dictionary rebuild steps (entries the decoder allocated).
DECODE_DICT_ENTRIES = "decode.dict_entries"
#: Adaptive-variant flushes the decoder mirrored.
DECODE_RESETS = "decode.resets"

# -- container counters ------------------------------------------------
CONTAINER_BYTES_WRITTEN = "container.bytes_written"
CONTAINER_BYTES_READ = "container.bytes_read"
CONTAINER_SEGMENTS_WRITTEN = "container.segments_written"
CONTAINER_SEGMENTS_READ = "container.segments_read"

# -- streaming (v5) container counters ---------------------------------
#: Input chunks fed to a StreamEncoder (any size, including empty).
STREAM_CHUNKS_FED = "stream.chunks_fed"
#: v5 data frames written (terminal frames not counted).
STREAM_FRAMES_WRITTEN = "stream.frames_written"
#: v5 data frames read and structurally validated.
STREAM_FRAMES_READ = "stream.frames_read"
#: Complete frames recovered by salvage from a damaged v5 container.
STREAM_FRAMES_SALVAGED = "stream.frames_salvaged"

# -- batch-engine counters ---------------------------------------------
BATCH_WORKLOADS = "batch.workloads"
BATCH_SHARDS = "batch.shards"
#: Shard attempts re-submitted by the supervisor after a failure.
BATCH_RETRIES = "batch.retries"
#: Pool-break events (a worker process died, e.g. SIGKILL/OOM).
BATCH_WORKER_CRASHES = "batch.worker_crashes"
#: Shard attempts abandoned because they exceeded the shard timeout.
BATCH_TIMEOUTS = "batch.timeouts"
#: Shards recovered by the inline (serial) fallback after pool retries.
BATCH_DEGRADED_SHARDS = "batch.degraded_shards"
#: Shards given up on under ``on_failure="skip"`` (surfaced as ShardError).
BATCH_SKIPPED_SHARDS = "batch.skipped_shards"
#: Shards restored from a checkpoint journal instead of re-encoded.
BATCH_JOURNAL_HITS = "batch.journal_hits"
#: Shards encoded from a warm (preamble or chained) dictionary seed.
BATCH_SEEDED_SHARDS = "batch.seeded_shards"
#: Chained seeds re-derived from the predecessor's codes because the
#: shipped final-state snapshot was missing or unreadable.
BATCH_SEED_REDERIVATIONS = "batch.seed_rederivations"

# -- service counters (repro serve) ------------------------------------
#: Requests fully received and parsed off a client connection.
SERVICE_REQUESTS = "service.requests"
#: Requests admitted to the work queue.
SERVICE_ACCEPTED = "service.accepted"
#: Requests that produced a successful reply.
SERVICE_COMPLETED = "service.completed"
#: Requests that produced a typed error reply (bad input, internal).
SERVICE_ERRORS = "service.errors"
#: Requests shed by admission control (queue full or rate limited).
SERVICE_SHED = "service.shed"
#: Requests rejected or aborted because their deadline expired.
SERVICE_DEADLINE_EXCEEDED = "service.deadline_exceeded"
#: Requests rejected because the circuit breaker was open.
SERVICE_BREAKER_OPEN = "service.breaker_open"
#: Requests shed because the server was draining (includes queued
#: requests flushed with a typed reply at drain time).
SERVICE_DRAINED = "service.drained"
#: Connections dropped for protocol violations (garbage, oversized,
#: slow clients that blew the I/O budget).
SERVICE_PROTOCOL_ERRORS = "service.protocol_errors"
#: Replies that could not be delivered (client hung up mid-request).
SERVICE_DISCONNECTS = "service.disconnects"

# -- fleet counters (repro fleet dispatcher) ---------------------------
#: Requests routed by the dispatcher (cache hits included).
FLEET_REQUESTS = "fleet.requests"
#: Compress requests served from the verified result cache.
FLEET_CACHE_HITS = "fleet.cache_hits"
#: Cacheable requests that had no (valid) cache entry.
FLEET_CACHE_MISSES = "fleet.cache_misses"
#: Cache entries that failed CRC/digest verification on read; each one
#: is unlinked and treated as a miss — corrupt bytes are never served.
FLEET_CACHE_CORRUPT = "fleet.cache_corrupt"
#: Cache entries removed to enforce the entry-count bound.
FLEET_CACHE_EVICTIONS = "fleet.cache_evictions"
#: Requests retried on another backend after an infrastructure failure.
FLEET_FAILOVERS = "fleet.failovers"
#: Tail-latency hedges launched against a secondary backend.
FLEET_HEDGES = "fleet.hedges"
#: Hedged requests where the secondary's reply was used.
FLEET_HEDGE_WINS = "fleet.hedge_wins"
#: Backend transport/infrastructure failures observed by the dispatcher.
FLEET_BACKEND_ERRORS = "fleet.backend_errors"
#: Requests shed with a typed 503 because no healthy backend remained.
FLEET_NO_BACKENDS = "fleet.no_backends"
#: Health probes that failed (connect error, timeout, bad reply).
FLEET_PROBE_FAILURES = "fleet.probe_failures"

# -- histograms --------------------------------------------------------
#: LZW phrase lengths, in characters.
HIST_PHRASE_LEN = "encode.phrase_len_chars"
#: Don't-care bits resolved per phrase.
HIST_XBITS_PER_PHRASE = "encode.xbits_per_phrase"
#: Codes emitted keyed by their bit width ``C_E``.
HIST_CODES_PER_WIDTH = "encode.codes_per_width"
#: End-to-end request latency, bucketed to whole milliseconds.
HIST_REQUEST_LATENCY_MS = "service.request_latency_ms"
#: Dispatcher routing overhead (fingerprint + backend selection +
#: cache lookup), bucketed to whole milliseconds.
HIST_ROUTING_LATENCY_MS = "fleet.routing_latency_ms"
