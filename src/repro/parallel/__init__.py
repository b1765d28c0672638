"""Parallel sharded batch compression (see DESIGN.md, "Batch engine").

Public surface:

* :class:`ShardPlan` / :func:`plan_shards` — explicit, pattern-aligned
  cut plans;
* :func:`compress_batch` — encode many workloads (optionally sharded)
  across a supervised process pool, returning per-workload
  :class:`BatchItemResult`\\ s whose containers are bit-identical for
  any worker count and any crash/retry schedule;
* :class:`RetryPolicy` / :func:`run_supervised` — the fault-tolerant
  execution layer (retries, per-shard timeouts, pool respawn,
  degrade/skip policies);
* :class:`ShardJournal` / :func:`batch_fingerprint` — the
  shard-completion checkpoint behind ``repro batch --checkpoint/--resume``;
* :class:`SeedPlan` / :func:`train_preamble` — warm-dictionary seeding
  strategies (``cold`` / ``preamble`` / ``wave``) behind
  ``repro batch --seed-mode``.

A pool worker runs :mod:`repro.parallel.worker` alone.  The names here
load on first use (PEP 562), so a worker never imports the engine or
the supervisor behind them.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "BatchItemResult": ".engine",
    "compress_batch": ".engine",
    "ShardJournal": ".journal",
    "batch_fingerprint": ".journal",
    "COLD_PLAN": ".seeding",
    "SEED_MODES": ".seeding",
    "SeedPlan": ".seeding",
    "train_preamble": ".seeding",
    "ShardPlan": ".shard",
    "plan_shards": ".shard",
    "ON_FAILURE_POLICIES": ".supervisor",
    "RetryPolicy": ".supervisor",
    "run_supervised": ".supervisor",
    "ShardResult": ".worker",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
