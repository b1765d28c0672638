"""Golden-file regression suite: the compressed artefacts are frozen.

For a small fixed corpus (three tiny synthetic workloads × three LZW
configurations) this locks down, per case:

* the serial path — compressed bit count, code count, ratio and the
  SHA-256 of the container bytes (v2; v4 under ``reset_on_full``);
* the batch path — segment count and the SHA-256 of the multi-segment
  container produced by a fixed pattern-aligned shard plan;
* that every pinned container reads back: ``decode_container`` of its
  bytes covers the input (a digest pins the bytes, not that their own
  reader accepts them);
* the recorder-counter snapshot of the serial ``compress`` (encode plus
  assign, which runs no decoder) — the per-decision event counts
  (dictionary allocations, C_MDATA truncations, X bits resolved, ...)
  that byte digests cannot localise: a digest mismatch says
  *something* changed, the counter diff says *which decision site*.

Every case runs on *both* engines against the same frozen entry: the
packed matcher (``"fast"``) and the oracle inside ``reference_engine()``
(``"reference"``).  The packed matcher must reproduce the oracle's
artefacts exactly (codes imply the X assignments — a divergent
tie-break is silent corruption), so an engine-specific digest would be
a bug, not a reason to regenerate.  Each encode path of a case also
counts the oracle's decisions, so a swap that misses a path fails
instead of comparing the packed matcher with itself.

Any change to the encoder, the don't-care heuristics, the shard
planner or the container framings shows up here as a digest mismatch.
If (and only if) the change is an intentional format or algorithm
change, regenerate the goldens with::

    PYTHONPATH=src python -m pytest tests/golden --update-golden

and commit the updated ``golden.json`` alongside the code change.
"""

import functools
import hashlib
import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from unittest import mock

import pytest

from repro.container import decode_container, dump_bytes
from repro.core import LZWConfig, LZWEncoder, compress, compress_batch
from repro.core.dontcare import ChildSelector, reference_engine
from repro.observability import CounterRecorder
from repro.parallel import plan_shards
from repro.workloads import build_testset

GOLDEN_PATH = Path(__file__).parent / "golden.json"

REGENERATE_HINT = (
    "If this change is intentional, regenerate the golden file with:\n"
    "  PYTHONPATH=src python -m pytest tests/golden --update-golden\n"
    "and commit tests/golden/golden.json with your change."
)

#: (workload name, scale) — tiny slices of the paper's benchmarks.
WORKLOADS = (
    ("s5378f", 0.12),
    ("s9234f", 0.08),
    ("s35932f", 0.25),
)

#: Named LZW configurations covering the interesting regimes.
CONFIGS = {
    "small": LZWConfig(char_bits=3, dict_size=32, entry_bits=12),
    "paper": LZWConfig(char_bits=7, dict_size=1024, entry_bits=63),
    "adaptive": LZWConfig(
        char_bits=5, dict_size=256, entry_bits=30, reset_on_full=True
    ),
}

CASES = [
    (workload, scale, config_name)
    for workload, scale in WORKLOADS
    for config_name in CONFIGS
]

#: Warm-dictionary batch cases: the same corpus compressed through the
#: seed planner.  ``preamble`` trains a shared snapshot on the leading
#: bits; ``wave`` chains each shard from its predecessor's final trie.
#: Frozen separately from the cold cases (`<workload>/<config>/<mode>`
#: keys) so adding them churned no existing digest.
WARM_MODES = ("preamble", "wave")

WARM_CASES = [
    (workload, scale, config_name, mode)
    for workload, scale in WORKLOADS
    for config_name in CONFIGS
    for mode in WARM_MODES
]


def _case_key(workload: str, config_name: str) -> str:
    return f"{workload}/{config_name}"


@functools.lru_cache(maxsize=None)
def _testset(workload: str, scale: float):
    return build_testset(workload, scale=scale)


@contextmanager
def _on(engine: str, path: str):
    """Encode on ``engine`` in the block; the oracle must decide iff it
    is ``"reference"`` (``path`` names the encode for the message)."""
    calls = []
    original = ChildSelector.choose_base

    def counting(self, *args):
        calls.append(None)
        return original(self, *args)

    swap = reference_engine() if engine == "reference" else nullcontext()
    with mock.patch.object(ChildSelector, "choose_base", counting), swap:
        yield
    assert bool(calls) == (engine == "reference"), (
        f"{path} on engine={engine} made {len(calls)} oracle decisions"
    )


def _compute_case(
    workload: str, scale: float, config_name: str, engine: str = "reference"
) -> dict:
    """Everything the golden file freezes for one (workload, config).

    ``engine`` selects the matcher; both must reproduce the *same*
    frozen artefacts (the packed matcher is locked byte-identical to
    the oracle), so the golden file stores one entry per case and the
    comparison runs once per engine with zero digest churn.
    """
    test_set = _testset(workload, scale)
    stream = test_set.to_stream()
    config = CONFIGS[config_name]

    recorder = CounterRecorder()
    with _on(engine, "compress"):
        result = compress(stream, config, recorder=recorder)
    container = dump_bytes(result.compressed, result.assigned_stream)

    plan = plan_shards(len(stream), max(1, len(stream) // 3), test_set.width)
    with _on(engine, "compress_batch"):
        item = compress_batch(config, [stream], workers=1, plans=[plan])[0]
    assert item.verify(stream)
    assert decode_container(container) == result.assigned_stream
    assert decode_container(item.container).covers(stream)

    return {
        "original_bits": result.original_bits,
        "num_codes": result.compressed.num_codes,
        "compressed_bits": result.compressed_bits,
        "ratio_percent": round(result.ratio_percent, 6),
        "container_sha256": hashlib.sha256(container).hexdigest(),
        "batch_segments": item.num_shards,
        "batch_compressed_bits": item.compressed_bits,
        "batch_container_sha256": hashlib.sha256(item.container).hexdigest(),
        # Deterministic recorder snapshot of the serial pass (counters
        # and histograms only — spans carry timings and are excluded).
        "counters": recorder.snapshot()["counters"],
        "histograms": recorder.snapshot()["histograms"],
    }


def _compute_warm_case(
    workload: str,
    scale: float,
    config_name: str,
    mode: str,
    engine: str = "reference",
) -> dict:
    """The frozen artefacts of one warm-seeded batch case.

    The v4 container digest pins the snapshot serialization, the blob
    table layout and the seeded code streams all at once; the counter
    snapshot localises a mismatch to the decision site (seeded encodes
    shift dictionary-allocation and X-resolution counts relative to
    cold).  Both engines must reproduce the same entry.
    """
    test_set = _testset(workload, scale)
    stream = test_set.to_stream()
    config = CONFIGS[config_name]
    plan = plan_shards(len(stream), max(1, len(stream) // 3), test_set.width)
    recorder = CounterRecorder()
    with _on(engine, f"compress_batch seed_plan={mode}"):
        item = compress_batch(
            config,
            [stream],
            workers=1,
            plans=[plan],
            seed_plan=mode,
            recorder=recorder,
        )[0]
    assert item.verify(stream)
    assert decode_container(item.container).covers(stream)
    return {
        "segments": item.num_shards,
        "compressed_bits": item.compressed_bits,
        "ratio_percent": round(item.ratio_percent, 6),
        "container_sha256": hashlib.sha256(item.container).hexdigest(),
        "counters": recorder.snapshot()["counters"],
        "histograms": recorder.snapshot()["histograms"],
    }


def test_update_golden(request):
    """With ``--update-golden``: rewrite the golden file; otherwise skip."""
    if not request.config.getoption("--update-golden"):
        pytest.skip("comparison mode (pass --update-golden to regenerate)")
    data = {
        _case_key(workload, config_name): _compute_case(workload, scale, config_name)
        for workload, scale, config_name in CASES
    }
    data.update(
        {
            f"{_case_key(workload, config_name)}/{mode}": _compute_warm_case(
                workload, scale, config_name, mode
            )
            for workload, scale, config_name, mode in WARM_CASES
        }
    )
    GOLDEN_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize(
    "workload,scale,config_name",
    CASES,
    ids=[_case_key(w, c) for w, _s, c in CASES],
)
def test_golden_case(request, workload, scale, config_name, engine):
    if request.config.getoption("--update-golden"):
        pytest.skip("regenerating golden file")
    if not GOLDEN_PATH.exists():
        pytest.fail(f"{GOLDEN_PATH} is missing.\n{REGENERATE_HINT}")
    golden = json.loads(GOLDEN_PATH.read_text())
    key = _case_key(workload, config_name)
    if key not in golden:
        pytest.fail(f"golden file has no entry for {key}.\n{REGENERATE_HINT}")
    actual = _compute_case(workload, scale, config_name, engine)
    expected = golden[key]
    mismatches = {
        field: (expected.get(field), actual[field])
        for field in actual
        if actual[field] != expected.get(field)
    }
    assert not mismatches, (
        f"golden mismatch for {key} (engine={engine}): "
        + ", ".join(
            f"{field} expected {want!r} got {got!r}"
            for field, (want, got) in sorted(mismatches.items())
        )
        + f"\n{REGENERATE_HINT}"
    )


@pytest.mark.parametrize("engine", ["reference", "fast"])
@pytest.mark.parametrize(
    "workload,scale,config_name,mode",
    WARM_CASES,
    ids=[f"{_case_key(w, c)}/{m}" for w, _s, c, m in WARM_CASES],
)
def test_golden_warm_case(request, workload, scale, config_name, mode, engine):
    if request.config.getoption("--update-golden"):
        pytest.skip("regenerating golden file")
    if not GOLDEN_PATH.exists():
        pytest.fail(f"{GOLDEN_PATH} is missing.\n{REGENERATE_HINT}")
    golden = json.loads(GOLDEN_PATH.read_text())
    key = f"{_case_key(workload, config_name)}/{mode}"
    if key not in golden:
        pytest.fail(f"golden file has no entry for {key}.\n{REGENERATE_HINT}")
    actual = _compute_warm_case(workload, scale, config_name, mode, engine)
    expected = golden[key]
    mismatches = {
        field: (expected.get(field), actual[field])
        for field in actual
        if actual[field] != expected.get(field)
    }
    assert not mismatches, (
        f"golden mismatch for {key} (engine={engine}): "
        + ", ".join(
            f"{field} expected {want!r} got {got!r}"
            for field, (want, got) in sorted(mismatches.items())
        )
        + f"\n{REGENERATE_HINT}"
    )


def test_table3_ratio_pin_through_fast_path():
    """Paper Table 3 headline, full scale, via the packed matcher.

    s13207f at the paper configuration (C_C=7, N=1024, C_MDATA=63) must
    reproduce the repo's frozen ratio exactly *and* meet the paper's
    reported 80.69% — run through the shipping encoder so the ratio pin
    and the speedup path are the same code.  Only the packed matcher
    makes a full-scale pin cheap enough for tier-1.
    """
    from repro.workloads import BENCHMARKS, build_testset

    config = LZWConfig(char_bits=7, dict_size=1024, entry_bits=63)
    stream = build_testset("s13207f", scale=1.0).to_stream()
    compressed = LZWEncoder(config).encode(stream)
    assert compressed.original_bits == 165200
    assert compressed.num_codes == 2933  # frozen code count
    assert compressed.ratio_percent == pytest.approx(82.245763, abs=1e-4)
    assert compressed.ratio_percent >= BENCHMARKS["s13207f"].paper_lzw  # 80.69
