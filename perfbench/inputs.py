"""Seeded benchmark inputs and their description.

Every workload draws its inputs from the benchmark's ``--seed``: the
seven ``DEFAULT_CORPUS`` circuits, each synthesized under its own
successive seed by ``repro.workloads.build_testset``.  The description
(original bits, X-density, Lempel-Ziv complexity) is computed after the
timed phase, never inside it or inside ``setup_s``.
"""

from __future__ import annotations

import math
from typing import Dict, List, NamedTuple

from repro import LZWConfig, TernaryVector
from repro.circuit.scan import TestSet
from repro.workloads import DEFAULT_CORPUS, build_testset, get_benchmark

#: The paper configuration every workload uses (C_C=7, N=1024, C_MDATA=63).
CONFIG = LZWConfig()

#: Lempel-Ziv complexity is computed over at most this many leading
#: symbols of each input, which bounds its cost on large inputs.
LZ_MAX_SYMBOLS = 1 << 14


class Input(NamedTuple):
    circuit: str
    seed: int
    testset: TestSet
    stream: TernaryVector


#: Corpora per run.  Cycling through several seeds per run averages out
#: how well one seed's synthetic cubes happen to compress, which
#: otherwise dominates the run-to-run spread of the ratios.
GROUPS = 8


def corpora(seed: int, scale: float) -> List[List[Input]]:
    """:data:`GROUPS` corpora of the seven circuits, under successive
    seeds derived from the run's ``seed``."""
    out = []
    for group in range(GROUPS):
        inputs = []
        for index, name in enumerate(DEFAULT_CORPUS):
            circuit_seed = (seed * GROUPS + group) * len(DEFAULT_CORPUS) + index
            testset = build_testset(name, scale=scale, seed=circuit_seed)
            inputs.append(Input(name, circuit_seed, testset, testset.to_stream()))
        out.append(inputs)
    return out


def lz76_components(text: str) -> int:
    """Lempel-Ziv (1976) complexity: the number of exhaustive-history phrases.

    Each phrase is the shortest substring starting at ``i`` that does not
    occur earlier (overlap allowed), as in Kaspar & Schuster's scheme and
    Ruffini's reference.  The search resumes from the last match, so the
    scan runs at C speed.
    """
    n = len(text)
    components = 0
    i = 0
    while i < n:
        length = 1
        found = 0
        while i + length <= n:
            found = text.find(text[i : i + length], found, i + length - 1)
            if found < 0:
                break
            length += 1
        components += 1
        i += length
    return components


def lz_complexity(stream: TernaryVector) -> Dict[str, float]:
    """Normalised LZ76 complexity of a stream prefix (X is its own symbol).

    Normalised as ``c * log_k(n) / n`` for an alphabet of ``k`` symbols,
    so an i.i.d. uniform sequence scores about 1 and structured test
    data scores far below.
    """
    text = str(stream[:LZ_MAX_SYMBOLS])
    n = len(text)
    components = lz76_components(text)
    alphabet = max(2, len(set(text)))
    normalised = components * math.log(n, alphabet) / n if n > 1 else 0.0
    return {
        "symbols": n,
        "components": components,
        "normalised": round(normalised, 4),
    }


def describe(inputs: List[Input]) -> List[Dict[str, object]]:
    """Per-input record: seed, size, X-density and LZ complexity beside
    the paper's published profile of the same circuit."""
    rows = []
    for item in inputs:
        paper = get_benchmark(item.circuit)
        rows.append(
            {
                "circuit": item.circuit,
                "seed": item.seed,
                "original_bits": len(item.stream),
                "x_density_percent": round(100.0 * item.stream.x_density, 2),
                "lz_complexity": lz_complexity(item.stream),
                "paper": {
                    "vectors": paper.vectors,
                    "width": paper.width,
                    "x_percent": paper.x_percent,
                    "total_bits": paper.total_bits,
                },
            }
        )
    return rows
