"""Output checks for the mining workloads.

Every query's answer is reduced to digests before the next query runs:

* ``full_digest`` covers everything a pattern carries (graph, diameter,
  support, sorted embeddings); repetitions of one query within a run must
  agree on it.
* ``shape_digest`` drops the embeddings' data-vertex ids (keeping their
  count).  Seeds only permute data-vertex ids, so it is pinned for every
  seed.
* ``pattern_set_sha256`` is computed exactly as in
  ``benchmarks/test_levelgrow_scaling.py``; it is pinned for the default
  seed only, because embeddings name data vertices.

Every pattern is also checked against its constraint's predicate and the
query's support threshold.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, Iterable, List, Optional

#: query label -> (pattern count, shape_digest on every seed,
#:                 pattern_set_sha256 on the default seed)
PINS: Dict[str, tuple] = {
    "skinny(delta=1,length=5;s=3)": (
        5041,
        "ef05416d5cd98fef9e0e37edb810f9f48d59aab4fe33f9eafa4ce49f54cd6753",
        "595b0e04749ace6310181fb945e1775b27a40002a12004609c53d1496792677b",
    ),
    "diam-le(k=2,max_edges=5;s=2)": (
        205,
        "453d59018473ef19e03d91f169b0077837318193c478f4c9f76bef9c3ef1d95f",
        "adfd69ebb5dc350977f0a4cee6f59fdc024fcd55d061d2ff072d997fad20f12d",
    ),
    "skinny(delta=1,length=2;s=8)": (
        10,
        "10f97a7645788e39a9c673495d47b83a8bf027e5b725cf6a161076b094076e30",
        "486d08df09765ada8175c74995aafac0d085467792ca6c3f7a5bf072d78a1e26",
    ),
    "path(length=2;s=8)": (
        8,
        "30ff437b07b91169d5a912550a6e03bdf4838111128180d112c47f3b6967d315",
        "b6a7216c7b59ae2424580c63347831743c50124512bfcd8f8f04e6738cc2e3d9",
    ),
    "skinny(delta=1,length=3;s=8)": (
        13,
        "4755df0b58e34d2269699ecb9d5c0a547b28dc53c72ce5e13b12c2cb405b9ea0",
        "55d44e0d7d9a3f668b44be9f06356fc21ee86f1813bf05929195e2050c88ec68",
    ),
    "path(length=3;s=8)": (
        7,
        "5487a4697dba910148a7735edf8b72171db24218d1699ca75ee00ff209e8c1ed",
        "b89f16efbfe06352d27f241d9d53aee5e795d1478110c4651c54963c02baafd9",
    ),
    "skinny(delta=1,length=4;s=8)": (
        9,
        "fd3b024e83747f20eb53d7f4842ebf902edbc0a38d6881c0e784e294b1609017",
        "02f8c8cc3d0b9d5c51a192bbfeac4c410feacb39bd6d17f2f7ab4ba084de2596",
    ),
    "path(length=4;s=8)": (
        4,
        "1ab6269b4a08c4d9ab3d1feb64a220abc8743cb399e1558c4a42c90431a2efc6",
        "028665766ad833ccdcc3f7df13b865d5a485779398ea8f29c68131e2b298de7a",
    ),
}


def query_label(constraint: str, params: Dict[str, object], min_support: int) -> str:
    body = ",".join(f"{name}={params[name]}" for name in sorted(params))
    return f"{constraint}({body};s={min_support})"


def _digest(rows: Iterable[str]) -> str:
    """Order-independent: hashes the sorted per-row hashes, one row alive at a time."""
    hashes = sorted(hashlib.sha256(row.encode()).digest() for row in rows)
    return hashlib.sha256(b"".join(hashes)).hexdigest()


def _structure(pattern) -> tuple:
    graph = pattern.graph
    return (
        sorted((vertex, str(graph.label_of(vertex))) for vertex in graph.vertices()),
        sorted(edge.endpoints() for edge in graph.edges()),
        list(pattern.diameter),
        pattern.support,
    )


def full_digest(patterns) -> str:
    return _digest(
        repr(_structure(p) + (sorted((e.graph_index, e.mapping) for e in p.embeddings),))
        for p in patterns
    )


def shape_digest(patterns) -> str:
    return _digest(repr(_structure(p) + (len(p.embeddings),)) for p in patterns)


def pattern_set_sha256(patterns) -> str:
    """Order-independent content hash, as ``benchmarks/test_levelgrow_scaling.py`` defines it."""
    rows = sorted(
        json.dumps(
            {
                "labels": sorted((v, str(p.graph.label_of(v))) for v in p.graph.vertices()),
                "edges": sorted(e.endpoints() for e in p.graph.edges()),
                "diameter": list(p.diameter),
                "support": p.support,
                "embeddings": sorted((e.graph_index, e.mapping) for e in p.embeddings),
            },
            sort_keys=True,
            default=list,
        )
        for p in patterns
    )
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def check_first_answer(
    label: str,
    patterns,
    predicate: Callable,
    min_support: int,
    max_edges: Optional[int],
    default_seed: bool,
) -> List[str]:
    """Problems with a query's first answer in a run (empty when it is right)."""
    problems: List[str] = []
    pin = PINS.get(label)
    if pin is None:
        return [f"{label}: no pinned answer"]
    count, shape, sha = pin
    if len(patterns) != count:
        problems.append(f"{label}: {len(patterns)} patterns, pinned {count}")
    if shape_digest(patterns) != shape:
        problems.append(f"{label}: shape digest differs from the pin")
    if default_seed and pattern_set_sha256(patterns) != sha:
        problems.append(f"{label}: pattern_set_sha256 differs from the pin")
    for pattern in patterns:
        if pattern.support < min_support:
            problems.append(f"{label}: support {pattern.support} below {min_support}")
            break
        if max_edges is not None and pattern.graph.num_edges() > max_edges:
            problems.append(f"{label}: {pattern.graph.num_edges()} edges over {max_edges}")
            break
        if not predicate(pattern.graph):
            problems.append(f"{label}: a pattern violates the constraint")
            break
    return problems
