"""Seeded input generators for the benchmark workloads.

Standard library only and independent of ``topogen``: the program receives
nothing but the generated inputs.  The same (workload, seed, pass index)
always gives byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import random
from functools import lru_cache

# Per pass: one user-queries document, or this many enumerate-sweep fibrations.
MAPS_PER_DOCUMENT = 4
FIBRATIONS_PER_PASS = 3


@lru_cache(maxsize=None)
def topologies(n: int) -> tuple[tuple[int, ...], ...]:
    """All labelled topologies on n points as sorted open-mask tuples.

    Built from specialisation preorders (opens are the up-sets), which is
    independent of the program's own enumerators.
    """
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    found = set()
    for bits in range(1 << len(pairs)):
        up = [1 << i for i in range(n)]          # up[i]: points j with i <= j
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                up[i] |= 1 << j
        if any(up[j] & ~up[i] for i in range(n) for j in range(n) if up[i] >> j & 1):
            continue                              # not transitive
        found.add(tuple(
            u for u in range(1 << n)
            if all(up[i] & ~u == 0 for i in range(n) if u >> i & 1)
        ))
    return tuple(sorted(found))


def is_continuous(graph, dom_opens, cod_opens) -> bool:
    dom = set(dom_opens)
    for v in cod_opens:
        pre = sum(1 << x for x, fx in enumerate(graph) if v >> fx & 1)
        if pre not in dom:
            return False
    return True


def render_set(mask: int) -> str:
    return "{" + ",".join(str(i) for i in range(mask.bit_length()) if mask >> i & 1) + "}"


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def user_queries_input(seed: int, index: int) -> tuple[dict, str]:
    """(manifest, document text) for one user-queries pass.

    The document holds three distinct spaces drawn from the 355 labelled
    topologies on 4 points (16-element subobject lattices) and continuous,
    non-identity maps between them.
    """
    rng = _rng("user-queries", seed, index)
    spaces = rng.sample(topologies(4), 3)
    names = [f"s{i}" for i in range(len(spaces))]
    maps = []
    while len(maps) < MAPS_PER_DOCUMENT:
        src, tgt = rng.randrange(3), rng.randrange(3)
        graphs = [
            g for g in _graphs(4, 4)
            if is_continuous(g, spaces[src], spaces[tgt])
            and not (src == tgt and g == (0, 1, 2, 3))
        ]
        maps.append((f"m{len(maps)}", src, tgt, rng.choice(graphs)))
    lines = [f"# user-queries seed={seed} pass={index}"]
    for name, opens in zip(names, spaces):
        lines.append(f"space {name}: points=4; opens={','.join(map(render_set, opens))}")
    for name, src, tgt, graph in maps:
        lines.append(
            f"map {name}: from={names[src]}; to={names[tgt]}; graph={','.join(map(str, graph))}"
        )
    manifest = {
        "spaces": [list(s) for s in spaces],
        "names": names,
        "maps": [[name, src, tgt, list(graph)] for name, src, tgt, graph in maps],
    }
    return manifest, "\n".join(lines) + "\n"


@lru_cache(maxsize=None)
def _graphs(n_dom: int, n_cod: int):
    return tuple(itertools.product(range(n_cod), repeat=n_dom))


def enumerate_sweep_input(seed: int, index: int) -> dict:
    """Space lists for one enumerate-sweep pass: the point, one 2-point space
    and two distinct 3-point spaces per fibration."""
    rng = _rng("enumerate-sweep", seed, index)
    fibrations = []
    for _ in range(FIBRATIONS_PER_PASS):
        two = rng.choice(topologies(2))
        three_a, three_b = rng.sample(topologies(3), 2)
        fibrations.append([[0, 1], list(two), list(three_a), list(three_b)])
    return {"fibrations": fibrations}


def write_input(workload: str, seed: int, index: int, workdir) -> str:
    """Write the inputs of one pass under ``workdir``; return the manifest path."""
    manifest = {"workload": workload, "seed": seed, "index": index}
    if workload == "user-queries":
        data, text = user_queries_input(seed, index)
        doc = workdir / f"uq-{seed}-{index}.topo"
        doc.write_text(text, encoding="utf-8")
        manifest.update(data, document=str(doc))
    elif workload == "enumerate-sweep":
        manifest.update(enumerate_sweep_input(seed, index))
    path = workdir / f"{workload}-{seed}-{index}.json"
    path.write_text(json.dumps(manifest, sort_keys=True), encoding="utf-8")
    return str(path)
