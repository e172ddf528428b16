"""Inertia-set reports per dimension pair, with witnesses re-run on demand.

The candidate universe for an (m, n) report is every triple summing to m*n
with 1 <= v_minus <= (m-1)(n-1) and v_plus >= 3 (the generic witness bounds);
triples outside the universe are excluded a priori and not listed.  Within
the universe each triple is classified realized (with a live witness),
forbidden (with the exclusion reason), or open.  The three sets partition
the universe: InertiaSetReport refuses a triple listed twice, one left
out, or one outside the universe.

The 3x3 report takes its witnesses from the catalog's arr13_* entries.
Every other report, 2xN and 3xN alike, takes them from one builder,
catalog.lemma3n_family(n, m=m): 2 x n chain seeds with j product basis
states lifted.  table1_report verifies every edge it lists on its state.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import catalog
from .inertia import Inertia, embed, pt_inertia
from .linalg import TOL_ZERO

FORBIDDEN_33 = {
    Inertia(2, 4, 3): "kernel of the PT contains two product basis states, "
                      "forcing one of the thirteen realizable triples",
    Inertia(3, 3, 3): "kernel product-vector analysis for three-dimensional "
                      "non-positive eigenspaces",
    Inertia(4, 2, 3): "kernel product-vector analysis for two-dimensional "
                      "kernels with max negative count",
}

OPEN_33 = {Inertia(3, 2, 4), Inertia(4, 1, 4)}


@dataclass
class InertiaSetReport:
    dims: tuple[int, int]
    realized: dict[Inertia, str]
    forbidden: dict[Inertia, str]
    open: set[Inertia]

    def __post_init__(self):
        listed = Counter([*self.realized, *self.forbidden, *self.open])
        universe = set(_universe(*self.dims))
        faults = {"listed twice": [t for t, k in listed.items() if k > 1],
                  "unclassified": universe - listed.keys(),
                  "outside the candidate universe": listed.keys() - universe}
        found = "; ".join(f"{what} {', '.join(map(str, sorted(triples)))}"
                          for what, triples in faults.items() if triples)
        if found:
            raise ValueError(f"realized/forbidden/open must partition the "
                             f"candidate universe: {found}")


def _universe(m: int, n: int) -> list[Inertia]:
    d = m * n
    out = []
    for neg in range(1, (m - 1) * (n - 1) + 1):
        for pos in range(3, d - neg + 1):
            out.append(Inertia(neg, d - neg - pos, pos))
    return out


def inertia_table(m: int, n: int, tol_zero: float = TOL_ZERO) -> InertiaSetReport:
    """Realized/forbidden/open classification for PT inertias of (m,n) states.

    Supported dims: (2,n) for n >= 2 and (3,n) for n >= 2 (which covers the
    fully worked (2,2), (2,3) and (3,3) cases).  Every realized triple is
    re-certified by running its witness construction now.  For (2,n) with
    n <= 3 the unrealized triples are forbidden by the complete 2xN
    classification; elsewhere, outside (3,3), they are open.
    """
    if m > n:
        m, n = n, m  # inertia sets are symmetric under system swap
    if m not in (2, 3) or n < 2:
        raise ValueError(f"unsupported dims ({m},{n}); need m in {{2,3}} and n >= 2")

    if (m, n) == (3, 3):
        realized: dict[Inertia, str] = {}
        for entry_id in catalog.entry_ids():
            if not entry_id.startswith("arr13_"):
                continue
            result = catalog.verify(entry_id, tol_zero)
            if not result.passed:
                raise RuntimeError(f"catalog witness {entry_id} failed re-verification")
            realized.setdefault(result.expected, entry_id)
        return InertiaSetReport((3, 3), realized, dict(FORBIDDEN_33), set(OPEN_33))

    desc = ("chain_seed(n={n}, k={t.neg}) with {lifted} kernel states lifted"
            if m == 2 else "3xN chain family witness for {t}")
    realized = {t: desc.format(n=n, t=t, lifted=t.pos - t.neg - 2)
                for t, _state in catalog.lemma3n_family(n, tol_zero=tol_zero, m=m)}
    rest = [t for t in _universe(m, n) if t not in realized]
    if m == 2 and n <= 3:
        reason = "complete classification of 2xN inertias for N <= 3"
        return InertiaSetReport((m, n), realized, dict.fromkeys(rest, reason), set())
    return InertiaSetReport((m, n), realized, {}, set(rest))


@dataclass(frozen=True)
class TableEdge:
    source: Inertia
    target: Inertia
    how: str


# Table 1: each 2x3 seed's catalog id, then its edges in order.  An embedding
# edge is (target, lift, lift_kernel); a paired edge is (target, 2x3 id, 3x3 id).
# The (2,0,4) seed's PT has no kernel, so lifting it would change nothing.
TABLE1 = [
    ("pure23_r2", [((1, 5, 3), 0, False), ((1, 4, 4), 1, False), ((1, 3, 5), 2, False),
                   ((1, 2, 6), 3, False), ((1, 1, 7), 2, True), ((1, 0, 8), 3, True)]),
    ("arr23_xi", [((3, 0, 6), "arr23_xi", "arr13_xi")]),
    ("arr23_xii", [((2, 3, 4), 0, False), ((2, 2, 5), 1, False), ((2, 1, 6), 2, False),
                   ((2, 0, 7), 3, False), ((3, 1, 5), "arr23_xii", "arr13_xii"),
                   ((4, 0, 5), "arr23_xiii", "arr13_xiii")]),
]


def table1_report(tol_zero: float = TOL_ZERO) -> dict[Inertia, list[TableEdge]]:
    """Mapping from 2x3 inertias to the 3x3 inertias they generate.

    Three groups (TABLE1): (1,2,3) feeds the six v_minus=1 triples through
    corner embeddings (with and without kernel lifting); (1,1,4) pairs with
    the (3,0,6) family; (2,0,4) feeds the four v_minus=2 triples through
    embeddings and pairs with the (3,1,5) and (4,0,5) families.  Every seed
    and edge is re-verified on the spot: an embedding edge on its embedded
    state, a paired-family edge on the target family's catalog state.
    """
    groups: dict[Inertia, list[TableEdge]] = {}
    for seed_id, edges in TABLE1:
        seed = catalog.build(seed_id)
        source = catalog.expected_inertia(seed_id)
        witnesses = [(seed, source, seed_id)]
        for target, *edge in edges:
            if isinstance(edge[0], int):
                lift, lift_kernel = edge
                state = embed(seed, 3, 3, lift, lift_kernel=lift_kernel, tol_zero=tol_zero)
                how = f"embed(lift={lift}{', kernel lifted' if lift_kernel else ''})"
            else:
                pair_23, pair_33 = edge
                state, how = catalog.build(pair_33), f"paired family {pair_23} -> {pair_33}"
            witnesses.append((state, Inertia(*target), how))
        for state, want, how in witnesses:
            got = pt_inertia(state, tol_zero)
            if got != want:
                raise RuntimeError(f"witness {how} produced {got}, expected {want}")
        groups[source] = [TableEdge(source, want, how) for _, want, how in witnesses[1:]]
    return groups
