"""Inertias of partial transposes of bipartite states.

Core objects: :class:`~ptinertia.states.State` carries a bipartite matrix
with its local dimensions, :func:`~ptinertia.states.partial_transpose` and
:func:`~ptinertia.inertia.inertia_of` compute the signature triple, the
:mod:`~ptinertia.catalog` holds reference families with certified inertias,
and :mod:`~ptinertia.search` runs the reproducible randomized hunt.
"""

from .linalg import Inertia, TOL_ZERO, herm_eig, spectrum_inertia
from .states import (SchmidtDecomposition, State, dm_from_kets, ket_vector,
                     partial_transpose, pt_array, random_state, schmidt)
from .inertia import embed, inertia_of, pt_inertia
from .exact import ExactMatrix, GaussianRational, exact_inertia
from .catalog import (build, build_exact, chain_seed, entry_ids, lemma3n_family,
                      verify, verify_all)
from .tables import inertia_table, table1_report
from .witness import Witness, is_witness, min_product_expectation
from .search import Alarm, SearchConfig, SearchRecord, replay, run_search

__all__ = [
    "Alarm", "ExactMatrix", "GaussianRational", "Inertia",
    "SchmidtDecomposition", "SearchConfig", "SearchRecord", "State",
    "TOL_ZERO", "Witness",
    "build", "build_exact", "chain_seed", "dm_from_kets", "embed",
    "entry_ids", "exact_inertia", "herm_eig", "inertia_of", "inertia_table",
    "is_witness", "ket_vector", "lemma3n_family", "min_product_expectation",
    "partial_transpose", "pt_array", "pt_inertia", "random_state", "replay",
    "run_search", "schmidt", "spectrum_inertia", "table1_report", "verify",
    "verify_all",
]

__version__ = "0.1.0"
