"""Capability of two-generator 2-groups of class two, with verified witnesses.

Layers, bottom up, each importing only layers below it: exact normal-form
arithmetic in the free class-three group (:mod:`hall_core`) and the error
types (:mod:`errors`); relation lattices (:mod:`lattice`) and the
operations every group object derives from its law (:mod:`group`);
brute-force referees (:mod:`oracle`), which cannot import the models they
referee; the class-two classification models (:mod:`class2`);
the finite ambient quotients (:mod:`nilprod`); the capability decision with
witness construction and verification (:mod:`capability`); and a batch CLI
(:mod:`cli`).  ``tests/test_layers.py`` pins this order.
"""

from .capability import (
    LemmaOutcome,
    Report,
    Verdict,
    WitnessSpec,
    build_witness,
    commutator_order_condition,
    decide,
    exceptional_obstruction_check,
    lemma_check_commcond,
    lemma_check_halfstep,
    order_conditions,
    small_witness,
    verify_witness,
)
from .class2 import (
    Class2Group,
    Fingerprint,
    TypeParams,
    fingerprint,
    model,
    type_i,
    type_ii,
    type_iii,
    validate,
)
from .errors import (
    BuildIntegrityError,
    CentralityError,
    EnumerationBudgetError,
    NotCapableError,
    ParameterError,
    RankDeficientError,
)
from .hall_core import FreeElt, binom2, commutator, mul, power
from .lattice import CommLattice, canonical_basis
from .nilprod import GroupSpec, NilGroup, build
from .oracle import GroupTable, collect_word, word_of

__all__ = [
    "BuildIntegrityError",
    "CentralityError",
    "Class2Group",
    "CommLattice",
    "EnumerationBudgetError",
    "Fingerprint",
    "FreeElt",
    "GroupSpec",
    "GroupTable",
    "LemmaOutcome",
    "NilGroup",
    "NotCapableError",
    "ParameterError",
    "RankDeficientError",
    "Report",
    "TypeParams",
    "Verdict",
    "WitnessSpec",
    "binom2",
    "build",
    "build_witness",
    "canonical_basis",
    "collect_word",
    "commutator",
    "commutator_order_condition",
    "decide",
    "exceptional_obstruction_check",
    "fingerprint",
    "lemma_check_commcond",
    "lemma_check_halfstep",
    "model",
    "mul",
    "order_conditions",
    "power",
    "small_witness",
    "type_i",
    "type_ii",
    "type_iii",
    "validate",
    "verify_witness",
    "word_of",
]
