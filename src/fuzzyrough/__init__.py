"""Fuzzy rough sets with Choquet aggregation over monotone measures."""

from .approx import (
    SimilarityRelation,
    build_similarity,
    lower_approximation,
    similarity_to_test,
    upper_approximation,
)
from .choquet import Valuation, choquet_integral, owa
from .classifier import AggregatorSpec, FittedModel, aggregate, comb_select, fit, predict
from .connectives import (
    complement,
    induced_conjunctor,
    implicator_eval,
    negator_eval,
    tnorm_eval,
)
from .data import DecisionSystem, ingest_csv
from .evaluation import (
    EvaluationReport,
    FoldPlan,
    balanced_accuracy,
    run_benchmark,
    stratified_kfold,
    wilcoxon_signed_rank,
)
# The function-style names of the measure families are their classes. They are
# bound here, not in measures, so that each class has one name in its module:
# perfbench/tracer.py wraps a class's chain_values once per name it finds.
from .measures import (
    AdditiveMeasure as additive_from_weights,
    FuzzyRemovalMeasure as fuzzy_removal,
    MonotoneMeasure,
    OrderedTwoSymmetricMeasure as ordered_two_symmetric,
    PartialExistentialMeasure as partial_existential,
    PartialUniversalMeasure as partial_universal,
    SymmetricMeasure as symmetric_from_quantifier,
    WowaMeasure as wowa_measure,
    dual_measure,
    measure_eval,
)
from .outliers import OutlierScores, label_outliers, lof_scores, normalize_scores, per_class_scores
from .quantifiers import (
    AdditiveQuantifier,
    ExistentialQuantifier,
    QuadraticQuantifier,
    RIMQuantifier,
    StepQuantifier,
    UniversalQuantifier,
    WeightVector,
    andness,
    eval_quantifier,
    orness,
    quantifier_from_weights,
    weights_from_quantifier,
    yager_eval,
    zadeh_eval,
)
from .sets import DomainError, FuzzySet, Universe, intersect_min

__version__ = "0.1.0"
