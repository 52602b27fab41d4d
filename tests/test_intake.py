"""Every public array argument goes through one intake check: ragged or
non-numeric input is a DataError, never a bare ValueError or TypeError,
and a malformed count is a ConfigError."""

import numpy as np
import pytest

from semishot import (
    ConfigError,
    DataError,
    Dataset,
    EvalSet,
    LambdaPolicy,
    SamplingSpec,
    SemishotError,
    SolverConfig,
    SupportSet,
    SyntheticSpec,
    UnlabeledSet,
    balanced_accuracy,
    correct_marginal,
    correlate,
    ensemble_text_prototypes,
    eval_ce,
    eval_semi_objective,
    eval_tightness,
    evaluate_prototypes,
    fit_sstext,
    fit_sstextu,
    init_plan,
    marginal_residual,
    normalize_rows,
    predict_labels,
    predict_probs,
    save_prototypes,
    silhouette_score,
    similarity_matrix,
    sinkhorn,
    solve_transport,
    split_indices,
    update_prototypes,
)
from semishot.zeroshot import check_array

from conftest import random_support, random_unlabeled, unit_rows

RNG = np.random.default_rng(7)
C, D, N, M = 3, 4, 6, 5
EMB = unit_rows(RNG, N, D)
IDX = np.arange(N) % C
PROTOS = unit_rows(RNG, C, D)
SUP = random_support(RNG, N, C, D, ensure_all_classes=True)
UNL = random_unlabeled(RNG, M, D)
SCORES = RNG.standard_normal((C, M))
MARG = np.full(C, 1.0 / C)
ONEHOT = SUP.labels
EVAL = EvalSet(embeddings=EMB, labels=IDX, class_count=C)
POLICY = LambdaPolicy.adaptive()
ORACLE = SolverConfig(tau=0.1, marginal_source="oracle")
SPEC = SamplingSpec(shots=1, unlabeled_multiplier=0)

# each entry passes the malformed value ``a`` in one array argument
ARRAY_CALLS = {
    "solve_transport-scores": lambda a, tmp: solve_transport(a, MARG),
    "solve_transport-marginal": lambda a, tmp: solve_transport(SCORES, a),
    "sinkhorn": lambda a, tmp: sinkhorn(a, MARG),
    "init_plan": lambda a, tmp: init_plan(a),
    "marginal_residual-plan": lambda a, tmp: marginal_residual(a, MARG),
    "marginal_residual-marginal": lambda a, tmp: marginal_residual(SCORES, a),
    "similarity_matrix-prototypes": lambda a, tmp: similarity_matrix(a, EMB, 0.1),
    "similarity_matrix-embeddings": lambda a, tmp: similarity_matrix(PROTOS, a, 0.1),
    "predict_probs": lambda a, tmp: predict_probs(a, PROTOS, 0.1),
    "predict_labels": lambda a, tmp: predict_labels(a),
    "ensemble_text_prototypes": lambda a, tmp: ensemble_text_prototypes(a),
    "eval_tightness": lambda a, tmp: eval_tightness(a, SUP.embeddings, PROTOS, 0.1),
    "eval_ce": lambda a, tmp: eval_ce(a, SUP.embeddings, PROTOS, 0.1),
    "eval_semi_objective-prototypes": lambda a, tmp: eval_semi_objective(
        SUP, UNL, None, a, PROTOS, 0.1, POLICY),
    "eval_semi_objective-codes": lambda a, tmp: eval_semi_objective(
        SUP, UNL, a, PROTOS, PROTOS, 0.1, POLICY),
    "update_prototypes-codes": lambda a, tmp: update_prototypes(
        SUP, UNL, a, PROTOS, 0.1, POLICY),
    "fit_sstext": lambda a, tmp: fit_sstext(SUP, a),
    "fit_sstextu-oracle": lambda a, tmp: fit_sstextu(SUP, UNL, PROTOS, ORACLE, a),
    "correct_marginal": lambda a, tmp: correct_marginal(a),
    "normalize_rows": lambda a, tmp: normalize_rows(a),
    "SupportSet-embeddings": lambda a, tmp: SupportSet(embeddings=a, labels=ONEHOT),
    "SupportSet-labels": lambda a, tmp: SupportSet(embeddings=SUP.embeddings, labels=a),
    "SupportSet.from_indices": lambda a, tmp: SupportSet.from_indices(EMB, a, C),
    "UnlabeledSet": lambda a, tmp: UnlabeledSet(embeddings=a),
    "UnlabeledSet.from_embeddings": lambda a, tmp: UnlabeledSet.from_embeddings(a),
    "EvalSet-embeddings": lambda a, tmp: EvalSet(embeddings=a, labels=IDX, class_count=C),
    "EvalSet-labels": lambda a, tmp: EvalSet(embeddings=EMB, labels=a, class_count=C),
    "Dataset-labels": lambda a, tmp: Dataset.create(EMB, a, PROTOS),
    "Dataset-prototypes": lambda a, tmp: Dataset.create(EMB, IDX, a),
    "Dataset-templates": lambda a, tmp: Dataset.create(EMB, IDX, PROTOS, templates=a),
    "save_prototypes": lambda a, tmp: save_prototypes(a, tmp / "w.json"),
    "split_indices": lambda a, tmp: split_indices(a, C, SPEC),
    "balanced_accuracy-predictions": lambda a, tmp: balanced_accuracy(a, IDX, C),
    "balanced_accuracy-truth": lambda a, tmp: balanced_accuracy(IDX, a, C),
    "evaluate_prototypes": lambda a, tmp: evaluate_prototypes(a, EVAL, 0.1),
    "silhouette_score-embeddings": lambda a, tmp: silhouette_score(a, IDX),
    "silhouette_score-labels": lambda a, tmp: silhouette_score(EMB, a),
    "correlate": lambda a, tmp: correlate(a, np.arange(4.0)),
}

MALFORMED = {"ragged": [[1.0, 2.0], [3.0]], "text": "abc"}

# malformed counts, and the spec's marginal: configuration, not data
COUNT_CALLS = {
    "EvalSet-fractional-count": lambda tmp: EvalSet(EMB, IDX, class_count=1.5),
    "EvalSet-text-count": lambda tmp: EvalSet(EMB, IDX, class_count="2"),
    "EvalSet-no-count": lambda tmp: EvalSet(EMB, IDX, class_count=None),
    "from_indices-text-count": lambda tmp: SupportSet.from_indices(EMB, IDX, "2"),
    "from_indices-fractional-count": lambda tmp: SupportSet.from_indices(EMB, IDX, 2.5),
    "from_indices-zero-count": lambda tmp: SupportSet.from_indices(EMB, IDX, 0),
    "UnlabeledSet.empty-text-dim": lambda tmp: UnlabeledSet.empty("3"),
    "UnlabeledSet.empty-negative-dim": lambda tmp: UnlabeledSet.empty(-1),
    "split_indices-text-count": lambda tmp: split_indices(IDX, "2", SPEC),
    "balanced_accuracy-text-count": lambda tmp: balanced_accuracy(IDX, IDX, "2"),
    "SyntheticSpec-text-marginal": lambda tmp: SyntheticSpec(marginal=("a",) * 5),
    "SyntheticSpec-ragged-marginal": lambda tmp: SyntheticSpec(
        marginal=((0.2, 0.2), 0.2, 0.2, 0.2)),
}


@pytest.mark.parametrize(
    "call, expected",
    [pytest.param(lambda tmp, f=f, a=a: f(a, tmp), DataError, id=f"{name}-{kind}")
     for name, f in ARRAY_CALLS.items() for kind, a in MALFORMED.items()]
    + [pytest.param(f, ConfigError, id=name) for name, f in COUNT_CALLS.items()])
def test_malformed_input_raises_a_typed_error(tmp_path, call, expected):
    with pytest.raises(SemishotError) as info:
        call(tmp_path)
    assert type(info.value) is expected


def test_check_array_keeps_a_conforming_array_and_reads_none_as_any_length():
    x = np.ones((2, 3))
    assert check_array(x, "x", (None, 3), finite=True) is x
    assert check_array([[1, 2]], "x", (1, None)).dtype == np.float64
    labels = np.arange(3, dtype=np.uint32)
    assert check_array(labels, "labels", (3,), dtype=None) is labels
    for bad in [np.ones((2, 4)), np.ones(3), np.ones((2, 3, 1))]:
        with pytest.raises(DataError, match="shape"):
            check_array(bad, "x", (None, 3))
    with pytest.raises(DataError, match="non-finite"):
        check_array([1.0, np.nan], "x", finite=True)
    assert np.isnan(check_array([1.0, np.nan], "x")[1])  # finiteness is opt-in
