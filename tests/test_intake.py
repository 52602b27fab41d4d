"""Every public array argument goes through one intake check: ragged or
non-numeric input is a DataError, never a bare ValueError or TypeError,
and a malformed count is a ConfigError."""

import json
import warnings

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
    eval_contrast,
    eval_semi_objective,
    eval_tightness,
    evaluate_prototypes,
    fit_solver,
    fit_sstext,
    fit_sstextu,
    init_plan,
    marginal_residual,
    normalize_rows,
    predict_labels,
    predict_probs,
    run_benchmark,
    save_prototypes,
    silhouette_score,
    similarity_matrix,
    sinkhorn,
    solve_transport,
    split_indices,
    update_prototypes,
)
from semishot.cli import EXIT_CONFIG, EXIT_OK, main
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
STRATIFIED = SamplingSpec(shots=1, unlabeled_multiplier=0, stratified=True)
NO_UNLABELED = np.zeros((0, D))
DATASET = Dataset.create(EMB, IDX, PROTOS)

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
    "fit_solver-oracle": lambda a, tmp: fit_solver("sstextu", DATASET, SUP, UNL, ORACLE, a),
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

# a cast of complex input to real would drop its imaginary part, and an
# int past the float range overflows the cast
MALFORMED = {"ragged": [[1.0, 2.0], [3.0]], "text": "abc",
             "complex": np.array([[1 + 1j, 0.0], [0.0, 1.0]]),
             "huge-int": [[1.0, 10**400], [0.0, 1.0]]}

# malformed counts, the spec's marginal, the benchmark grid and config
# fields of the wrong type: configuration, not data
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
    "SyntheticSpec-subnormal-marginal": lambda tmp: SyntheticSpec(
        class_count=2, marginal=(1.0, 5e-324)),
    "run_benchmark-count-shot-grid": lambda tmp: run_benchmark(DATASET, shot_grid=5),
    "run_benchmark-unhashable-solvers": lambda tmp: run_benchmark(
        DATASET, solvers=[["sstext"]]),
    "SolverConfig-text-lambdas": lambda tmp: SolverConfig(lambdas="adaptive"),
    "SolverConfig-no-lambdas": lambda tmp: SolverConfig(lambdas=None),
    "SolverConfig-text-track_codes": lambda tmp: SolverConfig(track_codes="no"),
    "SamplingSpec-text-stratified": lambda tmp: SamplingSpec(shots=2, seed=3,
                                                             stratified="no"),
    "run_benchmark-text-include_timing": lambda tmp: run_benchmark(DATASET,
                                                                   include_timing="no"),
    # a str would be stored as the tuple of its characters
    "Dataset-text-warnings": lambda tmp: Dataset(EMB, IDX, PROTOS, NO_UNLABELED,
                                                 warnings="note"),
    "Dataset-count-warnings": lambda tmp: Dataset(EMB, IDX, PROTOS, NO_UNLABELED, warnings=5),
}

NO_PROTOTYPES = np.empty((0, D))
SUBNORMAL = np.array([1.0, 5e-324, 0.0])

# well-formed arrays that a call cannot use: no prototype rows, no
# classes, a positive class mass below the smallest normal float, labels
# that are not class indices
DATA_CALLS = {
    "similarity_matrix-no-prototypes": lambda tmp: similarity_matrix(NO_PROTOTYPES, EMB, 0.1),
    "predict_probs-no-prototypes": lambda tmp: predict_probs(EMB, NO_PROTOTYPES, 0.1),
    "eval_contrast-no-prototypes": lambda tmp: eval_contrast(EMB, NO_PROTOTYPES, 0.1),
    "eval_ce-no-prototypes": lambda tmp: eval_ce(np.empty((N, 0)), EMB, NO_PROTOTYPES, 0.1),
    "predict_labels-no-columns": lambda tmp: predict_labels(np.empty((N, 0))),
    "solve_transport-subnormal-marginal": lambda tmp: solve_transport(SCORES, SUBNORMAL),
    "fit_sstextu-subnormal-oracle": lambda tmp: fit_sstextu(SUP, UNL, PROTOS, ORACLE, SUBNORMAL),
    "split_indices-out-of-range-labels": lambda tmp: split_indices([0, 1, 0, 7], 2, STRATIFIED),
    "split_indices-fractional-labels": lambda tmp: split_indices([0.0, 1.5, 0.0, 1.0], 2, SPEC),
}


@pytest.mark.parametrize(
    "call, expected",
    [pytest.param(lambda tmp, f=f, a=a: f(a, tmp), DataError, id=f"{name}-{kind}")
     for name, f in ARRAY_CALLS.items() for kind, a in MALFORMED.items()]
    + [pytest.param(f, ConfigError, id=name) for name, f in COUNT_CALLS.items()]
    + [pytest.param(f, DataError, id=name) for name, f in DATA_CALLS.items()])
def test_malformed_input_raises_a_typed_error(tmp_path, call, expected):
    with pytest.raises(SemishotError) as info:
        call(tmp_path)
    assert type(info.value) is expected


@pytest.mark.parametrize("ratio, code", [("1e-310", EXIT_CONFIG), ("5e-324", EXIT_CONFIG),
                                         ("1e-300", EXIT_OK)])
def test_adapt_refuses_a_ratio_that_floors_a_mass_below_normal(tmp_path, capsys, ratio, code):
    # the five labeled items fall in two classes and leave three absent; the
    # ratio floors them at a subnormal mass (1e-310) or at zero (5e-324)
    data = tmp_path / "data"
    assert main(["generate", "--classes", "5", "--pool", "200", "--seed", "1",
                 "--out", str(data)]) == EXIT_OK
    out = tmp_path / "fit"
    assert main(["adapt", "--data", str(data / "manifest.json"), "--solver", "sstextu",
                 "--shots", "1", "--unlabeled-mult", "8", "--seed", "2",
                 "--ratio-r", ratio, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == EXIT_CONFIG:
        assert "marginal_ratio" in err and "Traceback" not in err
        assert not (out / "fit_report.json").exists()
    else:
        marginal = json.loads((out / "fit_report.json").read_text())["marginal"]
        assert min(marginal) >= np.finfo(np.float64).tiny


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


COMPLEX = {"array": np.array([[1 + 1j, 0.0]]), "scalar": np.complex64(1),
           "numpy-scalars": [np.complex128(1 + 0j), 0.0], "list": [[1 + 1j, 0.0]]}


@pytest.mark.parametrize("dtype", [np.float64, None], ids=["float64", "own"])
@pytest.mark.parametrize("x", COMPLEX.values(), ids=COMPLEX.keys())
def test_check_array_refuses_complex_input_before_any_cast(x, dtype):
    # a cast to float drops the imaginary part, with only a ComplexWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match="real"):
            check_array(x, "x", dtype=dtype)
