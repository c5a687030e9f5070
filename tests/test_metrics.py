"""Classification metrics against hand-computed and pairwise oracles."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from autotab import metrics as M


# y/p fixture tallying TP=3 TN=4 FP=1 FN=2 at the 0.5 threshold
LABELS = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
PROBAS = [0.9, 0.8, 0.6, 0.4, 0.3, 0.7, 0.2, 0.1, 0.05, 0.45]


def test_confusion_counts():
    cm = M.confusion(LABELS, PROBAS)
    assert (cm.tp, cm.tn, cm.fp, cm.fn) == (3, 4, 1, 2)
    assert cm.total == 10


def test_scalar_metrics_hand_values():
    # oracle: acc=(3+4)/10, P=3/4, R=3/5, F1=2PR/(P+R)=0.9/1.35
    cm = M.ConfusionMatrix(tp=3, tn=4, fp=1, fn=2)
    assert M.accuracy(cm) == 0.7
    assert M.precision(cm) == 0.75
    assert M.recall(cm) == 0.6
    assert abs(M.f1(cm) - 0.9 / 1.35) < 1e-15


def test_threshold_boundary_is_positive():
    # proba exactly at the threshold counts as a positive prediction
    cm = M.confusion([0], [0.5])
    assert cm.fp == 1 and cm.tn == 0


def test_custom_threshold():
    cm = M.confusion(LABELS, PROBAS, threshold=0.85)
    assert (cm.tp, cm.fp) == (1, 0)


def test_undefined_metrics_are_none_not_zero():
    no_pred_pos = M.ConfusionMatrix(tp=0, tn=5, fp=0, fn=3)
    assert M.precision(no_pred_pos) is None
    no_actual_pos = M.ConfusionMatrix(tp=0, tn=5, fp=2, fn=0)
    assert M.recall(no_actual_pos) is None
    assert M.f1(no_actual_pos) is None
    both_zero = M.ConfusionMatrix(tp=0, tn=5, fp=0, fn=0)
    assert M.f1(both_zero) is None


def test_confusion_validation():
    with pytest.raises(M.MetricError):
        M.confusion([], [])
    with pytest.raises(M.MetricError):
        M.confusion([0, 1], [0.5])
    with pytest.raises(M.MetricError):
        M.confusion([0, 1], [0.5, 1.2])
    with pytest.raises(M.MetricError):
        M.confusion([1, 0], [math.nan, 0.2])
    with pytest.raises(M.MetricError):
        M.confusion([0, 2], [0.5, 0.5])


def test_auc_hand_case():
    # pos scores {0.35, 0.8} vs neg {0.1, 0.4}: 3 of 4 pairs won
    y = [0, 0, 1, 1]
    s = [0.1, 0.4, 0.35, 0.8]
    assert M.roc_auc(y, s) == 0.75
    assert M.roc_auc_pairwise(y, s) == 0.75


def test_auc_extremes_and_ties():
    assert M.roc_auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0
    assert M.roc_auc([1, 1, 0, 0], [0.1, 0.2, 0.8, 0.9]) == 0.0
    assert M.roc_auc([0, 1], [0.5, 0.5]) == 0.5
    # all scores identical: every pair is a tie
    assert M.roc_auc([0, 1, 0, 1], [0.3] * 4) == 0.5


def test_auc_needs_both_classes():
    with pytest.raises(M.MetricError):
        M.roc_auc([1, 1], [0.2, 0.3])
    with pytest.raises(M.MetricError):
        M.roc_auc([0, 0], [0.2, 0.3])


def test_auc_trapezoid_equals_pairwise_exactly():
    rng = np.random.default_rng(7)
    for trial in range(200):
        n = int(rng.integers(2, 80))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        # coarse grid forces plenty of tied scores
        s = np.round(rng.random(n), 1)
        assert M.roc_auc(y, s) == M.roc_auc_pairwise(y, s)


@st.composite
def labeled_scores(draw):
    n = draw(st.integers(min_value=2, max_value=40))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if min(y) == max(y):
        y[0] = 1 - y[0]
    s = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    return np.array(y), np.array(s)


@settings(max_examples=150, deadline=None)
@given(labeled_scores())
def test_auc_invariant_under_monotone_transform(ys):
    y, s = ys
    base = M.roc_auc(y, s)
    # upward power-of-two scaling is exact in binary floats (no rounding, no
    # underflow for scores in [0, 1]), so order and ties survive unchanged
    assert M.roc_auc(y, 4.0 * s) == base
    assert M.roc_auc(y, 1024.0 * s) == base


@settings(max_examples=150, deadline=None)
@given(labeled_scores())
def test_auc_label_flip_complements(ys):
    y, s = ys
    assert math.isclose(M.roc_auc(1 - y, s), 1.0 - M.roc_auc(y, s), abs_tol=1e-12)


@settings(max_examples=100, deadline=None)
@given(labeled_scores())
def test_f1_between_precision_and_recall(ys):
    y, s = ys
    cm = M.confusion(y, s)
    p, r, f = M.precision(cm), M.recall(cm), M.f1(cm)
    if f is not None:
        assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12
    assert 0.0 <= M.accuracy(cm) <= 1.0


def test_report_composition():
    rep = M.report(LABELS, PROBAS)
    assert rep.accuracy == 0.7
    assert rep.precision == 0.75
    assert rep.recall == 0.6
    assert rep.threshold == 0.5
    assert rep.roc_auc == M.roc_auc(LABELS, PROBAS)


def test_report_leaves_auc_undefined_on_one_class():
    for labels in ([1, 1], [0, 0]):
        rep = M.report(labels, [0.2, 0.7])
        assert rep.roc_auc is None
        assert rep.accuracy == 0.5
