import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def fold_accuracies(monkeypatch):
    """The per-fold accuracies ``run_benchmark`` computes, recorded as its
    folds are evaluated: one list of every spec's accuracy per fold, in the
    order the folds ran."""
    from fuzzyrough import evaluation

    folds = []
    evaluate = evaluation._evaluate_fold

    def recorder(*args, **kwargs):
        accs, kinds = evaluate(*args, **kwargs)
        folds.append(accs)
        return accs, kinds

    monkeypatch.setattr(evaluation, "_evaluate_fold", recorder)
    return folds
