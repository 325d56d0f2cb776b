"""ML-based PSA strategy tests (the paper's future-work extension)."""

import pytest

from repro.flow.engine import FlowEngine
from repro.flow.ml_psa import (
    DecisionTree, FEATURE_NAMES, MLTargetSelection, extract_features,
    label_from_result, train_from_results, training_row,
)
from repro.apps import get_app


class TestDecisionTree:
    def test_separable_two_class(self):
        X = [[0.0], [0.1], [0.9], [1.0]]
        y = ["omp", "omp", "gpu", "gpu"]
        tree = DecisionTree(max_depth=2).fit(X, y)
        assert tree.predict([0.05]) == "omp"
        assert tree.predict([0.95]) == "gpu"

    def test_three_class_two_features(self):
        X = [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0],
             [0.1, 0.1], [0.9, 0.9]]
        y = ["omp", "fpga", "gpu", "gpu", "omp", "gpu"]
        tree = DecisionTree(max_depth=3).fit(X, y)
        assert tree.predict([0.0, 0.0]) == "omp"
        assert tree.predict([0.05, 0.95]) == "fpga"
        assert tree.predict([0.95, 0.5]) == "gpu"

    def test_pure_labels_single_leaf(self):
        tree = DecisionTree().fit([[1.0], [2.0]], ["gpu", "gpu"])
        assert tree.depth() == 0
        assert tree.predict([99.0]) == "gpu"

    def test_depth_limit(self):
        X = [[float(i)] for i in range(16)]
        y = ["gpu" if i % 2 else "omp" for i in range(16)]
        tree = DecisionTree(max_depth=2).fit(X, y)
        assert tree.depth() <= 2

    def test_training_set_accuracy_on_fig3_table(self):
        """The tree can represent the hand-written Fig. 3 logic."""
        # columns: intensity, parallel, dependent, unrollable
        rows = [
            ([0.1, 1, 0, 1], "omp"),    # memory bound
            ([0.1, 1, 1, 1], "omp"),
            ([2.0, 1, 0, 1], "gpu"),    # parallel, no dep inner
            ([2.0, 1, 1, 0], "gpu"),    # deps not unrollable
            ([2.0, 1, 1, 1], "fpga"),   # deps fully unrollable
            ([2.0, 0, 0, 1], "fpga"),   # serial outer
        ]
        X = [r for r, _ in rows]
        y = [l for _, l in rows]
        tree = DecisionTree(max_depth=4).fit(X, y)
        for features, label in rows:
            assert tree.predict(features) == label

    def test_predict_with_path_readable(self):
        tree = DecisionTree(max_depth=2).fit(
            [[0.0] * len(FEATURE_NAMES), [1.0] * len(FEATURE_NAMES)],
            ["omp", "gpu"])
        label, path = tree.predict_with_path([1.0] * len(FEATURE_NAMES))
        assert label == "gpu"
        assert any("leaf ->" in step for step in path)

    def test_unfitted_raises(self):
        with pytest.raises(ValueError):
            DecisionTree().predict([1.0])

    def test_empty_training_raises(self):
        with pytest.raises(ValueError):
            DecisionTree().fit([], [])


class TestTrainingData:
    def test_training_rows_from_results(self, all_uninformed):
        for name, result in all_uninformed.items():
            features, label = training_row(result)
            assert len(features) == len(FEATURE_NAMES)
            assert label in ("gpu", "fpga", "omp")

    def test_labels_match_paper_winners(self, all_uninformed):
        expected = {"rush_larsen": "gpu", "nbody": "gpu", "bezier": "gpu",
                    "adpredictor": "fpga", "kmeans": "omp"}
        for name, result in all_uninformed.items():
            assert label_from_result(result) == expected[name], name


class TestLearnedStrategy:
    def test_learned_strategy_reproduces_training_routing(
            self, all_uninformed):
        """Train on the five uninformed runs, then drive informed flows
        with the learned strategy: it must route every training app to
        its winning target (the tree has seen these points)."""
        tree = train_from_results(list(all_uninformed.values()))
        assert tree.depth() >= 1
        engine = FlowEngine(strategy_a=MLTargetSelection(tree))
        for name, uninformed in all_uninformed.items():
            result = engine.run(get_app(name), mode="informed")
            assert result.selected_target == label_from_result(uninformed), \
                name

    def test_decision_reasons_show_tree_path(self, all_uninformed):
        tree = train_from_results(list(all_uninformed.values()))
        engine = FlowEngine(strategy_a=MLTargetSelection(tree))
        result = engine.run(get_app("kmeans"), mode="informed")
        decision = result.facts["psa:A"]
        assert any("ML strategy" in r for r in decision.reasons)
        assert any("leaf ->" in r for r in decision.reasons)

    def test_generalises_to_unseen_app(self, all_uninformed):
        """Leave-one-out: train without K-Means, predict it.

        K-Means is the only memory-bound app, so the tree cannot learn
        the OMP class without it -- but it must still return a *valid*
        target and never crash on unseen feature ranges."""
        results = [r for n, r in all_uninformed.items() if n != "nbody"]
        tree = train_from_results(results)
        engine = FlowEngine(strategy_a=MLTargetSelection(tree))
        result = engine.run(get_app("nbody"), mode="informed")
        # nbody resembles the other GPU apps: the tree should get it
        assert result.selected_target == "gpu"
