import numpy as np
import pytest

from vanar import (
    Dataset, NaiveForecaster, TrueSystem, VanarForecaster, VarForecaster, causality_graph,
    causality_score, rolling_one_step,
)
from vanar.causality import CausalityEdge


def planted(T, seed):
    """y is a one-step lagged copy of x plus small noise; x drives y, not back."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, T + 1)
    y = x[:-1] + 0.01 * rng.normal(0, 1, T)
    return Dataset(("x", "y"), np.column_stack([x[1:], y]))


def var_factory(variables, seed):
    return VarForecaster(p=4)


class TestEdge:
    def test_score_identity(self):
        e = CausalityEdge("x", "y", score=1 - 0.2 / 0.5, full_rmse=0.2, univariate_rmse=0.5)
        assert e.score == 1 - e.full_rmse / e.univariate_rmse
        assert e.causal

    def test_equal_errors_score_zero(self):
        e = CausalityEdge("x", "y", score=0.0, full_rmse=0.3, univariate_rmse=0.3)
        assert not e.causal


class TestScore:
    def test_planted_cause_detected(self):
        d = planted(300, seed=1)
        e = causality_score(d, ["x"], "y", var_factory, seeds=(0,), test_len=30, one_step=True)
        assert e.score > 0.9
        assert e.source == "x" and e.target == "y"
        assert e.score == 1.0 - e.full_rmse / e.univariate_rmse

    def test_planted_reverse_not_detected(self):
        d = planted(300, seed=1)
        e = causality_score(d, ["y"], "x", var_factory, seeds=(0,), test_len=30, one_step=True)
        assert e.score <= 0

    def test_joint_cause_set(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, 301)
        z = rng.normal(0, 1, 301)
        y = x[:-1] + z[:-1] + 0.01 * rng.normal(0, 1, 300)
        d = Dataset(("x", "z", "y"), np.column_stack([x[1:], z[1:], y]))
        e = causality_score(d, ["x", "z"], "y", var_factory, seeds=(0,), test_len=30, one_step=True)
        assert e.source == "x+z"
        assert e.score > 0.9

    def test_target_in_causes_rejected(self):
        with pytest.raises(ValueError):
            causality_score(planted(100, 0), ["y"], "y", var_factory, seeds=(0,))

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            causality_score(planted(100, 0), ["x"], "y", var_factory, seeds=())

    @pytest.mark.parametrize("name", ["test_len", "horizon"])
    def test_non_integer_length_named(self, name):
        with pytest.raises(ValueError) as exc:
            causality_score(planted(100, 0), ["x"], "y", var_factory, seeds=(0,), **{name: 2.5})
        assert str(exc.value).startswith(f"{name} must be a positive integer, got 2.5")

    def test_median_seed_keeps_identity(self):
        calls = []

        class Jittered(VarForecaster):
            def __init__(self, seed):
                super().__init__(p=2)
                self.seed = seed

            def forecast(self, history, h):
                fc = super().forecast(history, h)
                rng = np.random.default_rng(self.seed)
                return Dataset(fc.names, fc.values + rng.normal(0, 0.05, fc.values.shape))

        def factory(variables, seed):
            calls.append(seed)
            return Jittered(seed)

        e = causality_score(planted(200, 2), ["x"], "y", factory, seeds=(0, 1, 2), test_len=20)
        assert e.score == 1.0 - e.full_rmse / e.univariate_rmse
        assert set(calls) == {0, 1, 2}


class TestGraph:
    def test_two_variable_star_has_two_edges(self):
        graph = causality_graph(planted(300, 1), "x", var_factory, seeds=(0,),
                                test_len=30, one_step=True)
        assert len(graph.edges) == 2
        directions = {(e.source, e.target) for e in graph.edges}
        assert directions == {("x", "y"), ("y", "x")}

    def test_positive_filter_keeps_only_causal(self):
        graph = causality_graph(planted(300, 1), "x", var_factory, seeds=(0,),
                                test_len=30, one_step=True)
        kept = graph.positive_edges()
        assert [(e.source, e.target) for e in kept] == [("x", "y")]
        assert all(e.score > 0 for e in kept)

    def test_center_must_exist(self):
        with pytest.raises(KeyError):
            causality_graph(planted(100, 0), "nope", var_factory, seeds=(0,))

    def test_needs_two_variables(self):
        d = planted(100, 0).select(["x"])
        with pytest.raises(ValueError, match="at least 2"):
            causality_graph(d, "x", var_factory, seeds=(0,))

    def test_no_seeds_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            causality_graph(planted(100, 0), "x", var_factory, seeds=())

    def test_seeds_may_be_an_iterator(self):
        d = planted(100, 0)
        graph = causality_graph(d, "x", var_factory, seeds=iter((0, 1)))
        assert graph == causality_graph(d, "x", var_factory, seeds=(0, 1))

    def test_star_with_three_variables(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=(200, 3))
        d = Dataset(("a", "b", "c"), vals)
        graph = causality_graph(d, "b", var_factory, seeds=(0,), test_len=20)
        directions = {(e.source, e.target) for e in graph.edges}
        assert directions == {("a", "b"), ("b", "a"), ("c", "b"), ("b", "c")}


def tiny_vanar_factory(variables, seed):
    return VanarForecaster(p=4, hidden_dims=(4,), epochs=5, seed=seed)


class TestGraphMatchesScore:
    """Each graph edge equals causality_score for the same direction, bit for bit."""

    @pytest.mark.parametrize("factory,seeds", [
        (var_factory, (0,)),
        (tiny_vanar_factory, (0, 1, 2)),
    ])
    def test_edges_equal_scores(self, factory, seeds):
        rng = np.random.default_rng(6)
        d = Dataset(("a", "b", "c"), rng.normal(size=(80, 3)))
        graph = causality_graph(d, "b", factory, seeds=seeds, test_len=20, horizon=10)
        assert len(graph.edges) == 4
        for edge in graph.edges:
            assert edge == causality_score(d, edge.source, edge.target, factory, seeds=seeds,
                                           test_len=20, horizon=10)


class TestRollingOneStep:
    @pytest.mark.parametrize("kind", ["var", "vanar", "naive", "true"])
    def test_actual_over_other_variables_rejected(self, kind):
        history = planted(40, seed=2)
        models = {
            "var": lambda: VarForecaster(p=2).fit(history),
            "vanar": lambda: VanarForecaster(p=2, hidden_dims=(4,), epochs=2).fit(history),
            "naive": lambda: NaiveForecaster().fit(history),
            "true": lambda: TrueSystem(),
        }
        actual = Dataset(("x", "z"), history.values[-5:])
        with pytest.raises(ValueError, match="variable mismatch"):
            rolling_one_step(models[kind](), history, actual)
