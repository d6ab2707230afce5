import io
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from hsvm import (
    BinaryModel,
    Dataset,
    FormatError,
    Hyperparams,
    MultiModel,
    evaluate,
    load_model,
    predict_binary,
    predict_multi,
    save_model,
)
from hsvm.errors import ConstraintError, DomainError, LabelError, ShapeError


def zero_sum_multi(rng, p, J):
    b = rng.normal(size=J)
    b -= b.mean()
    W = rng.normal(size=(p, J))
    W -= W.mean(axis=1, keepdims=True)
    return MultiModel(b=b, W=W)


class TestPredictBinary:
    def test_positive_side(self):
        m = BinaryModel(0.0, np.array([1.0, 0.0]))
        assert predict_binary(m, np.array([2.0, -1.0])) == 1

    def test_constant_negative(self):
        m = BinaryModel(-0.5, np.zeros(2))
        preds = predict_binary(m, np.random.default_rng(0).normal(size=(6, 2)))
        assert (preds == -1).all()

    def test_boundary_goes_positive(self):
        m = BinaryModel(0.0, np.array([1.0]))
        assert predict_binary(m, np.array([0.0])) == 1

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=4)
        X = rng.normal(size=(30, 4))
        a = predict_binary(BinaryModel(0.3, w), X)
        b = predict_binary(BinaryModel(0.3 * 7.5, w * 7.5), X)
        np.testing.assert_array_equal(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            predict_binary(BinaryModel(0.0, np.zeros(3)), np.zeros((2, 5)))


class TestPredictMulti:
    def test_intercept_only(self):
        m = MultiModel(b=np.array([1.0, 0.0, -1.0, 0.0]), W=np.zeros((2, 4)))
        assert predict_multi(m, np.zeros(2)) == 1

    def test_all_tied_goes_first(self):
        m = MultiModel(b=np.zeros(3), W=np.zeros((2, 3)))
        assert predict_multi(m, np.ones(2)) == 1

    def test_matches_dense_reevaluation(self):
        rng = np.random.default_rng(2)
        model = zero_sum_multi(rng, 5, 4)
        X = rng.normal(size=(40, 5))
        preds = predict_multi(model, X)
        scores = X @ model.W + model.b
        np.testing.assert_array_equal(preds, scores.argmax(axis=1) + 1)

    def test_feasibility_enforced_on_construction(self):
        with pytest.raises(ConstraintError):
            MultiModel(b=np.array([0.5, 0.0]), W=np.zeros((1, 2)))
        with pytest.raises(ConstraintError):
            MultiModel(b=np.zeros(2), W=np.array([[1.0, 0.5]]))


class TestNonFiniteScore:
    """A score that is not finite has no label: ``predict_*`` and
    ``evaluate`` raise one ``DomainError``, with no warning, whether a
    weight times a huge value overflows (5e308 - 5e308 is NaN) or a
    feature value is itself NaN or inf."""

    BINARY = BinaryModel(0.0, np.array([5.0, -5.0]))
    MULTI = MultiModel(np.zeros(2), np.array([[5.0, -5.0], [-5.0, 5.0]]))
    ROWS = [[1e308, 1e308], [math.nan, 1.0], [1.0, math.inf]]

    @pytest.mark.parametrize("row", ROWS)
    @pytest.mark.parametrize("layout", ["row", "dense", "csr"])
    @pytest.mark.parametrize("call", ["binary", "multi", "evaluate"])
    def test_raises(self, row, layout, call):
        rows = np.array([[1.0, 2.0], row])
        X = {"row": rows[1], "dense": rows, "csr": sp.csr_array(rows)}[layout]
        calls = {"binary": lambda: predict_binary(self.BINARY, X),
                 "multi": lambda: predict_multi(self.MULTI, X),
                 "evaluate": lambda: evaluate(
                     self.BINARY, Dataset(X if layout != "row" else rows,
                                          [1, -1]))}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError,
                               match="^a prediction score is not finite"):
                calls[call]()
        assert caught == []


class TestPersistence:
    def test_binary_round_trip(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=20)
        w[rng.random(20) < 0.5] = 0.0
        model = BinaryModel(b=rng.normal(), w=w)
        hp = Hyperparams(0.123456789012345, 1.0, 2.0, 0.5)
        buf = io.StringIO()
        save_model(model, hp, buf)
        buf.seek(0)
        loaded, hp2 = load_model(buf)
        assert loaded.b == model.b
        np.testing.assert_array_equal(loaded.w, model.w)
        assert hp2 == hp
        X = rng.normal(size=(25, 20))
        np.testing.assert_array_equal(predict_binary(loaded, X),
                                      predict_binary(model, X))

    def test_multi_round_trip_and_validation(self):
        rng = np.random.default_rng(4)
        model = zero_sum_multi(rng, 6, 3)
        hp = Hyperparams(0.1, 0.2, 0.3, 1.0)
        buf = io.StringIO()
        save_model(model, hp, buf)
        text = buf.getvalue()
        assert text.startswith("HSVM multi p=6 J=3\n")
        loaded, _ = load_model(io.StringIO(text))
        np.testing.assert_array_equal(loaded.W, model.W)
        np.testing.assert_array_equal(loaded.b, model.b)

    def test_saved_text_pinned(self):
        hp = Hyperparams(0.1, 1.0, 2.0, 0.5)
        binary = BinaryModel(b=-0.25, w=np.array([0.0, 1.5, 0.0, -2.0 / 3.0]))
        multi = MultiModel(b=np.array([0.5, -0.5, 0.0]),
                           W=np.array([[0.0, 0.0, 0.0],
                                       [1.0, -0.75, -0.25],
                                       [0.0, 0.1, -0.1]]))
        hp_line = "lambda1=0.10000000000000001 lambda2=1 lambda3=2 delta=0.5"
        expected = [
            (binary, ["HSVM binary p=4 J=2", hp_line, "b -0.25",
                      "w 2 1.5", "w 4 -0.66666666666666663"]),
            (multi, ["HSVM multi p=3 J=3", hp_line, "b 0.5 -0.5 0",
                     "w 2 1 1", "w 2 2 -0.75", "w 2 3 -0.25",
                     "w 3 2 0.10000000000000001",
                     "w 3 3 -0.10000000000000001"]),
        ]
        for model, lines in expected:
            buf = io.StringIO()
            save_model(model, hp, buf)
            assert buf.getvalue() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("obj", [None, {"b": 0.0, "w": [1.0]},
                                     np.array([0.0, 1.0])])
    def test_save_non_model_rejected(self, obj):
        buf = io.StringIO()
        with pytest.raises(FormatError, match="cannot save object of type"):
            save_model(obj, Hyperparams(1, 1, 1, 1), buf)
        assert buf.getvalue() == ""

    def test_truncated_file_rejected(self):
        model = BinaryModel(1.0, np.array([1.0, 0.0]))
        buf = io.StringIO()
        save_model(model, Hyperparams(1, 1, 1, 1), buf)
        lines = buf.getvalue().splitlines()
        with pytest.raises(FormatError):
            load_model(io.StringIO("\n".join(lines[:2])))

    def test_bad_header_rejected(self):
        with pytest.raises(FormatError):
            load_model(io.StringIO("NOPE binary p=2 J=2\nlambda1=1\nb 0\n"))

    @pytest.mark.parametrize("line, bad", [
        (1, "lambda1=zz lambda2=1 lambda3=1 delta=1"), (2, "b abc"),
        (3, "w x 1.0"), (3, "w 1 1.0.0"), (3, "w 1 nan")])
    def test_malformed_number_rejected(self, line, bad):
        lines = ["HSVM binary p=2 J=2", "lambda1=1 lambda2=1 lambda3=1 delta=1",
                 "b 0", "w 1 0.5"]
        lines[line] = bad
        with pytest.raises(FormatError, match="malformed number"):
            load_model(io.StringIO("\n".join(lines) + "\n"))

    @pytest.mark.parametrize("head, hp_line", [
        ("HSVM binary p=-1 J=2", "lambda1=1 lambda2=1 lambda3=1 delta=1"),
        ("HSVM multi p=2 J=1", "lambda1=1 lambda2=1 lambda3=1 delta=1"),
        ("HSVM binary p=30 J=9", "lambda1=1 lambda2=1 lambda3=1 delta=1"),
        ("HSVM binary p=2 J=2", "lambda1=-1 lambda2=1 lambda3=1 delta=1")])
    def test_out_of_range_header_or_hyperparameter_rejected(self, head, hp_line):
        with pytest.raises(FormatError):
            load_model(io.StringIO(f"{head}\n{hp_line}\nb 0\n"))

    def test_malformed_multi_index_rejected(self):
        text = ("HSVM multi p=1 J=2\n"
                "lambda1=1 lambda2=1 lambda3=1 delta=1\n"
                "b 0 0\n"
                "w 1 y 0.5\n")
        with pytest.raises(FormatError, match="malformed number"):
            load_model(io.StringIO(text))

    def test_corrupt_constraints_rejected(self):
        text = ("HSVM multi p=1 J=2\n"
                "lambda1=1 lambda2=1 lambda3=1 delta=1\n"
                "b 1 -1\n"
                "w 1 1 0.7\n")  # row sum 0.7 violates zero-sum
        with pytest.raises(FormatError):
            load_model(io.StringIO(text))


class TestEvaluate:
    def test_perfect_classifier(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 3))
        w = np.array([1.0, 0.0, 0.0])
        y = np.where(X @ w >= 0, 1, -1)
        m = evaluate(BinaryModel(0.0, w), Dataset(X, y))
        assert m.accuracy == 1.0
        assert m.nnz == 1

    def test_support_counts(self):
        w = np.zeros(30)
        w[:20] = 1.0
        model = BinaryModel(0.0, w)
        data = Dataset(np.zeros((4, 30)), [1, 1, -1, -1],
                       true_support=np.arange(20))
        m = evaluate(model, data)
        assert m.n_t == 20 and m.n_f == 0

    def test_false_selections_counted(self):
        w = np.zeros(10)
        w[[0, 5, 7]] = 1.0
        data = Dataset(np.zeros((2, 10)), [1, -1], true_support=[0, 1])
        m = evaluate(BinaryModel(0.0, w), data)
        assert m.n_t == 1 and m.n_f == 2 and m.nnz == 3

    def test_multi_zero_model_metrics(self):
        data = Dataset(np.zeros((4, 6)), [1, 2, 3, 4],
                       true_support=np.arange(3))
        m = evaluate(MultiModel(np.zeros(4), np.zeros((6, 4))), data)
        assert m.incorrect_zeros == 3 and m.nnz_rows == 0 and m.nnz == 0

    def test_accuracy_matches_independent_loop(self):
        rng = np.random.default_rng(6)
        model = zero_sum_multi(rng, 4, 3)
        X = rng.normal(size=(60, 4))
        y = rng.integers(1, 4, 60)
        data = Dataset(X, y)
        m = evaluate(model, data)
        wrong = 0
        for i in range(60):
            scores = X[i] @ model.W + model.b
            if scores.argmax() + 1 != y[i]:
                wrong += 1
        assert m.accuracy == pytest.approx(1.0 - wrong / 60)

    def test_multi_model_scores_labels_all_one(self):
        # labels all 1 are inferred as a binary set; a multi-class model
        # still predicts every one of them
        model = MultiModel(b=np.array([1.0, 0.0, -1.0]), W=np.zeros((2, 3)))
        data = Dataset(np.zeros((5, 2)), [1, 1, 1, 1, 1])
        assert data.kind == "binary"
        assert evaluate(model, data).accuracy == 1.0

    def test_labels_the_model_cannot_predict_rejected(self):
        multi = MultiModel(b=np.zeros(3), W=np.zeros((2, 3)))
        with pytest.raises(LabelError, match="label 7 "):
            evaluate(multi, Dataset(np.zeros((3, 2)), [1, 2, 7]))
        binary = BinaryModel(0.0, np.zeros(2))
        with pytest.raises(LabelError, match="label 2 "):
            evaluate(binary, Dataset(np.zeros((3, 2)), [1, 2, 3]))

    def test_metrics_survive_round_trip(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=8)
        w[np.abs(w) < 0.7] = 0.0
        model = BinaryModel(0.2, w)
        data = Dataset(rng.normal(size=(30, 8)), rng.choice([-1, 1], 30),
                       true_support=[0, 1, 2])
        buf = io.StringIO()
        save_model(model, Hyperparams(1, 1, 1, 1), buf)
        buf.seek(0)
        loaded, _ = load_model(buf)
        assert evaluate(loaded, data) == evaluate(model, data)
