import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_parse_libsvm

from hsvm import (
    Dataset,
    DomainError,
    LabelError,
    ParseError,
    SynthSpec,
    gen_binary_gaussian,
    gen_fourclass,
    gene_rank,
    lipschitz_binary,
    parse_libsvm,
    select_top_features,
    standardize,
    write_libsvm,
)
from hsvm.data import _equicorr_block, finite_features, load_libsvm
from hsvm.errors import HsvmError, ShapeError


def dense(data):
    X = data.X
    return np.asarray(X.todense() if sp.issparse(X) else X)


def assert_near_exact_sqnorms(d, X):
    """Row and column norms of a dense ``d`` within gamma_k = k eps /
    (1 - k eps) relative of the exactly rounded sums (``math.fsum``) of
    their k rounded squares, whatever order the sums take."""
    sq, eps = np.square(X), np.finfo(float).eps
    for got, lines, k in [(d.row_sqnorms(), sq, X.shape[1]),
                          (d.col_sqnorms(), sq.T, X.shape[0])]:
        exact = np.array([math.fsum(line) for line in lines.tolist()])
        assert got.shape == exact.shape
        assert np.all(np.abs(got - exact) <= k * eps / (1 - k * eps) * exact)


def messy_csr():
    """A 2 x 4 CSR whose row 0 repeats column 0 (1 + 2) after column 2
    and whose row 1 lists its columns in descending order."""
    return sp.csr_array((np.array([4.0, 1.0, 2.0, -1.0, 5.0]),
                         np.array([2, 0, 0, 3, 1]), np.array([0, 3, 5])),
                        shape=(2, 4))


class TestDataset:
    def test_kind_inference(self):
        assert Dataset(np.zeros((2, 1)), [1, -1]).kind == "binary"
        assert Dataset(np.zeros((2, 1)), [1, 2]).kind == "multiclass"
        assert Dataset(np.zeros((2, 1)), [0, 0]).kind == "unlabeled"

    def test_binary_label_validation(self):
        with pytest.raises(LabelError):
            Dataset(np.zeros((2, 1)), [1, 2], kind="binary")

    def test_multiclass_lower_bound(self):
        with pytest.raises(LabelError):
            Dataset(np.zeros((2, 1)), [0, 2], kind="multiclass")

    def test_subset_and_restrict(self):
        rng = np.random.default_rng(0)
        d = Dataset(rng.normal(size=(6, 4)), rng.choice([-1, 1], 6))
        sub = d.subset([0, 3, 5])
        assert sub.n == 3 and sub.n_features == 4
        np.testing.assert_array_equal(dense(sub), dense(d)[[0, 3, 5]])
        r = d.restrict_features([1, 2])
        np.testing.assert_array_equal(dense(r), dense(d)[:, [1, 2]])

    def test_csr_is_stored_canonical_on_a_copy(self):
        X = messy_csr()
        before = [a.copy() for a in (X.data, X.indices, X.indptr)]
        d = Dataset(X, [1, -1])
        assert d.X.has_canonical_format
        np.testing.assert_array_equal(d.X.toarray(), [[3.0, 0.0, 4.0, 0.0],
                                                      [0.0, 5.0, 0.0, -1.0]])
        for got, want in zip((X.data, X.indices, X.indptr), before):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("cols", [[], [2], [0, 3], [3, 1, 2], [1, 1]])
    def test_csr_restriction_matches_dense(self, cols):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(7, 5)) * (rng.random((7, 5)) < 0.5)
        labels = rng.choice([-1, 1], 7)
        got = Dataset(sp.csr_array(X), labels).restrict_features(cols)
        want = Dataset(X, labels).restrict_features(cols)
        assert isinstance(got.X, sp.csr_array) and got.X.has_canonical_format
        np.testing.assert_array_equal(got.X.toarray(), want.X)

    @pytest.mark.parametrize("layout", ["C", "F", "csr"])
    @pytest.mark.parametrize("cols", [[], [2], [0, 3], [3, 1, 2], [1, 1]])
    def test_block_is_a_c_order_copy_of_the_columns(self, layout, cols):
        # a dense block is C-contiguous, read-only, as later equal asks
        # share it, and holds the bits of X[:, K]; a CSR block is X[:, K] in
        # canonical form (see Dataset)
        rng = np.random.default_rng(5)
        X = rng.normal(size=(7, 5)) * (rng.random((7, 5)) < 0.5)
        X[0, 1] = -0.0
        X = sp.csr_array(X) if layout == "csr" else np.asarray(X, order=layout)
        got = Dataset(X, rng.choice([-1, 1], 7)).restrict_features(cols).X
        want = X[:, cols]
        if layout == "csr":
            want.sum_duplicates()
            assert isinstance(got, sp.csr_array)
            for a, b in ((got.data, want.data), (got.indices, want.indices),
                         (got.indptr, want.indptr)):
                assert a.tobytes() == b.tobytes()
        else:
            assert got.flags.c_contiguous and got.shape == want.shape
            assert not got.flags.writeable and X.flags.writeable
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_equal_columns_return_the_kept_block(self, layout):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(8, 6))
        d = Dataset(sp.csr_array(X) if layout == "csr" else X,
                    rng.choice([-1, 1], 8))
        cols = np.array([4, 1])
        a = d.restrict_features(cols)
        cols[0] = 0             # the slot keeps its own copy of the key
        assert d.restrict_features([4, 1]) is a
        assert d.restrict_features(np.array([4, 1], dtype=np.int32)) is a
        b = d.restrict_features([1, 4])
        assert b is not a and d.restrict_features([1, 4]) is b
        # one slot: [4, 1] was replaced, and is gathered again
        again = d.restrict_features([4, 1])
        assert again is not a
        np.testing.assert_array_equal(dense(again), dense(a))
        # the empty set is never kept, and leaves the slot as it was
        e = d.restrict_features([])
        assert d.restrict_features([]) is not e
        assert d.restrict_features([4, 1]) is again
        # a subset is a new data set with its own, empty slot
        assert d.subset(np.arange(8)).restrict_features([4, 1]) is not again

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_gram_matches_explicit_product(self, layout):
        # Z'Z for Z = [1, X], within Higham's bound of each dot product
        rng = np.random.default_rng(7)
        X = rng.normal(size=(300, 9)) * (rng.random((300, 9)) < 0.6)
        Z = np.column_stack([np.ones(300), X])
        d = Dataset(sp.csr_array(X) if layout == "csr" else X,
                    rng.choice([-1, 1], 300))
        G = d.gram()
        assert isinstance(G, np.ndarray) and G.shape == (10, 10)
        assert d.gram() is G    # formed once
        want = Z.T @ Z
        assert np.all(np.abs(G - want) <= 1e-13 * (np.abs(Z).T @ np.abs(Z)))
        assert G[0, 0] == 300.0

    def test_row_sqnorms(self):
        X = np.array([[3.0, 4.0], [0.0, 1.0]])
        d = Dataset(X, [1, -1])
        np.testing.assert_allclose(d.row_sqnorms(), [25.0, 1.0])

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_row_and_col_sqnorms_match_full_square(self, order):
        X = np.asarray(np.random.default_rng(0).normal(size=(130, 7)),
                       order=order)
        d = Dataset(X, np.ones(130, dtype=int))
        assert_near_exact_sqnorms(d, X)
        ds = Dataset(sp.csr_array(X), np.ones(130, dtype=int))
        np.testing.assert_allclose(ds.row_sqnorms(), d.row_sqnorms(),
                                   rtol=1e-14)
        np.testing.assert_allclose(ds.col_sqnorms(), d.col_sqnorms(),
                                   rtol=1e-14)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n, p", [(65, 16384), (9, 70000), (20000, 50),
                                      (0, 7), (7, 0)])
    def test_sqnorms_within_gamma_of_exact_sum(self, order, n, p):
        X = np.asarray(np.random.default_rng(2).normal(size=(n, p)),
                       order=order)
        assert_near_exact_sqnorms(Dataset(X, np.ones(n, dtype=int)), X)

    def test_csr_row_norms_need_no_dense_width(self):
        # Three nonzeros in 2^40 columns: a dense column-norm vector would
        # take 8 TiB, and only col_sqnorms() may build it.
        X = sp.csr_array((np.array([3.0, 4.0, -2.0]),
                          np.array([0, 2 ** 40 - 1, 7]),
                          np.array([0, 2, 3])), shape=(2, 2 ** 40))
        d = Dataset(X, [1, -1])
        tracemalloc.start()
        try:
            rows = d.row_sqnorms()
            L = lipschitz_binary(d, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(rows, [25.0, 4.0])
        same_rows = Dataset(np.array([[3.0, 4.0], [-2.0, 0.0]]), [1, -1])
        assert L == lipschitz_binary(same_rows, 1.0)
        assert peak < 1 << 20

    def test_sqnorms_need_no_copy_of_x(self):
        X = np.random.default_rng(1).normal(size=(2000, 2000))
        d = Dataset(X, np.ones(2000, dtype=int))
        tracemalloc.start()
        try:
            d.row_sqnorms()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes / 8


def random_csr(rng, n, p):
    """A canonical CSR with some explicit zeros and some entries whose
    squares underflow to zero, both of which X.multiply(X) drops."""
    X = rng.normal(size=(n, p)) * (rng.random((n, p)) < rng.uniform(0.05, 0.9))
    X[rng.random((n, p)) < 0.05] *= 1e-170
    X = sp.csr_array(X)
    X.data[rng.random(X.nnz) < 0.2] = 0.0
    return X


class TestCsrSqnorms:
    """Both CSR norms have the bits of the sums over ``X.multiply(X)``; the
    column norms add the squared entries by column index, and neither
    request squares X into a second full copy or replaces the other."""

    def test_column_norms_keep_the_cached_row_norms(self):
        d = Dataset(random_csr(np.random.default_rng(0), 30, 40),
                    np.ones(30, dtype=int))
        rows = d.row_sqnorms()
        d.col_sqnorms()
        assert d.row_sqnorms() is rows

    @pytest.mark.parametrize("seed", range(8))
    def test_bit_equal_to_sums_of_the_full_square(self, seed):
        rng = np.random.default_rng(seed)
        X = random_csr(rng, int(rng.integers(1, 60)), int(rng.integers(1, 300)))
        assert np.any(X.data == 0.0) or X.nnz < 5
        d = Dataset(X, np.ones(X.shape[0], dtype=int))
        sq = X.multiply(X)
        for got, axis in [(d.col_sqnorms(), 0), (d.row_sqnorms(), 1)]:
            want = np.asarray(sq.sum(axis=axis)).ravel()
            np.testing.assert_array_equal(got.view(np.int64),
                                          want.view(np.int64))

    def test_overflowing_square_is_inf_without_warning(self):
        X = sp.csr_array(np.array([[1e200, 1.0], [0.0, 2.0]]))
        d = Dataset(X, [1, -1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(d.col_sqnorms(), [np.inf, 5.0])
            np.testing.assert_array_equal(d.row_sqnorms(), [np.inf, 4.0])

    def test_row_norms_square_one_copy_of_x(self):
        # X.multiply(X) sizes its result for twice X's entries.
        X = random_csr(np.random.default_rng(9), 400, 2000)
        x_bytes = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
        d = Dataset(X, np.ones(400, dtype=int))
        tracemalloc.start()
        try:
            d.row_sqnorms()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * x_bytes


class TestParseLibsvm:
    def test_basic_line(self):
        d = parse_libsvm("+1 1:0.5 3:-2\n")
        assert d.n == 1 and d.n_features == 3 and d.labels[0] == 1
        np.testing.assert_allclose(dense(d), [[0.5, 0.0, -2.0]])
        assert d.X.nnz == 2

    def test_parsed_matrix_is_csr(self):
        assert isinstance(parse_libsvm("+1 1:0.5\n-1\n").X, sp.csr_array)
        assert isinstance(parse_libsvm("").X, sp.csr_array)

    def test_label_only_line(self):
        d = parse_libsvm("2\n")
        assert d.n == 1 and d.labels[0] == 2
        assert d.X.nnz == 0

    def test_malformed_token(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_libsvm("+1 1:1\n-1 2:oops\n")

    @pytest.mark.parametrize("text, message", [
        ("+1 1:1\nyes 2:1\n", "line 2.*bad label token 'yes'"),
        ("+1 1:1\n-1 2:1\n+1 4\n", "line 3.*malformed feature token '4'")])
    def test_bad_token_names_its_line(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_libsvm(text)

    def test_blank_lines_skipped(self):
        d = parse_libsvm("\n+1 1:0.5\n   \n\n-1 2:2\n\n")
        assert d.n == 2 and d.n_features == 2
        np.testing.assert_array_equal(d.labels, [1, -1])
        np.testing.assert_array_equal(dense(d), [[0.5, 0.0], [0.0, 2.0]])
        # A line number still counts the blank lines before it.
        with pytest.raises(ParseError, match="line 3"):
            parse_libsvm("+1 1:1\n\n-1 0:1\n")

    @pytest.mark.parametrize("wrap", [list, iter, io.StringIO])
    def test_lines_parse_like_joined_text(self, wrap):
        lines = ["+1 1:0.5 3:-2", "", "-1 2:1.25", "+1"]
        text = "\n".join(lines) + "\n"
        source = (io.StringIO(text) if wrap is io.StringIO
                  else wrap([ln + "\n" for ln in lines]))
        got, want = parse_libsvm(source), parse_libsvm(text)
        assert (got.n, got.n_features, got.kind) == (want.n, want.n_features,
                                                     want.kind)
        np.testing.assert_array_equal(got.labels, want.labels)
        np.testing.assert_array_equal(dense(got), dense(want))

    def test_nonascending_index(self):
        with pytest.raises(ParseError):
            parse_libsvm("+1 3:1 2:1\n")

    def test_index_below_one(self):
        with pytest.raises(ParseError):
            parse_libsvm("+1 0:1\n")

    def test_noninteger_label(self):
        with pytest.raises(ParseError):
            parse_libsvm("1.5 1:1\n")

    @pytest.mark.parametrize("second", [
        "-1 2:nan", "-1 2:-inf", "-1 2:1e999", "nan 2:1", "inf 2:1"])
    def test_non_finite_rejected_with_line(self, second):
        with pytest.raises(ParseError, match="line 2.*not finite"):
            parse_libsvm(f"+1 1:1\n{second}\n")

    def test_feature_override(self):
        d = parse_libsvm("+1 2:1\n", n_features=10)
        assert d.n_features == 10
        with pytest.raises(ShapeError):
            parse_libsvm("+1 5:1\n", n_features=3)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(7)
        X = sp.random(20, 15, density=0.3, random_state=3, format="csr")
        d = Dataset(sp.csr_array(X), rng.choice([-1, 1], 20))
        buf = io.StringIO()
        write_libsvm(d, buf)
        d2 = parse_libsvm(buf.getvalue(), n_features=15)
        np.testing.assert_array_equal(d2.labels, d.labels)
        np.testing.assert_array_equal(dense(d2), dense(d))
        # second round trip is byte-identical
        buf2 = io.StringIO()
        write_libsvm(d2, buf2)
        assert buf.getvalue() == buf2.getvalue()

    def test_round_trip_of_repeated_and_unsorted_indices(self):
        buf = io.StringIO()
        write_libsvm(Dataset(messy_csr(), [1, -1]), buf)
        assert buf.getvalue() == "+1 1:3 3:4\n-1 2:5 4:-1\n"
        np.testing.assert_array_equal(
            dense(parse_libsvm(buf.getvalue(), n_features=4)),
            messy_csr().toarray())

    def test_dense_and_csr_write_identically(self):
        X = np.array([[0.0, -0.0, 1.5, 0.0],
                      [-2.0, 0.0, 0.0, 1e-300],
                      [0.0, 0.0, 0.0, 0.0],
                      [0.1, 0.2, -0.0, 3.0]])
        labels = [1, -1, 1, -1]
        # CSR with each row's entries stored in reverse column order.
        rows = [np.flatnonzero(r)[::-1] for r in X]
        vals = np.concatenate([X[i, c] for i, c in enumerate(rows)])
        csr = sp.csr_array((vals, np.concatenate(rows),
                            np.cumsum([0] + [c.size for c in rows])),
                           shape=X.shape)
        assert not csr.has_sorted_indices
        outs = []
        for matrix in (X, csr):
            buf = io.StringIO()
            write_libsvm(Dataset(matrix, labels), buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1] == (
            "+1 3:1.5\n-1 1:-2 4:1e-300\n+1\n"
            "-1 1:0.10000000000000001 2:0.20000000000000001 4:3\n")

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_dense_and_its_csr_copy_write_identically(self, order):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(30, 12)) * (rng.random((30, 12)) < 0.4)
        X = np.asarray(X, order=order)
        labels = rng.integers(1, 5, 30)
        outs = []
        for matrix in (X, sp.csr_array(X)):
            buf = io.StringIO()
            write_libsvm(Dataset(matrix, labels), buf)
            outs.append(buf.getvalue())
        assert outs[0] == outs[1]

    def test_write_binary_labels_signed(self):
        d = Dataset(np.array([[1.0], [0.0]]), [1, -1])
        buf = io.StringIO()
        write_libsvm(d, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("+1") and lines[1] == "-1"


def assert_same_dataset(got, want):
    """Equal bits: shape, dtypes, CSR arrays (the sign of zero included),
    labels, kind and class count."""
    assert got.X.shape == want.X.shape
    for field in ("data", "indices", "indptr"):
        a, b = getattr(got.X, field), getattr(want.X, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert got.labels.dtype == want.labels.dtype
    assert got.labels.tobytes() == want.labels.tobytes()
    assert (got.kind, got.n_classes) == (want.kind, want.n_classes)


def outcome(parse, source, n_features):
    """The parsed dataset or the package error raised; any warning, from
    whichever module, fails the test."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return parse(source, n_features=n_features)
    except HsvmError as exc:
        return exc


# Separators str.split() knows; str.splitlines() also breaks at \x0b, \x0c
# and \x1c-\x1e, a file only at its line ends.
SEPARATORS = [" "] * 8 + ["\t", "  ", " \t ", "\x0b", "\x0c", "\x1c", "\x1f"]
LABEL_SETS = [(-1, 1), (1, 2, 3, 4, 40), (0,)]
LINE_ENDS = ["\n", "\n", "\r\n", "\r"]
LABEL_FORMATS = ["%d", "+%d", "%d.0", "%de0", "%d."]
VALUE_FORMATS = ["%.17g", "%r", "%.6g", "%e", "%+.3E"]
VALUES = st.one_of(
    st.sampled_from(["-0.0", "0", "-0", "+.5", "5.", "1e-400", "4.9e-324",
                     "1E5", "1.7976931348623157e308"]),
    st.builds(lambda fmt, v: fmt % v, st.sampled_from(VALUE_FORMATS),
              st.floats(allow_nan=False, allow_infinity=False)))
BAD_LABELS = ["1.5", "nan", "inf", "-Infinity", "1e999", "yes", "+", "2:1"]
BAD_PAIRS = ["3:nan", "3:inf", "3:-inf", "3:1e999", "4", "3:", ":1", "3::1",
             "3:1:2", "0:1", "-2:1", "1.0:2", "1e1:2", "a:1", "3:x", "3:0x10"]


@st.composite
def libsvm_texts(draw, broken):
    """LIBSVM text of 0-6 lines: rows, blank and whitespace-only lines.
    When ``broken``, one token is replaced or one pair repeated."""
    labels, lines = draw(st.sampled_from(LABEL_SETS)), []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            lines.append([draw(st.sampled_from(["", " ", "\t", " \t "]))])
            continue
        tokens = [draw(st.sampled_from(LABEL_FORMATS))
                  % draw(st.sampled_from(labels))]
        index = 0
        for _ in range(draw(st.integers(0, 5))):
            index += draw(st.integers(1, 60))
            prefix = draw(st.sampled_from(["", "", "+", "0"]))
            tokens.append(f"{prefix}{index}:{draw(VALUES)}")
        lines.append(tokens)
    rows = [t for t in lines if t[0].strip()]
    if broken and rows:
        tokens = draw(st.sampled_from(rows))
        at = draw(st.integers(0, len(tokens)))
        if at == len(tokens) and len(tokens) > 1:
            tokens.append(tokens[-1])  # not ascending
        elif at == 0:
            tokens[0] = draw(st.sampled_from(BAD_LABELS))
        else:
            tokens.insert(at, draw(st.sampled_from(BAD_PAIRS)))
    text = ""
    for tokens in lines:
        sep = draw(st.sampled_from(SEPARATORS))
        lead, trail = draw(st.sampled_from(["", " ", "\t"])), draw(
            st.sampled_from(["", "", " ", "\t", "\x0c"]))
        text += lead + sep.join(tokens) + trail + draw(
            st.sampled_from(LINE_ENDS))
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    return text


def each_source(text, path):
    """The text as a str, as a list of lines, and as the file ``path``
    opened for reading."""
    yield text
    yield text.split("\n")
    path.write_text(text, encoding="ascii", newline="")
    with open(path, encoding="ascii") as fh:
        yield fh


class TestParseMatchesReference:
    """The bulk parser against the per-token loop it replaced."""

    @given(st.booleans().flatmap(libsvm_texts),
           st.one_of(st.none(), st.integers(0, 400)))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_same_bits_or_same_error(self, tmp_path_factory, text,
                                     n_features):
        tmp_dir = tmp_path_factory.getbasetemp()
        for want_source, got_source in zip(
                each_source(text, tmp_dir / "want.libsvm"),
                each_source(text, tmp_dir / "got.libsvm")):
            want = outcome(reference_parse_libsvm, want_source, n_features)
            got = outcome(parse_libsvm, got_source, n_features)
            if isinstance(want, Exception):
                assert (type(got), str(got)) == (type(want), str(want))
            else:
                assert_same_dataset(got, want)

    @given(st.booleans().flatmap(libsvm_texts), st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_underscore_is_a_parse_error(self, tmp_path_factory, text, data):
        """``_`` anywhere in a line is a ParseError naming that line, unless
        an earlier line already fails. Between two digits it is a separator
        that ``int()`` and ``float()`` would accept."""
        text = text if text.strip("\r\n") else "40 1:1\n"
        digits = [i for i in range(1, len(text))
                  if text[i - 1].isdigit() and text[i].isdigit()]
        anywhere = [i for i, c in enumerate(text) if c not in "\r\n"]
        at = data.draw(st.sampled_from(
            digits if digits and data.draw(st.booleans()) else anywhere))
        text = text[:at] + "_" + text[at:]
        path = tmp_path_factory.getbasetemp() / "underscore.libsvm"
        for source in each_source(text, path):
            lines = (text.splitlines() if isinstance(source, str) else
                     source if isinstance(source, list) else
                     path.read_text(encoding="ascii").split("\n"))
            first = next(k for k, ln in enumerate(lines, 1) if "_" in ln)
            with pytest.raises(ParseError) as got:
                parse_libsvm(source)
            earlier = outcome(reference_parse_libsvm, lines[:first - 1], None)
            assert str(got.value) == (
                str(earlier) if isinstance(earlier, ParseError)
                else f"line {first}: '_' is not allowed")

    @pytest.mark.parametrize("text", ["+1 1:\u0663\n", "+1\xa01:2\n",
                                      "+1 1:1\n\u3000\n"])
    def test_non_ascii_is_a_parse_error(self, text):
        """int() and float() read Unicode digits and split() Unicode blanks;
        LIBSVM text is ASCII, as ``load_libsvm`` already required."""
        reference_parse_libsvm(text)
        line = text.count("\n", 0, next(i for i, c in enumerate(text)
                                         if not c.isascii())) + 1
        with pytest.raises(ParseError,
                           match=f"line {line}: non-ASCII character"):
            parse_libsvm(text)

    @pytest.mark.parametrize("text, message", [
        ("+1 1:1\n+1 99999999999999999999:1\n",
         "line 2: feature index 99999999999999999999 is out of range"),
        ("+1 1:1\n+1 2:1 9223372036854775808:1\n",
         "line 2: feature index 9223372036854775808 is out of range"),
        ("+1 1:1\n1e300 1:1\n", "line 2: label '1e300' is out of range"),
        ("-1e19 1:1\n", "line 1: label '-1e19' is out of range"),
        # A float rounds these to 2^53 and -2^63.
        ("+1 1:1\n9007199254740993 1:1\n",
         "line 2: label '9007199254740993' is out of range"),
        ("-9223372036854775809 1:1\n",
         "line 1: label '-9223372036854775809' is out of range")])
    def test_out_of_range_is_a_parse_error(self, text, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_libsvm(text)

    def test_largest_exact_label_parses(self):
        d = parse_libsvm("9007199254740991 1:1\n")
        assert d.labels.tolist() == [2 ** 53 - 1]
        with pytest.raises(ParseError, match="out of range"):
            parse_libsvm("-9007199254740992 1:1\n")

    def test_largest_int64_index_parses(self):
        d = parse_libsvm("+1 9223372036854775807:1\n")
        assert d.n_features == 2 ** 63 - 1
        assert d.X.indices.tolist() == [2 ** 63 - 2]

    @pytest.mark.parametrize("blank", ["\x0c", "\x1c"])
    def test_file_line_numbers_follow_its_own_lines(self, tmp_path, blank):
        """str.splitlines() breaks at \\x0c and \\x1c, a file does not: in
        a file they separate tokens, and a later line keeps its number."""
        path = tmp_path / "d.libsvm"
        path.write_text(f"+1 1:1{blank}2:1\n-1 3:1\n", encoding="ascii")
        d = load_libsvm(path)
        assert d.n == 2 and d.X.indptr.tolist() == [0, 2, 3]
        path.write_text(f"+1 1:1{blank}2:1\n-1 0:1\n", encoding="ascii")
        with pytest.raises(ParseError, match="^line 2: feature index 0 < 1$"):
            load_libsvm(path)

    @pytest.mark.parametrize("text, shape, kind", [
        ("+1 3:0.5\n", (1, 3), "binary"),
        ("2\n3 \n", (2, 0), "multiclass"),
        ("", (0, 0), "binary"),
        ("\n \n", (0, 0), "binary")])
    def test_small_files_keep_their_dataset(self, tmp_path, text, shape,
                                            kind):
        path = tmp_path / "d.libsvm"
        path.write_text(text, encoding="ascii")
        got = load_libsvm(path)
        assert (got.X.shape, got.kind) == (shape, kind)
        with open(path, encoding="ascii") as fh:
            assert_same_dataset(got, reference_parse_libsvm(fh))


class TestBinaryGenerator:
    def test_sigma_block_structure(self):
        block = _equicorr_block(2, 0.8)
        np.testing.assert_allclose(block, [[1.0, 0.8], [0.8, 1.0]])

    def test_cholesky_valid_for_rho_range(self):
        for rho in (0.0, 0.3, 0.8, 0.99):
            np.linalg.cholesky(_equicorr_block(30, rho))

    def test_reproducible_and_seed_sensitive(self):
        spec = SynthSpec(kind="binary_gaussian", n=20, p=10, s=3, rho=0.5, seed=5)
        a = gen_binary_gaussian(spec)
        b = gen_binary_gaussian(spec)
        np.testing.assert_array_equal(dense(a), dense(b))
        c = gen_binary_gaussian(SynthSpec(kind="binary_gaussian", n=20, p=10,
                                          s=3, rho=0.5, seed=6))
        assert not np.array_equal(dense(a), dense(c))

    def test_labels_and_support(self):
        spec = SynthSpec(kind="binary_gaussian", n=40, p=8, s=4, seed=1)
        d = gen_binary_gaussian(spec)
        assert (d.labels[:20] == 1).all() and (d.labels[20:] == -1).all()
        np.testing.assert_array_equal(d.true_support, np.arange(4))

    def test_moments_identity_covariance(self):
        spec = SynthSpec(kind="binary_gaussian", n=100_000, p=5, s=2,
                         rho=0.0, seed=11)
        d = gen_binary_gaussian(spec)
        X = dense(d)
        pos = X[d.labels == 1]
        np.testing.assert_allclose(pos.mean(axis=0),
                                   [1, 1, 0, 0, 0], atol=0.02)
        np.testing.assert_allclose(np.cov(pos.T), np.eye(5), atol=0.02)

    def test_moments_correlated_block(self):
        spec = SynthSpec(kind="binary_gaussian", n=100_000, p=4, s=2,
                         rho=0.8, seed=13)
        d = gen_binary_gaussian(spec)
        X = dense(d)[d.labels == 1]
        cov = np.cov(X.T)
        expect = np.eye(4)
        expect[0, 1] = expect[1, 0] = 0.8
        np.testing.assert_allclose(cov, expect, atol=0.02)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            gen_binary_gaussian(SynthSpec(kind="binary_gaussian", n=21, p=5, s=2))
        with pytest.raises(DomainError):
            gen_binary_gaussian(SynthSpec(kind="binary_gaussian", n=10, p=5, s=6))
        with pytest.raises(DomainError):
            SynthSpec(kind="binary_gaussian", n=10, p=5, s=2, rho=1.0)


class TestFourClassGenerator:
    def test_mu3_offset(self):
        spec = SynthSpec(kind="four_class", n=4, p=4, s=2, seed=0)
        d = gen_fourclass(spec)
        # class 3 mean is (0, 1, 1, 0); verify via a large sample
        big = gen_fourclass(SynthSpec(kind="four_class", n=40_000, p=4, s=2,
                                      seed=2))
        X3 = dense(big)[big.labels == 3]
        np.testing.assert_allclose(X3.mean(axis=0), [0, 1, 1, 0], atol=0.03)

    def test_sigma3_block_placement(self):
        # leading s/2 block of class 3 is uncorrelated, next s block is rho
        spec = SynthSpec(kind="four_class", n=80_000, p=6, s=4, rho=0.8, seed=3)
        d = gen_fourclass(spec)
        X3 = dense(d)[d.labels == 3]
        cov = np.cov(X3.T)
        assert abs(cov[0, 1]) < 0.03            # inside identity head
        assert cov[2, 3] == pytest.approx(0.8, abs=0.03)  # inside rho block
        assert abs(cov[1, 2]) < 0.03            # across blocks

    def test_balanced_classes(self):
        d = gen_fourclass(SynthSpec(kind="four_class", n=32, p=8, s=4, seed=4))
        for j in range(1, 5):
            assert (d.labels == j).sum() == 8

    def test_symmetry_of_means(self):
        big = gen_fourclass(SynthSpec(kind="four_class", n=40_000, p=5, s=2,
                                      seed=5))
        X = dense(big)
        m1 = X[big.labels == 1].mean(axis=0)
        m2 = X[big.labels == 2].mean(axis=0)
        np.testing.assert_allclose(m1, -m2, atol=0.05)

    def test_odd_s_rejected(self):
        with pytest.raises(DomainError):
            gen_fourclass(SynthSpec(kind="four_class", n=8, p=10, s=3))

    def test_support_is_union_of_means(self):
        d = gen_fourclass(SynthSpec(kind="four_class", n=8, p=10, s=4, seed=6))
        np.testing.assert_array_equal(d.true_support, np.arange(6))


class TestStandardize:
    def test_train_columns_normalized(self):
        rng = np.random.default_rng(21)
        train = Dataset(rng.normal(2.0, 3.0, size=(30, 5)),
                        rng.choice([-1, 1], 30))
        out, _, stats = standardize(train)
        X = dense(out)
        np.testing.assert_allclose(X.mean(axis=0), np.zeros(5), atol=1e-12)
        np.testing.assert_allclose(X.std(axis=0, ddof=1), np.ones(5),
                                   atol=1e-12)
        assert not stats.constant.any()

    def test_constant_feature_flagged(self):
        X = np.ones((4, 2))
        X[:, 1] = [1, 2, 3, 4]
        train = Dataset(X, [1, -1, 1, -1])
        out, _, stats = standardize(train)
        assert stats.constant[0] and not stats.constant[1]
        np.testing.assert_array_equal(dense(out)[:, 0], np.zeros(4))

    def test_test_uses_train_statistics(self):
        rng = np.random.default_rng(22)
        train = Dataset(rng.normal(size=(50, 3)), rng.choice([-1, 1], 50))
        test = Dataset(rng.normal(5.0, 1.0, size=(20, 3)),
                       rng.choice([-1, 1], 20))
        _, test_out, stats = standardize(train, test)
        expect = (dense(test) - stats.mean) / stats.std
        np.testing.assert_allclose(dense(test_out), expect, rtol=1e-12)
        assert abs(dense(test_out).mean()) > 0.5  # not self-normalized

    def test_idempotent(self):
        rng = np.random.default_rng(23)
        train = Dataset(rng.normal(size=(40, 4)), rng.choice([-1, 1], 40))
        once, _, _ = standardize(train)
        twice, _, _ = standardize(once)
        np.testing.assert_allclose(dense(twice), dense(once), atol=1e-10)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_test_width_mismatch_raises_shape_error(self, sparse):
        rng = np.random.default_rng(24)
        train = Dataset(rng.normal(size=(10, 3)), rng.choice([-1, 1], 10))
        X = rng.normal(size=(4, 5))
        test = Dataset(sp.csr_array(X) if sparse else X, [1, -1, 1, -1])
        with pytest.raises(ShapeError, match="test set has 5 features, "
                                             "training set has 3"):
            standardize(train, test)

    def test_empty_train_rejected(self):
        with pytest.raises(DomainError):
            standardize(Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int),
                                kind="binary"))


class TestNonFiniteFeatures:
    """A NaN, an inf or an entry whose square overflows fails
    ``standardize`` (in the training or the test set) and ``gene_rank``
    with the one ``DomainError`` of ``finite_features``, and no warning."""

    X = np.array([[1.0, 0.5, 2.0], [0.2, -1.0, 1.0], [-1.0, 0.3, 0.0],
                  [0.4, 2.0, -2.0]])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e200])
    @pytest.mark.parametrize("layout", ["dense", "csr"])
    @pytest.mark.parametrize("call", ["standardize_train", "standardize_test",
                                      "gene_rank"])
    def test_rejected_naming_the_feature_matrix(self, value, layout, call):
        bad = self.X.copy()
        bad[1, 1] = value

        def data(X):
            return Dataset(sp.csr_array(X) if layout == "csr" else X,
                           [1, 2, 3, 1])

        calls = {"standardize_train": lambda: standardize(data(bad),
                                                          data(self.X)),
                 "standardize_test": lambda: standardize(data(self.X),
                                                         data(bad)),
                 "gene_rank": lambda: gene_rank(data(bad))}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match="^feature matrix "):
                calls[call]()
        assert caught == []

    @pytest.mark.parametrize("layout", ["dense", "csr"])
    def test_finite_set_passes_unchanged(self, layout):
        X = sp.csr_array(self.X) if layout == "csr" else self.X
        d = Dataset(X, [1, 2, 3, 1])
        assert finite_features(d) is d.X
        np.testing.assert_array_equal(finite_features(d, dense=True), self.X)


class TestGeneRank:
    def test_hand_computed_ratio(self):
        X = np.array([[0.0], [2.0], [1.0], [3.0]])
        d = Dataset(X, [1, 1, 2, 2])
        np.testing.assert_allclose(gene_rank(d), [0.25])

    def test_perfectly_discriminative_gene(self):
        X = np.array([[1.0, 0.3], [1.0, -0.1], [5.0, 0.2], [5.0, 0.5]])
        d = Dataset(X, [1, 1, 2, 2])
        scores = gene_rank(d)
        assert np.isinf(scores[0]) and np.isfinite(scores[1])
        np.testing.assert_array_equal(select_top_features(scores, 1), [0])

    def test_uninformative_gene_ranks_low(self):
        rng = np.random.default_rng(31)
        n = 4000
        y = rng.integers(1, 4, n)
        X = np.column_stack([rng.normal(size=n),        # independent of y
                             y + 0.5 * rng.normal(size=n)])  # informative
        scores = gene_rank(Dataset(X, y))
        assert scores[1] > 10 * scores[0]
        assert scores[0] < 0.05

    def test_degenerate_requires_guard(self):
        X = np.ones((2, 1))
        d = Dataset(X, [1, 2])
        with pytest.raises(DomainError):
            gene_rank(d)
        np.testing.assert_allclose(gene_rank(d, eps=1e-9), [0.0])

    def test_requires_multiclass(self):
        with pytest.raises(LabelError):
            gene_rank(Dataset(np.zeros((2, 1)), [1, -1]))

    def test_top_k_selector(self):
        scores = np.array([0.1, 5.0, 5.0, 0.2])
        np.testing.assert_array_equal(select_top_features(scores, 2), [1, 2])
        with pytest.raises(DomainError):
            select_top_features(scores, 0)
