"""Sparsemax forward against two independent oracles, plus its Jacobian."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attentab import autodiff as ad
from attentab import tabnet
from attentab import train as tr
from attentab.autodiff import EXCLUDED_SCORE
from attentab.autodiff import SPARSEMAX_LEAD as LEAD
from attentab.data import stratified_split
from attentab.errors import NumericsError
from attentab.synthetic import dataset_from_arrays, make_classification
from attentab.tabnet import TabNetClassifier, TabNetConfig

from helpers import (
    grad_check,
    reduce_sum,
    sparsemax_bisect,
    sparsemax_margin,
    sparsemax_negate_sort,
    sparsemax_negate_sort_op,
    sparsemax_rowloop,
    sparsemax_sort_threshold,
    weighted_sum_loss,
)


def project(z):
    return ad.sparsemax(None, ad.Tensor(np.asarray(z, dtype=np.float64))).data


# Quarter-step scores keep every sum in the sort rule exact, so ties and
# entries sitting exactly on the threshold are decided alike by both sides.
QUARTERS = st.integers(-40, 40).map(lambda k: k / 4)


@st.composite
def score_rows(draw):
    """Rows of tied quarter-step scores, EXCLUDED_SCORE entries (features
    whose prior is exhausted) and, in some rows, one dominant score."""
    dim = draw(st.integers(2, 8))
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        cell = st.sampled_from([0.0, 0.5, 1.0]) | QUARTERS | st.just(EXCLUDED_SCORE)
        row = draw(st.lists(cell, min_size=dim, max_size=dim))
        if draw(st.booleans()):
            row[draw(st.integers(0, dim - 1))] = 1000.0
        rows.append(row)
    return np.array(rows)


def support_row(width, k, seed):
    """Dyadic scores whose support is exactly their k largest: those lie
    within 1 / (2k) of each other, so the sort rule holds at k, and the rest
    sit at least 1 below them or at EXCLUDED_SCORE, so it fails at k + 1.
    Columns are shuffled."""
    r = np.random.default_rng(seed)
    top = -r.integers(0, 2**12 // (2 * k) + 1, size=k) / 2**12
    tail = top.min() - 1.0 - r.integers(0, 40, size=width - k) / 4
    tail[r.random(width - k) < 0.3] = EXCLUDED_SCORE
    return r.permutation(np.concatenate([top, tail]))


@st.composite
def wide_rows(draw):
    """Rows as wide as LEAD - 1 to 130 columns: supports of exactly
    LEAD - 1, LEAD, LEAD + 1 or any size, all-equal rows (full support), one
    dominant score, tied quarter steps with EXCLUDED_SCORE columns, and
    near-flat normal scores whose sort rule meets rounding. Returns the rows
    and each row's known support size (None where it is not known)."""
    width = draw(st.integers(LEAD - 1, 130))
    rows, sizes = [], []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["support", "flat", "dominant", "ties", "normal"]))
        size = None
        if kind == "support":
            sizes_near_lead = st.sampled_from([LEAD - 1, LEAD, LEAD + 1])
            size = min(draw(sizes_near_lead | st.integers(1, width)), width)
            row = support_row(width, size, draw(st.integers(0, 2**32 - 1)))
        elif kind == "flat":
            row, size = np.full(width, draw(QUARTERS)), width
        elif kind == "normal":
            r = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            row = r.normal(scale=draw(st.sampled_from([0.005, 0.02, 0.05])), size=width)
        else:
            ties = st.sampled_from([0.0, 0.25, 0.5]) | st.just(EXCLUDED_SCORE)
            cell = QUARTERS if kind == "dominant" else ties
            row = np.array(draw(st.lists(cell, min_size=width, max_size=width)))
            if kind == "dominant":
                row[draw(st.integers(0, width - 1))] = 1000.0
                size = 1
        rows.append(row)
        sizes.append(size)
    return np.array(rows), sizes


def lead_edge_rows(width):
    """Rows of ``width`` columns whose supports are LEAD - 1, LEAD and
    LEAD + 1 wide."""
    sizes = [k for k in (LEAD - 1, LEAD, LEAD + 1) if k <= width]
    return np.array([support_row(width, k, seed) for seed, k in enumerate(sizes)]), sizes


def rounding_reopens_rows(n, seed=0):
    """Rows whose float sort rule fails at column LEAD by an ulp or so and
    holds again after it. Exactly, the LEAD largest scores lie 1 above the
    LEAD-th one in sum, and the next four tie with it."""
    r = np.random.default_rng(seed)
    rows = []
    while len(rows) < n:
        gaps = np.sort(r.dirichlet(np.ones(LEAD - 1)))[::-1]
        for ulps in range(-4, 5):
            edge = -gaps[0] + ulps * np.spacing(gaps[0])
            row = np.concatenate([gaps - gaps[0], np.full(4, edge), np.full(10, edge - 5.0)])
            test = 1.0 + np.arange(1, row.size + 1) * row > np.cumsum(row)
            if not test[LEAD - 1] and test[LEAD:].any():
                rows.append(r.permutation(row))
    return np.array(rows[:n])


class TestForward:
    def test_tie_splits_evenly(self):
        np.testing.assert_allclose(project([[0.0, 0.0]]), [[0.5, 0.5]], atol=1e-12)

    def test_large_gap_saturates(self):
        np.testing.assert_allclose(project([[3.0, 0.0]]), [[1.0, 0.0]], atol=1e-12)

    def test_half_unit_gap_known_value(self):
        # support {1, 0.5}: tau = (1.5 - 1) / 2 = 0.25
        np.testing.assert_allclose(project([[1.0, 0.5]]), [[0.75, 0.25]], atol=1e-12)

    def test_matches_both_oracles_on_random_rows(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            z = rng.normal(scale=3.0, size=(1, dim))
            out = project(z)
            np.testing.assert_allclose(out, sparsemax_rowloop(z), atol=1e-9)
            np.testing.assert_allclose(out, sparsemax_bisect(z), atol=1e-7)

    def test_rows_are_distributions(self, rng):
        out = project(rng.normal(scale=3.0, size=(64, 7)))
        assert (out >= 0.0).all()
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_shift_invariance(self, rng):
        z = rng.normal(scale=3.0, size=(32, 5))
        shifted = z + rng.normal(scale=10.0, size=(32, 1))
        np.testing.assert_allclose(project(z), project(shifted), atol=1e-9)

    def test_batched_equals_per_row(self, rng):
        z = rng.normal(scale=2.0, size=(10, 4))
        out = project(z)
        for b in range(10):
            np.testing.assert_allclose(out[b], project(z[b : b + 1])[0], atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(NumericsError):
            project([[np.nan, 0.0]])
        with pytest.raises(NumericsError):
            project([[np.inf, 0.0]])

    @given(
        st.lists(st.floats(-30, 30), min_size=2, max_size=8),
        st.floats(-100, 100),
    )
    @settings(max_examples=100, deadline=None)
    def test_distribution_and_shift_properties(self, row, c):
        z = np.array([row])
        out = project(z)
        assert (out >= 0.0).all()
        assert abs(out.sum() - 1.0) < 1e-9
        np.testing.assert_allclose(out, project(z + c), atol=1e-9)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_oracle_agreement_property(self, seed):
        r = np.random.default_rng(seed)
        z = r.normal(scale=3.0, size=(1, int(r.integers(2, 9))))
        np.testing.assert_allclose(project(z), sparsemax_rowloop(z), atol=1e-9)

    @given(score_rows())
    @example(np.array([[1.0, 1.0, 0.0], [0.5, 0.5, 0.5]]))
    @example(np.array([[1000.0, 1.0, 1.0, EXCLUDED_SCORE]]))
    @example(np.array([[EXCLUDED_SCORE, 0.25, 0.25, EXCLUDED_SCORE]]))
    @example(np.array([[EXCLUDED_SCORE, EXCLUDED_SCORE]]))
    @settings(max_examples=200, deadline=None)
    def test_support_size_matches_sort_oracle(self, z):
        out = project(z)
        for b, row in enumerate(z):
            # the projection is shift-invariant; shifting by the row maximum
            # keeps the rule's 1 + k * z_(k) from rounding away the 1 when
            # every score is EXCLUDED_SCORE
            shifted = row - row.max()
            k, tau = sparsemax_sort_threshold(shifted)
            assert np.count_nonzero(out[b]) == k
            np.testing.assert_allclose(out[b], np.maximum(shifted - tau, 0.0), rtol=0, atol=1e-12)

    @given(score_rows())
    @example(np.array([[EXCLUDED_SCORE, EXCLUDED_SCORE]]))
    @example(np.array([[0.0, -0.0, 0.0, -0.25]]))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_negate_sort(self, z):
        assert np.array_equal(project(z), sparsemax_negate_sort(z))

    @given(wide_rows())
    @example(lead_edge_rows(LEAD - 1))
    @example(lead_edge_rows(LEAD))
    @example(lead_edge_rows(LEAD + 1))
    @example(lead_edge_rows(130))
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_negate_sort_on_wide_rows(self, case):
        # rows wider than SPARSEMAX_LEAD: the lead pass alone must decide
        # rows whose support ends inside it, and the full-width pass every
        # other row, as the full-width computation does
        z, sizes = case
        got = project(z)
        assert np.array_equal(got, sparsemax_negate_sort(z))
        for row, size in zip(got, sizes):
            if size is not None:
                assert np.count_nonzero(row) == size

    def test_bit_identical_where_rounding_reopens_the_support(self):
        # the float sort rule passes again past a failing last lead column
        # here; over the full width those later columns count, so these rows
        # must not be decided by the lead pass alone
        z = rounding_reopens_rows(64)
        assert np.array_equal(project(z), sparsemax_negate_sort(z))

    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_negate_sort_on_eval_blocks(self, seed):
        # an eval chunk of pump-shaped scores: prior-scaled, with the columns
        # of exhausted priors at EXCLUDED_SCORE, a few rows down to one
        # column, near-flat rows whose support is wider than the lead, and
        # duplicated values so the sort meets ties
        r = np.random.default_rng(seed)
        prior = r.uniform(0.0, 1.3, size=(1024, 114))
        prior[:, r.choice(114, size=20, replace=False)] = 0.0
        prior[r.random((1024, 114)) < 0.2] = 0.0
        prior[:8] = 0.0
        prior[:8, 0] = 1.0
        scores = prior * r.normal(scale=3.0, size=(1024, 114))
        scores[8:72] *= 0.002
        scores[:, 40:50] = scores[:, 30:40]
        z = np.where(prior > 0.0, scores, EXCLUDED_SCORE)
        got = project(z)
        assert np.array_equal(got, sparsemax_negate_sort(z))
        assert (got[:8, 0] == 1.0).all()
        assert (np.count_nonzero(got[8:72], axis=1) > LEAD).all()

    def test_exact_sparsity_appears(self, rng):
        # wide inputs should regularly zero out coordinates exactly
        out = project(rng.normal(scale=3.0, size=(100, 6)))
        assert (out == 0.0).any()


class TestBackward:
    def test_jacobian_matches_finite_differences(self, rng):
        checked = 0
        while checked < 25:
            z = rng.normal(scale=2.0, size=(3, 5))
            if sparsemax_margin(z) < 2e-3:
                continue  # too close to a support-change kink for central differences
            x = ad.Parameter(z)
            build = weighted_sum_loss(ad.sparsemax, x, rng.normal(size=(3, 5)))
            assert grad_check(build, [x], rng, samples=5) < 1e-4
            checked += 1

    def test_gradient_is_centered_on_support(self, rng):
        z = np.array([[2.0, 1.9, -5.0]])  # support {0, 1}, coord 2 far outside
        x = ad.Parameter(z)
        tape = ad.Tape()
        out = ad.sparsemax(tape, x)
        g = np.array([[1.0, 3.0, 7.0]])
        loss = reduce_sum(tape, ad.mul(tape, out, ad.Tensor(g)))
        tape.backward(loss)
        # on the support: g - mean(g over support); off it: zero
        np.testing.assert_allclose(x.grad, [[-1.0, 1.0, 0.0]], atol=1e-12)

    def test_saturated_row_has_zero_gradient(self, rng):
        x = ad.Parameter(np.array([[5.0, -5.0]]))
        tape = ad.Tape()
        loss = reduce_sum(
            tape, ad.mul(tape, ad.sparsemax(tape, x), ad.Tensor(np.array([[2.0, 3.0]])))
        )
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.zeros((1, 2)))


class TestTraining:
    def test_fit_matches_full_width_oracle(self, monkeypatch):
        # d_model 40 > SPARSEMAX_LEAD; small attentive BN scales start the
        # masks near-flat, so training meets supports on both sides of the
        # lead, and every array of the trained model must match a fit whose
        # sparsemax runs each row over its full width
        features, labels, _ = make_classification(n_rows=400, n_noise=35, seed=3)
        ds = dataset_from_arrays(features, labels)
        split = stratified_split(ds, 0.25, 3)
        supports = []

        def fit():
            model = TabNetClassifier(TabNetConfig(n_d=4, n_a=4, n_steps=2, seed=3), ds.schema)
            assert model.d_model > LEAD
            for att in model.attentives:
                att.bn.gamma.data[:] = 0.01
            cfg = tr.TrainConfig(max_epochs=2, batch_size=64, patience=5, lr_patience=5, seed=3)
            report = tr.fit(model, ds, split, cfg)
            return model.snapshot(), report.records[-1].val_loss

        def recording(tape, z):
            out = ad.sparsemax(tape, z)
            supports.append(np.count_nonzero(out.data, axis=1))
            return out

        monkeypatch.setattr(tabnet, "sparsemax", recording)
        got, got_loss = fit()
        monkeypatch.setattr(tabnet, "sparsemax", sparsemax_negate_sort_op)
        want, want_loss = fit()
        supports = np.concatenate(supports)
        assert (supports > LEAD).any() and (supports <= LEAD).any()
        assert got_loss == want_loss
        assert got.keys() == want.keys()
        for name in got:
            assert np.array_equal(got[name], want[name]), name
