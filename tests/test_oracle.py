import tracemalloc

import numpy as np
import pytest

import spillscale as ss
from spillscale import oracle
from spillscale.design import draw_bits_batch, singleton_partition
from spillscale.oracle import (EnumerationError, enumerate_assignments,
                               exact_expectation)


class TestEnumerate:
    def test_single_cluster(self):
        enum = enumerate_assignments(singleton_partition(1), 0.3)
        assert enum.count == 2
        table = {tuple(b): w for b, w in zip(enum.assignments, enum.probs)}
        assert table[(0,)] == pytest.approx(0.7)
        assert table[(1,)] == pytest.approx(0.3)

    def test_three_clusters_uniform(self):
        enum = enumerate_assignments(singleton_partition(3), 0.5)
        assert enum.count == 8
        assert np.allclose(enum.probs, 0.125)

    @pytest.mark.parametrize("C,p", [(4, 0.5), (9, 0.2), (13, 0.77)])
    def test_probabilities_sum_to_one(self, C, p):
        enum = enumerate_assignments(singleton_partition(C), p)
        assert abs(enum.probs.sum() - 1.0) <= 1e-12

    def test_cutoff(self):
        with pytest.raises(EnumerationError):
            enumerate_assignments(singleton_partition(21), 0.5)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            enumerate_assignments(singleton_partition(2), 1.0)

    def test_peak_memory_at_the_cap(self):
        # the 2**20 x 20 int8 bits take 21 MB; a 2**C x C int64
        # intermediate alone would take 168 MB
        tracemalloc.start()
        try:
            enum = enumerate_assignments(singleton_partition(20), 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert enum.assignments.shape == (2 ** 20, 20)
        assert enum.assignments.dtype == np.int8
        assert peak < 100e6


def codes(B):
    """Integer code of each assignment row (bit c = cluster c)."""
    return B.astype(np.int64) @ (1 << np.arange(B.shape[1]))


class TestExactExpectation:
    """fn takes an m x C block of assignments and returns (m,) values,
    NaN where it is undefined."""

    def test_constant(self):
        enum = enumerate_assignments(singleton_partition(4), 0.3)
        res = exact_expectation(lambda B: np.full(len(B), 4.5), enum)
        assert res.mean == pytest.approx(4.5)
        assert res.p_defined == pytest.approx(1.0)

    def test_mean_count_of_treated(self):
        enum = enumerate_assignments(singleton_partition(5), 0.3)
        res = exact_expectation(lambda B: B.sum(axis=1), enum)
        assert res.mean == pytest.approx(5 * 0.3, abs=1e-12)

    def test_partial_function_conditions(self):
        # undefined unless the first cluster is treated
        enum = enumerate_assignments(singleton_partition(3), 0.25)
        res = exact_expectation(
            lambda B: np.where(B[:, 0] == 0, np.nan, B.sum(axis=1)), enum)
        assert res.p_defined == pytest.approx(0.25)
        assert res.mean == pytest.approx(1 + 2 * 0.25, abs=1e-12)

    def test_partial_via_nan(self):
        enum = enumerate_assignments(singleton_partition(2), 0.5)
        res = exact_expectation(lambda B: np.where(B[:, 0] == 1, np.nan, 1.0),
                                enum)
        assert res.p_defined == pytest.approx(0.5)
        assert res.mean == pytest.approx(1.0)

    def test_undefined_everywhere_raises(self):
        enum = enumerate_assignments(singleton_partition(3), 0.5)
        with pytest.raises(ValueError, match="undefined on every assignment"):
            exact_expectation(lambda B: np.full(len(B), np.nan), enum)

    def test_unrelated_errors_propagate(self):
        enum = enumerate_assignments(singleton_partition(2), 0.5)
        with pytest.raises(ZeroDivisionError):
            exact_expectation(lambda B: 1 / 0, enum)

    def test_estimator_errors_propagate(self):
        # NaN is the only undefined-draw signal; an error is an error
        enum = enumerate_assignments(singleton_partition(2), 0.5)

        class Undefined(RuntimeError):
            pass

        def fn(B):
            raise Undefined("undefined_draw")

        with pytest.raises(Undefined):
            exact_expectation(fn, enum)

    def test_one_value_per_assignment_required(self):
        enum = enumerate_assignments(singleton_partition(3), 0.5)
        with pytest.raises(ValueError, match=r"shape \(1,\) for 8 assignments"):
            exact_expectation(lambda B: 4.5, enum)

    def test_order_independence(self):
        enum = enumerate_assignments(singleton_partition(6), 0.4)
        rng = np.random.default_rng(2)
        vals = rng.normal(size=enum.count)
        direct = float(np.dot(vals, enum.probs))
        res = exact_expectation(lambda B: vals[codes(B)], enum)
        assert res.mean == pytest.approx(direct, abs=1e-12)

    def test_blocks_sum_to_probs_dot_values(self):
        # 2**13 assignments: two calls of fn, one per block of BLOCK rows
        enum = enumerate_assignments(singleton_partition(13), 0.3)
        rng = np.random.default_rng(5)
        vals = rng.normal(size=enum.count)
        vals[rng.uniform(size=enum.count) < 0.1] = np.nan
        seen = []

        def fn(B):
            seen.append(codes(B))
            return vals[codes(B)]

        res = exact_expectation(fn, enum)
        assert [c.size for c in seen] == [oracle.BLOCK] * (enum.count // oracle.BLOCK)
        assert np.array_equal(np.concatenate(seen), np.arange(enum.count))
        ok = ~np.isnan(vals)
        assert res.p_defined == pytest.approx(enum.probs[ok].sum(), rel=1e-12)
        assert res.mean == pytest.approx(
            enum.probs[ok] @ vals[ok] / enum.probs[ok].sum(), rel=1e-12)


class TestAgainstSampler:
    def test_assignment_frequencies(self):
        part = singleton_partition(3)
        p = 0.35
        enum = enumerate_assignments(part, p)
        m = 1_000_000
        from spillscale.design import TAG_TREAT, rng_for
        gen = rng_for(123, TAG_TREAT)
        draws = (gen.uniform(size=(m, 3)) < p).astype(np.int8)
        codes = draws @ (1 << np.arange(3))
        freq = np.bincount(codes, minlength=8) / m
        for b, prob in zip(enum.assignments, enum.probs):
            code = int(b @ (1 << np.arange(3)))
            se = np.sqrt(prob * (1 - prob) / m)
            assert abs(freq[code] - prob) <= 4 * se

    def test_sampler_matches_partition_structure(self):
        # singleton clusters: the unit treatments are the cluster bits
        part = singleton_partition(4)
        b = draw_bits_batch(part.n_clusters, 0.5, [77])[0]
        assert np.array_equal(b[part.assignment], b)
