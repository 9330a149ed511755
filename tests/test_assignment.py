"""Assignment solver against a brute-force oracle and the scipy-based
solver it replaced, its dual certificate, plus cosine similarity: the
norm rule checked_norms, and the row-pair kernel cos_pairs, which the scalar
cosine_similarity returns, against np.dot and np.linalg.norm bit for bit."""
import itertools

import numpy as np
import pytest

from tubekit.assignment import (_TIE_RTOL, _hungarian, _padded, _pairs_total,
                                _tie_gaps, _validated_cost, assignment_total,
                                checked_norms, cos_pairs, cosine_similarity,
                                solve_assignment)
from tubekit.errors import ValidationError


def brute_force_optimum(cost: np.ndarray) -> tuple[float, list[tuple[int, int]]]:
    """Enumerate every assignment; return the minimal total and the
    lexicographically smallest pair list achieving it.

    Written independently of the solver so it can act as its oracle; feasible
    only for small matrices.
    """
    best_total = np.inf
    best_pairs: list[tuple[int, int]] | None = None
    for total, pairs in all_assignments(cost):
        if (total < best_total - 1e-12
                or (abs(total - best_total) <= 1e-12
                    and (best_pairs is None or pairs < best_pairs))):
            best_total = min(total, best_total)
            best_pairs = pairs
    assert best_pairs is not None
    return best_total, best_pairs


def all_assignments(cost: np.ndarray):
    """Every assignment of min(rows, cols) pairs as (total, sorted pair
    list), the total summed in row order."""
    cost = np.asarray(cost, dtype=float)
    n_rows, n_cols = cost.shape
    k = min(n_rows, n_cols)
    for rows in itertools.combinations(range(n_rows), k):
        for cols in itertools.permutations(range(n_cols), k):
            pairs = sorted(zip(rows, cols))
            total = 0.0
            for r, c in pairs:
                total += float(cost[r, c])
            yield total, pairs


class TestSolveAssignment:
    def test_diagonal_is_trivial(self):
        cost = np.array([[0.0, 9.0, 9.0], [9.0, 0.0, 9.0], [9.0, 9.0, 0.0]])
        assert solve_assignment(cost) == [(0, 0), (1, 1), (2, 2)]

    def test_two_by_two_documented_case(self):
        pairs = solve_assignment([[1.0, 2.0], [2.0, 1.0]])
        assert pairs == [(0, 0), (1, 1)]
        assert assignment_total([[1.0, 2.0], [2.0, 1.0]], pairs) == 2.0

    def test_square_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            cost = rng.uniform(0.0, 1.0, size=(n, n))
            oracle_total, _ = brute_force_optimum(cost)
            pairs = solve_assignment(cost)
            assert len(pairs) == n
            assert assignment_total(cost, pairs) == pytest.approx(oracle_total, abs=1e-10)

    def test_rectangular_four_by_six(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            cost = rng.uniform(0.0, 1.0, size=(4, 6))
            oracle_total, _ = brute_force_optimum(cost)
            pairs = solve_assignment(cost)
            assert len(pairs) == 4
            cols = [c for _, c in pairs]
            assert len(set(cols)) == 4
            assert assignment_total(cost, pairs) == pytest.approx(oracle_total, abs=1e-10)

    def test_more_rows_than_cols(self):
        rng = np.random.default_rng(17)
        cost = rng.uniform(0.0, 1.0, size=(6, 3))
        oracle_total, _ = brute_force_optimum(cost)
        pairs = solve_assignment(cost)
        assert len(pairs) == 3
        assert assignment_total(cost, pairs) == pytest.approx(oracle_total, abs=1e-10)

    def test_lexicographic_tie_rule(self):
        # All-equal costs admit every permutation; identity is smallest.
        cost = np.full((4, 4), 0.25)
        assert solve_assignment(cost) == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_lexicographic_tie_rule_matches_oracle(self):
        # Costs drawn from a tiny value set force plenty of exact ties.
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            cost = rng.choice([0.0, 0.5, 1.0], size=(n, n))
            _, oracle_pairs = brute_force_optimum(cost)
            assert solve_assignment(cost) == oracle_pairs

    def test_constant_shift_invariance(self):
        # Adding a constant to a full row or column never changes the optimum
        # of a square problem.
        rng = np.random.default_rng(29)
        for _ in range(20):
            cost = rng.uniform(0.0, 1.0, size=(5, 5))
            pairs = solve_assignment(cost)
            shifted = cost.copy()
            shifted[2, :] += 0.7
            shifted[:, 3] += 1.3
            assert solve_assignment(shifted) == pairs

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValidationError):
            solve_assignment(np.zeros((0, 3)))
        with pytest.raises(ValidationError):
            solve_assignment([1.0, 2.0, 3.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError, match="^cost matrix contains non-finite entries$"):
            solve_assignment([[1.0, np.inf], [0.0, 1.0]])

    @pytest.mark.parametrize("cost, shown", [
        ([["1", "2"], ["0.5", "3"]], "'1'"), ([[True, False]], "True"),
        (np.array([[1.0, True]], dtype=object), "True")])
    def test_rejects_what_is_not_a_number(self, cost, shown):
        # np.asarray(cost, dtype=float) solved these, as 1.0 and 2.0 or 1.0 and 0.0.
        with pytest.raises(ValidationError, match=rf"^'cost' must be a number, got {shown}$"):
            solve_assignment(cost)

    def test_a_float64_cost_is_only_read(self):
        # The solver keeps a float64 cost as it is, uncopied: a read-only
        # one, ties and padding included, solves as its copy does.
        rng = np.random.default_rng(83)
        for n_rows, n_cols in _shapes(rng, 60, 1, 7):
            for cost in (rng.integers(0, 3, size=(n_rows, n_cols)).astype(float),
                         rng.normal(size=(n_rows, n_cols))):
                frozen = cost.copy()
                frozen.setflags(write=False)
                assert solve_assignment(frozen) == solve_assignment(cost)
                assert np.array_equal(frozen, cost)


def _scipy_optimal_total(cost: np.ndarray) -> float:
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    return _pairs_total(cost, list(zip(rows.tolist(), cols.tolist())))


def _reference_solve_assignment(cost) -> list[tuple[int, int]]:
    """The solver before the dual certificate: one scipy re-solve per
    candidate column.  Kept as the reference the present solver must match
    pair for pair."""
    c = _validated_cost(cost)
    n_rows, n_cols = c.shape
    n_pairs = min(n_rows, n_cols)
    best_total = _scipy_optimal_total(c)

    # Greedy prefix fixing: walk rows in order, give each the smallest column
    # that still admits an optimal completion.  A row may stay unassigned only
    # when rows outnumber columns.
    pairs: list[tuple[int, int]] = []
    partial = 0.0
    free_cols = list(range(n_cols))
    row = 0
    while len(pairs) < n_pairs and row < n_rows:
        rows_left_after = n_rows - row - 1
        tol = _TIE_RTOL * max(1.0, abs(best_total))
        chosen = None
        fallback = None
        fallback_gap = np.inf
        for ci, col in enumerate(free_cols):
            need = n_pairs - len(pairs) - 1
            if need > 0:
                if rows_left_after < need:
                    break  # not enough rows left to finish; cannot assign this row
                sub = c[np.ix_(range(row + 1, n_rows), [x for x in free_cols if x != col])]
                completion = _scipy_optimal_total(sub)
            else:
                completion = 0.0
            total = partial + float(c[row, col]) + completion
            gap = abs(total - best_total)
            if gap <= tol:
                chosen = ci
                break
            if gap < fallback_gap:
                fallback_gap = gap
                fallback = ci
        if chosen is None and n_rows <= n_cols:
            # Every row must be assigned; numerical slack forced us here.
            chosen = fallback
        if chosen is None:
            # rows > cols: check whether skipping this row keeps the optimum.
            sub = c[np.ix_(range(row + 1, n_rows), free_cols)]
            skip_total = partial + _scipy_optimal_total(sub)
            if abs(skip_total - best_total) <= tol or fallback is None:
                row += 1
                continue
            chosen = fallback
        col = free_cols.pop(chosen)
        pairs.append((row, col))
        partial += float(c[row, col])
        row += 1
    return pairs


def _shapes(rng, count: int, low: int, high: int):
    """Square shapes first, then rectangular ones both ways round."""
    for k in range(count):
        n = int(rng.integers(low, high + 1))
        if k < count // 2:
            yield n, n
        else:
            m = int(rng.integers(low, high + 1))
            yield (n, m) if k % 2 else (m, n)


def _planted_near_tie(rng, n_rows: int, n_cols: int, delta: float) -> np.ndarray:
    """Costs whose optimum is a planted matching of cost 0, with a rival
    that swaps two of its columns and costs delta more; any other
    assignment costs at least 0.5 more."""
    c = rng.uniform(0.5, 1.0, size=(n_rows, n_cols))
    k = min(n_rows, n_cols)
    rows = rng.permutation(n_rows)[:k]
    cols = rng.permutation(n_cols)[:k]
    c[rows, cols] = 0.0
    c[rows[0], cols[1]] = max(delta, 0.0)
    c[rows[1], cols[0]] = max(-delta, 0.0)
    return c


class TestDualCertificate:
    """The Hungarian's matching and potentials against enumeration."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(41)
        for n_rows, n_cols in _shapes(rng, 60, 1, 6):
            yield rng.uniform(-1.0, 1.0, size=(n_rows, n_cols)), 1e-12
            yield rng.integers(0, 3, size=(n_rows, n_cols)).astype(float), 0.0

    def test_total_matches_brute_force(self):
        for cost, _ in self._cases():
            n_rows, n_cols = cost.shape
            sigma, _, _ = _hungarian(cost)
            pairs = [(r, j) for r, j in enumerate(sigma[:n_rows]) if j < n_cols]
            assert len(pairs) == min(n_rows, n_cols)
            oracle_total, _ = brute_force_optimum(cost)
            assert assignment_total(cost, pairs) == pytest.approx(oracle_total, abs=1e-10)

    def test_reduced_costs_certify_the_matching(self):
        for cost, margin in self._cases():
            padded = _padded(cost)
            sigma, u, v = _hungarian(cost)
            rc = padded - u[:, None] - v
            assert rc.min() >= -margin
            on_sigma = rc[np.arange(len(sigma)), sigma]
            if margin == 0.0:
                assert np.all(on_sigma == 0.0)
            else:
                assert np.abs(on_sigma).max() <= margin

    def test_gaps_are_the_cost_of_forcing_each_edge(self):
        for cost, _ in self._cases():
            padded = _padded(cost)
            n = padded.shape[0]
            sigma, u, v = _hungarian(cost)
            gaps = _tie_gaps(padded - u[:, None] - v, sigma)
            perms = np.array(list(itertools.permutations(range(n))))
            totals = padded[np.arange(n), perms].sum(axis=1)
            best = totals.min()
            for r in range(n):
                for c in range(n):
                    forced = totals[perms[:, r] == c].min() - best
                    assert gaps[r, c] == pytest.approx(forced, abs=1e-9)


class TestAgainstReference:
    """Exact pair-list equality with the scipy-based solver it replaced,
    except on cancelling costs, where that solver was not optimal."""

    @pytest.fixture(autouse=True)
    def _scipy(self):
        pytest.importorskip("scipy.optimize")

    @staticmethod
    def _agree(cost):
        for c in (cost, -cost):
            assert solve_assignment(c) == _reference_solve_assignment(c), c

    def test_random(self):
        rng = np.random.default_rng(43)
        for n_rows, n_cols in _shapes(rng, 200, 1, 9):
            self._agree(rng.uniform(0.0, 1.0, size=(n_rows, n_cols)))
            self._agree(rng.normal(size=(n_rows, n_cols)))

    def test_planted_exact_ties(self):
        rng = np.random.default_rng(47)
        for n_rows, n_cols in _shapes(rng, 120, 2, 7):
            self._agree(rng.choice([0.0, 0.5, 1.0], size=(n_rows, n_cols)))
            self._agree(rng.integers(0, 3, size=(n_rows, n_cols)).astype(float))
            self._agree(_planted_near_tie(rng, n_rows, n_cols, 0.0))

    @pytest.mark.parametrize("delta", [1e-12, 1e-11, 1e-10, 5e-10, 1e-9, 2e-9, 1e-8])
    def test_near_ties_around_tolerance(self, delta):
        rng = np.random.default_rng(53)
        for n_rows, n_cols in _shapes(rng, 60, 2, 8):
            self._agree(_planted_near_tie(rng, n_rows, n_cols, delta))
            self._agree(_planted_near_tie(rng, n_rows, n_cols, -delta))
            c = _planted_near_tie(rng, n_rows, n_cols, delta)
            self._agree(c + rng.uniform(-1e-9, 1e-9, size=c.shape))

    def test_duplicate_rows_and_columns(self):
        rng = np.random.default_rng(59)
        for n_rows, n_cols in _shapes(rng, 120, 2, 8):
            c = rng.uniform(0.0, 1.0, size=(n_rows, n_cols))
            c[rng.integers(n_rows)] = c[rng.integers(n_rows)]
            c[:, rng.integers(n_cols)] = c[:, rng.integers(n_cols)]
            self._agree(c)

    @pytest.mark.parametrize("scale", [1e3, 1e6, 1e9, 1e12])
    def test_large_magnitudes(self, scale):
        rng = np.random.default_rng(61)
        for n_rows, n_cols in _shapes(rng, 60, 2, 8):
            self._agree(scale * rng.uniform(0.0, 1.0, size=(n_rows, n_cols)))
            self._agree(scale * rng.integers(0, 3, size=(n_rows, n_cols)).astype(float))
            self._agree(scale * _planted_near_tie(rng, n_rows, n_cols, 1e-9))

    # Entries near 1e8 whose optimum is about 0.  Here the old solver's
    # tolerance (1e-9 of the total) was below the entries' rounding unit, so
    # no re-solved total met it and a nearest-miss fallback returned
    # non-optimal assignments (a total of 4.2e8 on the first matrix, where
    # the optimum is 0.01).  These cases are checked against brute force.
    CANCELLING = [
        [[641847378.47, 251363173.54, -86989283.39],
         [597601081.58, 396614777.08, 165980199.82],
         [850774510.53, -89503899.53, 782562874.04],
         [176493182.93, 557441465.27, -22784600.09]],
        [[-3753366.69, 266214743.76, 317275263.4],
         [108534863.83, 388891849.68, 285133829.29],
         [335079739.11, 172238410.46, 130426553.69],
         [-176107619.58, 116719660.59, -168485043.77]],
    ]

    @staticmethod
    def _near_brute_force(cost):
        """The total is optimal within the tie tolerance's rounding term, and
        the pair list is brute force's wherever no other assignment lies
        within that term of the optimum."""
        for c in (cost, -cost):
            pairs = solve_assignment(c)
            best, best_pairs = brute_force_optimum(c)
            k = min(c.shape)
            term = (_TIE_RTOL * max(1.0, abs(best))
                    + 2.0 * k * k * np.finfo(float).eps * np.abs(c).max())
            assert abs(assignment_total(c, pairs) - best) <= term, c
            near = [p for total, p in all_assignments(c) if total - best <= term]
            if len(near) == 1:
                assert pairs == best_pairs, c

    @pytest.mark.parametrize("cost", CANCELLING)
    def test_cancelling_pinned(self, cost):
        self._near_brute_force(np.array(cost))
        self._near_brute_force(np.array(cost).T)

    def test_cancelling_large_magnitudes(self):
        from scipy.optimize import linear_sum_assignment

        rng = np.random.default_rng(67)
        for n_rows, n_cols in _shapes(rng, 160, 2, 7):
            c = rng.uniform(-1.0, 1.0, size=(n_rows, n_cols)) * 10.0 ** rng.uniform(6, 9)
            rows, cols = linear_sum_assignment(c)
            c -= c[rows, cols].sum() / len(rows)
            self._near_brute_force(c)
            self._near_brute_force(np.round(c, 2))

    def test_repeated_slots(self):
        # Association's shape of tie: slots seeded by cycling fewer
        # detections than slots hold equal rows of negated cosines.
        rng = np.random.default_rng(71)
        for _ in range(80):
            n_slots, n_det = int(rng.integers(2, 10)), int(rng.integers(1, 10))
            det = rng.normal(size=(n_det, 8))
            memory = det[np.arange(n_slots) % n_det]
            feats = det[rng.permutation(n_det)] + 0.05 * rng.normal(size=(n_det, 8))
            self._agree(-(memory @ feats.T) / np.outer(np.linalg.norm(memory, axis=1),
                                                       np.linalg.norm(feats, axis=1)))


class TestAssociationTies:
    """Association's own costs: negated cosines between slot memories and
    detection features, some features repeated, so that several
    assignments share the optimal total exactly.  The pair list must be
    brute force's lexicographic optimum."""

    def test_repeated_features_against_brute_force(self):
        rng = np.random.default_rng(79)
        for n_q, n_det in _shapes(rng, 150, 2, 7):
            pool = rng.normal(size=(max(2, n_det - 1), 8))
            pool[:, 0] += 1.0
            # At least two detections share a feature; slots seeded by
            # cycling, as init_memory does, then drifted or not.
            feats = pool[np.r_[0, 0, rng.integers(len(pool), size=n_det - 2)]]
            feats = feats[rng.permutation(n_det)]
            memory = feats[np.arange(n_q) % n_det] + rng.choice([0.0, 0.1]) * rng.normal(
                size=(n_q, 8))
            cost = -(memory @ feats.T) / np.outer(np.linalg.norm(memory, axis=1),
                                                  np.linalg.norm(feats, axis=1))
            for c in (cost, cost.T):
                assert solve_assignment(c) == brute_force_optimum(c)[1], c


class TestCosineSimilarity:
    def test_parallel(self):
        assert cosine_similarity([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert cosine_similarity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_antipodal(self):
        assert cosine_similarity([1.0, 1.0], [-1.0, -1.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(ValidationError):
            cosine_similarity([0.0, 0.0], [1.0, 0.0])

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            cosine_similarity([1.0, 0.0], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("big", [[1e200, 1e200], [np.inf, 1.0], [np.nan, 1.0]],
                             ids=["overflow", "inf", "nan"])
    def test_norm_not_finite_rejected(self, big):
        with pytest.raises(ValidationError, match="finite and positive"):
            cosine_similarity(big, [1.0, 0.0])
        with pytest.raises(ValidationError, match="finite and positive"):
            cosine_similarity([1.0, 0.0], big)

    def test_cos_pairs_equal_scalar_bitwise(self):
        rng = np.random.default_rng(2021)
        for d in range(1, 258):
            f = rng.normal(size=(int(rng.integers(2, 7)), d)) * 10.0 ** rng.integers(-5, 6)
            g = rng.normal(size=(f.shape[0] - 1, d))
            for a, b in ((f[:-1], f[1:]), (f[1:], g)):
                cos, na, nb = cos_pairs(a, b)
                want = [np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
                        for u, v in zip(a, b)]
                assert cos.tobytes() == np.array(want).tobytes()
                assert [cosine_similarity(u, v) for u, v in zip(a, b)] == cos.tolist()
                assert na.tobytes() == np.array([np.linalg.norm(u) for u in a]).tobytes()
                assert nb.tobytes() == np.array([np.linalg.norm(v) for v in b]).tobytes()


class TestCheckedNorms:
    def test_a_vector_is_one_row(self):
        assert checked_norms(np.array([3.0, 4.0]), "refused").tolist() == [5.0]

    @pytest.mark.parametrize("row", [[0.0, 0.0], [1e-200, 1e-200], [1e200, 1e200],
                                     [np.inf, 1.0], [np.nan, 1.0]],
                             ids=["zero", "underflow", "overflow", "inf", "nan"])
    def test_refused_with_the_callers_message(self, row):
        # No overflow warning either: warnings are errors in this suite.
        with pytest.raises(ValidationError, match="^the caller's words$"):
            checked_norms(np.array([[1.0, 0.0], row]), "the caller's words")
