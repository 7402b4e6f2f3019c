"""Counter-based trial streams."""

from __future__ import annotations

import numpy as np
import pytest

from convkernel import derive_seed, trial_rng
from convkernel.rng import DRAW_BUDGET_BYTES, trial_chunks, trials_per_chunk


class TestTrialRng:
    def test_same_key_same_stream(self):
        a = trial_rng(42, 7).standard_normal(16)
        b = trial_rng(42, 7).standard_normal(16)
        assert np.array_equal(a, b)

    def test_trials_are_distinct(self):
        draws = [trial_rng(42, t).standard_normal(8) for t in range(50)]
        flat = {tuple(d) for d in draws}
        assert len(flat) == 50

    def test_seeds_are_distinct(self):
        a = trial_rng(1, 0).standard_normal(8)
        b = trial_rng(2, 0).standard_normal(8)
        assert not np.array_equal(a, b)

    def test_order_independent(self):
        forward = [trial_rng(9, t).standard_normal(4) for t in range(10)]
        backward = [trial_rng(9, t).standard_normal(4) for t in reversed(range(10))]
        for t in range(10):
            assert np.array_equal(forward[t], backward[9 - t])

    def test_negative_trial_rejected(self):
        with pytest.raises(ValueError, match="trial"):
            trial_rng(0, -1)

    def test_huge_seed_accepted(self):
        trial_rng(2**63 + 11, 0).standard_normal(1)


class TestTrialChunks:
    # excess_risk_mc's three draws, in its order: design, noise, test points.
    SHAPES = ((3, 4), (3,), (5, 4))

    @pytest.mark.parametrize("seed", [11, 2**63 + 11])
    def test_draws_equal_trial_rng_across_chunk_boundaries(self, seed):
        chunk = trials_per_chunk(self.SHAPES)
        assert chunk > 1
        trials = 2 * chunk + 1
        starts, drawn = [], []
        for start, stacks in trial_chunks(seed, trials, self.SHAPES):
            starts.append(start)
            drawn += [[stack[i] for stack in stacks] for i in range(stacks[0].shape[0])]
        assert starts == [0, chunk, 2 * chunk]
        assert len(drawn) == trials
        for trial in (0, chunk - 1, chunk, chunk + 1, 2 * chunk - 1, 2 * chunk):
            rng = trial_rng(seed, trial)
            for array, shape in zip(drawn[trial], self.SHAPES):
                assert np.array_equal(array, rng.standard_normal(shape))

    def test_chunk_fits_the_budget(self):
        per_trial = 8 * (12 + 3 + 20)
        assert trials_per_chunk(self.SHAPES) == DRAW_BUDGET_BYTES // per_trial

    def test_trial_larger_than_budget_gets_a_chunk_of_its_own(self):
        shapes = ((DRAW_BUDGET_BYTES // 8 + 1,),)
        assert trials_per_chunk(shapes) == 1
        chunks = list(trial_chunks(3, 3, shapes))
        assert [(start, stacks[0].shape[0]) for start, stacks in chunks] == [(0, 1), (1, 1), (2, 1)]
        assert np.array_equal(chunks[2][1][0][0], trial_rng(3, 2).standard_normal(shapes[0]))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(5, "variance") == derive_seed(5, "variance")

    def test_tag_sensitivity(self):
        tags = ["bias", "variance", "risk", "train", "test"]
        seeds = {derive_seed(5, tag) for tag in tags}
        assert len(seeds) == len(tags)

    def test_master_sensitivity(self):
        assert derive_seed(1, "bias") != derive_seed(2, "bias")

    def test_in_uint64_range(self):
        for tag in ("a", "b", "c"):
            assert 0 <= derive_seed(123, tag) < 2**64
