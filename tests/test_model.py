import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procure2d import (
    AgentType,
    Bid,
    MarketConfig,
    RewardRealization,
    TypeDistribution,
    sample_reward_realization,
    stream_reward_realization,
    uniform_type_distribution,
)
from procure2d._native import _library
from procure2d.model import RowStreams, _draw_tables
from procure2d.resample import generator_at, stream_states
from oracles import _DRAW_FLOATS, _draw_outcomes


@pytest.fixture
def unit_uniform():
    return uniform_type_distribution(0.0, 1.0, 1, 5)


@pytest.fixture
def wide_uniform():
    return uniform_type_distribution(0.0, 10.0, 1, 5)


class TestPrior:
    @pytest.mark.parametrize("linear_h", [(0.0, 0.0), (0.0, -2.0), (0.0, np.nan), (np.inf, 2.0)])
    def test_virtual_cost_must_increase(self, linear_h):
        with pytest.raises(ValueError, match="linear_h"):
            TypeDistribution((0.0, 1.0), (1, 5), linear_h)


class TestVirtualCost:
    def test_unit_uniform_doubles_cost(self, unit_uniform):
        assert unit_uniform.virtual_cost(0.3, 3) == pytest.approx(0.6)

    def test_lower_bound_is_fixed_point(self, wide_uniform):
        # F vanishes at the lower bound, so H(cost_lo) = cost_lo
        assert wide_uniform.virtual_cost(0.0, 2) == pytest.approx(0.0)
        shifted = uniform_type_distribution(3.0, 7.0, 1, 4)
        assert shifted.virtual_cost(3.0, 2) == pytest.approx(3.0)

    def test_wide_uniform(self, wide_uniform):
        assert wide_uniform.virtual_cost(2.0, 1) == pytest.approx(4.0)

    def test_exceeds_cost_everywhere(self, unit_uniform):
        for c in np.linspace(0.0, 1.0, 21):
            assert unit_uniform.virtual_cost(float(c), 1) >= c

    def test_out_of_bounds_cost_rejected(self, unit_uniform):
        with pytest.raises(ValueError):
            unit_uniform.virtual_cost(1.5, 1)

    def test_nan_cost_rejected_by_scalar_and_array_forms(self, unit_uniform):
        with pytest.raises(ValueError, match="outside bounds"):
            unit_uniform.virtual_cost(np.nan, 1)
        for costs in ([np.nan, 0.5], [0.5, np.nan], [np.nan]):
            with pytest.raises(ValueError, match="leaves the distribution bounds"):
                unit_uniform.virtual_cost_array(np.array(costs), 1)


class TestScores:
    def test_g_score_unit_interval(self, unit_uniform):
        assert unit_uniform.g_score(0.8, 30.0, 0.2, 3) == pytest.approx(23.6)

    def test_g_score_zero_quality_at_lower_bound(self, unit_uniform):
        assert unit_uniform.g_score(0.0, 30.0, 0.0, 1) == pytest.approx(0.0)

    def test_g_score_wide(self, wide_uniform):
        assert wide_uniform.g_score(0.6, 30.0, 5.0, 2) == pytest.approx(8.0)

    def test_g_inverse_closed_form(self, wide_uniform):
        # G(c) = 24 - 2c, so G^{-1}(8) = 8
        assert wide_uniform.g_inverse(0.8, 30.0, 8.0, 3) == pytest.approx(8.0)

    def test_g_inverse_at_top_score_returns_lower_bound(self, wide_uniform):
        top = wide_uniform.g_score(0.8, 30.0, 0.0, 3)
        assert wide_uniform.g_inverse(0.8, 30.0, top, 3) == pytest.approx(0.0)

    def test_g_inverse_clamps_low_scores_to_upper_bound(self, unit_uniform):
        low = unit_uniform.g_score(0.9, 30.0, 1.0, 2) - 5.0
        assert unit_uniform.g_inverse(0.9, 30.0, low, 2) == 1.0

    def test_g_inverse_above_range_errors(self, unit_uniform):
        top = unit_uniform.g_score(0.9, 30.0, 0.0, 2)
        with pytest.raises(ValueError):
            unit_uniform.g_inverse(0.9, 30.0, top + 1.0, 2)

    def test_inverse_of_score_is_identity(self, unit_uniform, wide_uniform):
        rng = np.random.default_rng(3)
        for dist in (unit_uniform, wide_uniform):
            lo, hi = dist.cost_bounds
            for _ in range(50):
                c = float(rng.uniform(lo, hi))
                q = float(rng.uniform(0.0, 1.0))
                g = dist.g_score(q, 30.0, c, 2)
                assert dist.g_inverse(q, 30.0, g, 2) == pytest.approx(c, abs=1e-9)


class TestTypesAndBids:
    def test_quality_bounds_enforced(self):
        with pytest.raises(ValueError):
            AgentType(0.5, 3, 1.2)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            AgentType(0.5, -1, 0.5)

    def test_truthful_bid_copies_type(self):
        agent = AgentType(0.4, 3, 0.9)
        assert agent.truthful_bid() == Bid(0.4, 3)

    def test_capacity_over_report_forbidden(self):
        agent = AgentType(0.4, 3, 0.9)
        with pytest.raises(ValueError, match="over-report"):
            agent.deviated_bid(capacity=4)
        assert agent.deviated_bid(cost=0.6, capacity=2) == Bid(0.6, 2)

    def test_market_config_validation(self, unit_uniform):
        with pytest.raises(ValueError):
            MarketConfig(-1, 30.0, (unit_uniform,))
        with pytest.raises(ValueError):
            MarketConfig(5, 0.0, (unit_uniform,))
        with pytest.raises(ValueError):
            MarketConfig(5, 30.0, ())

    def test_market_config_rejects_non_finite_reward_scale(self, unit_uniform):
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="reward_scale"):
                MarketConfig(5, bad, (unit_uniform,))


class TestRewardRealization:
    def test_extreme_qualities(self):
        table = sample_reward_realization([1.0, 0.0], 25, 7)
        assert table.table[0].sum() == 25
        assert table.table[1].sum() == 0

    def test_nan_quality_rejected(self):
        with pytest.raises(ValueError, match="qualities"):
            sample_reward_realization([np.nan, 0.5], 5, 0)

    def test_binomial_concentration(self):
        table = sample_reward_realization([0.5], 10_000, 11)
        assert abs(table.table[0].mean() - 0.5) < 0.015  # 3 binomial sigmas

    def test_seed_reproducibility(self):
        first = sample_reward_realization([0.3, 0.7], 50, 123)
        second = sample_reward_realization([0.3, 0.7], 50, 123)
        assert (first.table == second.table).all()
        third = sample_reward_realization([0.3, 0.7], 50, 124)
        assert (first.table != third.table).any()

    def test_table_shape_and_immutability(self):
        table = sample_reward_realization([0.5, 0.5, 0.5], 9, 0)
        assert table.table.shape == (3, 9)
        with pytest.raises(ValueError):
            table.table[0, 0] = 1

    def test_non_binary_entries_rejected(self):
        with pytest.raises(ValueError):
            RewardRealization(np.array([[0, 2]]))
        for bad in (0.5, np.nan):
            with pytest.raises(TypeError):
                RewardRealization(np.array([[0.0, 1.0, bad]]))
        # -1 and 256 wrap to 255 and 0 in uint8: rejected before the conversion
        for bad in (-1, 256):
            with pytest.raises(ValueError):
                RewardRealization(np.array([[0, 1, bad]], dtype=np.int16))


class TestDrawOutcomes:
    """The chunked drawer against the one-shot ``rng.random(shape) < q`` path."""

    @pytest.mark.parametrize("shape", [
        (3, 0),                     # L = 0
        (2, 4, 0),
        (2, _DRAW_FLOATS + 5),      # a row longer than the buffer: one row per pass
        (7, _DRAW_FLOATS // 3),     # 3 rows per pass do not divide 7 rows
        (50, 3, 1000),              # stacked: 131 rows per pass over 150 rows
    ], ids=["empty", "stacked-empty", "long-rows", "ragged-last-pass", "stacked"])
    def test_matches_one_shot_draw_bit_for_bit(self, shape):
        q = np.linspace(0.05, 0.95, shape[-2])
        chunked, one_shot = np.random.default_rng(17), np.random.default_rng(17)
        out = np.full(shape, 7, dtype=np.uint8)
        _draw_outcomes(chunked, q, out)
        expected = (one_shot.random(shape) < q[:, None]).astype(np.uint8)
        assert np.array_equal(out, expected)
        assert chunked.random() == one_shot.random()

    def test_realization_continues_a_generator_like_one_draw(self):
        q = np.array([0.2, 0.9, 0.5])
        passed, one_shot = np.random.default_rng(4), np.random.default_rng(4)
        table = sample_reward_realization(q, _DRAW_FLOATS // 2, passed).table
        assert np.array_equal(table, one_shot.random(table.shape) < q[:, None])
        assert passed.random() == one_shot.random()


class TestCapacityPrefixes:
    """``sample_reward_realization(..., capacities=)`` against the same seed's
    whole table: row i drawn through ``min(capacities[i], L)``, bit for bit."""

    @staticmethod
    def market(case):
        pick = np.random.default_rng(case)
        n = int(pick.integers(2, 6))
        units = _DRAW_FLOATS + 9 if case == 0 else int(pick.integers(0, 3000))
        caps = pick.integers(0, units + 4, n)  # an int64 array, as ``_run_cell`` passes
        caps[0], caps[1] = units + int(pick.integers(0, 3)), 0  # whole and undrawn rows
        return pick.random(n), units, caps

    @pytest.mark.parametrize("case", range(10))
    def test_prefixes_equal_the_whole_table(self, case):
        q, units, caps = self.market(case)
        passed, whole = np.random.default_rng(case), np.random.default_rng(case)
        realization = sample_reward_realization(q, units, passed, caps)
        full = sample_reward_realization(q, units, whole).table
        lengths = np.minimum(caps, units).tolist()
        assert realization.drawn == tuple(lengths)
        for i, k in enumerate(lengths):
            assert np.array_equal(realization.table[i, :k], full[i, :k])
            assert not realization.table[i, k:].any()
        assert passed.random() == whole.random()

    def test_short_tails_equal_the_whole_table(self):
        # At 1,000 units: an undrawn row, a whole row, and tails of 1 to 999
        # outputs, each skipped by ``advance``.
        caps = [0, 1000, 999, 1, 500]
        q = np.random.default_rng(7).random(5)
        passed, whole = np.random.default_rng(8), np.random.default_rng(8)
        realization = sample_reward_realization(q, 1000, passed, caps)
        expected = sample_reward_realization(q, 1000, whole).table.copy()
        for i, k in enumerate(caps):
            expected[i, k:] = 0
        assert realization.table.tobytes() == expected.tobytes()
        assert realization.drawn == tuple(caps)
        assert passed.bit_generator.state == whole.bit_generator.state

    def test_capacities_as_a_list_and_seeds_as_ints(self):
        q, units, caps = self.market(3)
        from_array = sample_reward_realization(q, units, 5, caps)
        from_list = sample_reward_realization(q, units, 5, caps.tolist())
        assert np.array_equal(from_array.table, from_list.table)
        assert from_array.drawn == from_list.drawn

    def test_generator_must_skip_on_pcg64(self):
        mt = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(TypeError, match="needs a PCG64 generator, got MT19937$"):
            sample_reward_realization([0.5, 0.5], 4, mt, [1, 2])

    def test_whole_table_and_stack_record_no_prefix(self):
        assert sample_reward_realization([0.5, 0.5], 4, 0).drawn is None
        assert RewardRealization(np.zeros((3, 2, 4), dtype=np.uint8)).drawn is None

    @pytest.mark.parametrize("capacities, error", [
        ([1, 2, 3], ValueError), ([1, -1], ValueError), ([1, 2.0], TypeError),
    ], ids=["wrong-count", "negative", "float"])
    def test_bad_capacities_refused(self, capacities, error):
        with pytest.raises(error):
            sample_reward_realization([0.5, 0.5], 4, 0, capacities)

    @pytest.mark.parametrize("table, drawn", [
        (np.zeros((2, 4), dtype=np.uint8), (1,)),
        (np.zeros((2, 4), dtype=np.uint8), (1, 5)),
        (np.zeros((2, 4), dtype=np.uint8), (-1, 2)),
        (np.zeros((3, 2, 4), dtype=np.uint8), (1,)),
        (np.zeros((3, 2, 4), dtype=np.uint8), (1, 5)),
    ], ids=["one-short", "past-the-row", "negative", "stack-one-short", "stack-past-the-row"])
    def test_drawn_lengths_must_fit_one_table(self, table, drawn):
        with pytest.raises(ValueError) as refused:
            RewardRealization(table, drawn)
        assert str(refused.value) == (
            f"drawn must give one prefix length in [0, 4] per row of the 2x4 tables, "
            f"got {drawn!r}")

    def test_a_stack_shares_one_prefix_length_per_row(self):
        stack = RewardRealization(np.zeros((3, 2, 4), dtype=np.uint8), (1, 4))
        assert stack.drawn == (1, 4)

    def test_a_table_drawn_into_out_is_the_table_drawn_alone(self):
        rng, alone_rng = np.random.default_rng(3), np.random.default_rng(3)
        alone = sample_reward_realization([0.3, 0.8], 9, alone_rng, [4, 20])
        stack = np.ones((2, 2, 9), dtype=bool)
        into = sample_reward_realization([0.3, 0.8], 9, rng, [4, 20], out=stack[1])
        assert np.shares_memory(into.table, stack)
        assert np.array_equal(stack[1], alone.table) and into.drawn == alone.drawn == (4, 9)
        assert rng.bit_generator.state == alone_rng.bit_generator.state

    @pytest.mark.parametrize("out", [
        np.empty((2, 8), dtype=bool), np.empty((2, 9), dtype=np.uint8),
        np.empty((2, 18), dtype=bool)[:, ::2],
    ], ids=["short", "uint8", "strided"])
    def test_out_must_be_one_bool_table(self, out):
        with pytest.raises(ValueError) as refused:
            sample_reward_realization([0.3, 0.8], 9, 0, out=out)
        assert str(refused.value) == "out must be a writable C-contiguous bool 2x9 array"

    def test_a_bool_table_is_viewed_not_copied(self):
        table = np.array([[True, False, True], [False, False, True]])
        realization = RewardRealization(table)
        assert realization.table.dtype == np.uint8 and np.shares_memory(realization.table, table)
        assert realization.table.tolist() == [[1, 0, 1], [0, 0, 1]]
        assert not realization.table.flags.writeable


# Qualities at which ``u < q`` turns on the last bit of a uniform: the drawer
# must compare the double ``(x >> 11) * 2**-53`` exactly as numpy does.
EDGE_QUALITIES = [0.0, 1.0, 0.5, 2.0**-53, 1.0 - 2.0**-53]


class TestOutcomeDrawer:
    """The C drawer of ``_ucb.c`` against the numpy reference
    ``oracles._draw_outcomes``: outcomes, tails and end states."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_tables_stacks_and_prefixes_equal_the_reference(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        width = data.draw(st.integers(0, 150), label="L")
        quality = st.sampled_from(EDGE_QUALITIES) | st.floats(0.0, 1.0)
        q = data.draw(st.lists(quality, min_size=n, max_size=n), label="q")
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        # A stack of tables is drawn whole; one table may stop each row short.
        stacked = data.draw(st.integers(0, 3), label="stacked tables")
        lengths = None if stacked else data.draw(
            st.none() | st.lists(st.integers(0, width), min_size=n, max_size=n), label="lengths")
        shape = (stacked, n, width) if stacked else (n, width)
        words = stream_states([(seed, ())])
        reference = generator_at(words[0])
        got, expected = np.full(shape, 7, np.uint8), np.full(shape, 7, np.uint8)
        _draw_tables(words, q, got, lengths)
        _draw_outcomes(reference, q, expected, lengths)
        for i, k in enumerate(lengths or [width] * n):
            assert np.array_equal(got[..., i, :k], expected[..., i, :k])
            assert (got[..., i, k:] == 7).all()  # no entry past a prefix is written
        end = reference.bit_generator.state["state"]
        assert words[0].tolist() == [end["state"] >> 64, end["state"] & (2**64 - 1),
                                     end["inc"] >> 64, end["inc"] & (2**64 - 1)]

    @pytest.mark.parametrize("capacities", [None, [3, 0, 50]], ids=["whole", "prefixes"])
    def test_a_generator_ends_where_the_whole_table_leaves_it(self, capacities):
        # Three uint32 draws leave PCG64's buffered 32-bit half-word full; both
        # paths keep it, as numpy's own random((n, L)) does.
        q = [0.2, 0.9, 0.5]
        passed, whole = np.random.default_rng(9), np.random.default_rng(9)
        for rng in (passed, whole):
            rng.integers(0, 10, 3, dtype=np.uint32)
            assert rng.bit_generator.state["has_uint32"] == 1
        table = sample_reward_realization(q, 20, passed, capacities).table
        expected = whole.random((3, 20)) < np.array(q)[:, None]
        for i, k in enumerate(capacities or [20] * 3):
            assert np.array_equal(table[i, :k], expected[i, :k]) and not table[i, k:].any()
        assert passed.bit_generator.state == whole.bit_generator.state
        assert passed.integers(0, 2**32, dtype=np.uint32) == whole.integers(0, 2**32,
                                                                             dtype=np.uint32)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), stride=st.integers(0, 2**40), rows=st.integers(1, 5))
    def test_row_streams_jump_as_numpy_advances(self, seed, stride, rows):
        roots = stream_states([(seed, ()), ([seed, 1], ())])
        jumped = np.empty((2, rows, 4), dtype=np.uint64)
        _library().row_streams(2, rows, stride, roots, jumped)
        for t in range(2):
            for i in range(rows):
                bits = generator_at(roots[t]).bit_generator
                bits.advance(i * stride)
                pcg = bits.state["state"]
                words = jumped[t, i].tolist()
                assert words[0] << 64 | words[1] == pcg["state"]
                assert words[2] << 64 | words[3] == pcg["inc"]


class TestStreamedRealization:
    """The C loop trusts a streamed realization's arrays for their shapes
    and its drawn counts for where it writes, so both are checked once."""

    def block(self, tables=2):
        q, caps = [0.4, 0.9], [3, 20]
        states = stream_states([([8, t], ()) for t in range(tables)])
        return stream_reward_realization(q, caps, states, np.zeros((tables, 2, 6), dtype=bool))

    def test_a_block_starts_undrawn_with_capacity_limits(self):
        block = self.block()
        assert block.drawn == (3, 6) and not block.streams.counts.any()
        assert block.table.flags.writeable and block.table.dtype == np.uint8

    def test_states_of_the_wrong_shape_are_refused(self):
        with pytest.raises(ValueError, match="4 state words"):
            stream_reward_realization([0.4, 0.9], [3, 20], np.zeros((2, 3), np.uint64),
                                      np.zeros((2, 2, 6), dtype=bool))

    @pytest.mark.parametrize("field, bad", [
        ("qualities", np.array([0.4, 0.9, 0.5])),
        ("states", np.zeros((2, 2, 3), np.uint64)),
        ("counts", np.zeros((2, 2), np.int32)),
        ("counts", np.zeros((2, 2), np.int64)[:, ::-1]),
    ])
    def test_mis_shaped_streams_are_refused(self, field, bad):
        block = self.block()
        streams = RowStreams(**{**vars(block.streams), field: bad})
        with pytest.raises(ValueError, match="streamed realization"):
            RewardRealization(block.table, block.drawn, streams)

    @pytest.mark.parametrize("count", [-1, 4])
    def test_a_drawn_count_outside_its_row_is_refused(self, count):
        block = self.block()
        counts = block.streams.counts.copy()
        counts[1, 0] = count  # row 0 holds at most 3 outcomes
        streams = RowStreams(block.streams.qualities, block.streams.states, counts)
        with pytest.raises(ValueError, match="drawn count"):
            RewardRealization(block.table, block.drawn, streams)
