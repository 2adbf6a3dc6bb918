import os
import threading

import numpy as np
import pytest

from attnalign import cores
from attnalign.errors import AttnAlignError, ParameterError

from conftest import assert_no_children


def square(i):
    return i * i


class TestSplit:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_results_in_item_order(self, processes, n):
        processes(n)
        with cores.Split(square, 7) as split:
            assert len(split.helpers) == n - 1
            for _ in range(2):  # helpers serve one chunk after another
                assert list(split.map(range(7))) == [i * i for i in range(7)]
            # fewer items than processes leaves the last helpers idle
            assert list(split.map([5])) == [25]
        assert_no_children()

    @pytest.mark.parametrize("in_shared", [True, False], ids=["shared-region", "pipe"])
    def test_arrays_cross_intact(self, processes, in_shared):
        processes(2)
        # the helper's results, 2 x 2 MB, are more than a pipe holds
        state = np.random.default_rng(0).normal(size=(50_000, 3))
        if in_shared:
            # a helper's results that are views of a shared mapping arrive as
            # private copies; the main process's own chunk (items 0, 1) keeps views
            shared = cores.shared_zeros(state.size).reshape(state.shape)
            shared[:] = state
            state = shared

        def work(i):
            return state * i, state[:, :2] if in_shared else np.asfortranarray(state[:, :2])

        with cores.Split(work, 4) as split:
            for _ in range(2):
                got = list(split.map(range(4)))
                for i, (scaled, part) in enumerate(got):
                    assert np.array_equal(scaled, state * i)
                    assert np.array_equal(part, state[:, :2])
                    assert scaled.flags.writeable and part.flags.writeable
                    assert np.shares_memory(part, state) == (in_shared and i < 2)

    def test_chunks_are_contiguous_and_balanced(self):
        assert cores._chunks(range(7), 3) == [range(0, 3), range(3, 5), range(5, 7)]
        assert cores._chunks([1, 2], 2) == [[1], [2]]

    def test_one_item_forks_nothing(self, processes):
        processes(4)
        with cores.Split(square, 1) as split:
            assert split.helpers == []
            assert list(split.map([3])) == [9]

    def test_helpers_see_writes_to_a_shared_array(self, processes):
        processes(2)
        shared = cores.shared_zeros(3)
        private = np.zeros(3)

        def work(i):
            return float(shared[i]), float(private[i])

        with cores.Split(work, 2) as split:
            shared[:] = private[:] = 10.0   # after the fork
            assert list(split.map([0, 1])) == [(10.0, 10.0), (10.0, 0.0)]
            shared[1] += 5.0
            assert list(split.map([0, 1])) == [(10.0, 10.0), (15.0, 0.0)]

    def test_helper_error_reraised_at_its_item(self, processes):
        processes(3)

        def work(i):
            if i == 4:
                raise ParameterError(f"bad item {i}")
            return i

        got = []
        with pytest.raises(ParameterError, match="^bad item 4$"):
            with cores.Split(work, 7) as split:
                for r in split.map(range(7)):
                    got.append(r)
        assert got == [0, 1, 2, 3]
        assert_no_children()

    def test_unpicklable_error_keeps_type_name_and_message(self, processes):
        processes(2)

        class Local(Exception):
            pass

        def work(i):
            if i == 1:
                raise Local("not picklable")
            return i

        with pytest.raises(AttnAlignError, match="Local: not picklable"):
            with cores.Split(work, 2) as split:
                list(split.map([0, 1]))
        assert_no_children()

    def test_dead_helper_names_exit_status(self, processes):
        processes(2)

        def work(i):
            if i == 1:
                os._exit(3)
            return i

        with pytest.raises(AttnAlignError, match="exit status 3"):
            with cores.Split(work, 2) as split:
                list(split.map([0, 1]))
        assert_no_children()

    def test_main_error_kills_busy_helpers(self, processes):
        processes(2)

        def work(i):
            if i == 0:
                raise ParameterError("main chunk fails")
            return bytes(4 << 20)   # more than a pipe holds

        with pytest.raises(ParameterError):
            with cores.Split(work, 2) as split:
                list(split.map([0, 1]))
        assert_no_children()

    def test_no_fork_beside_other_threads(self, processes):
        processes(2)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            with cores.Split(square, 2) as split:
                assert split.helpers == []
                assert list(split.map([1, 2])) == [1, 4]
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()

    def test_helpers_do_not_split_again(self, processes):
        processes(2)

        def work(i):
            with cores.Split(square, 2) as inner:
                return len(inner.helpers)

        with cores.Split(work, 2) as split:
            assert list(split.map([0, 1])) == [1, 0]
