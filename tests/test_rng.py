import numpy as np
import pytest

from amphimax._rng import instance_stream, stream, window_reader


def test_same_address_same_draws():
    a = stream(7, "phase", 3).random(16)
    b = stream(7, "phase", 3).random(16)
    assert np.array_equal(a, b)


def test_distinct_addresses_differ():
    seen = set()
    # includes prefix/extension pairs like (0,"a") vs (0,"a",0), which a
    # naive zero-padded entropy encoding would collide
    for path in [(0,), (1,), (0, "a"), (0, "b"), (0, "a", 0), (0, "a", 1), (0, 0)]:
        draws = tuple(stream(*path).random(8))
        assert draws not in seen
        seen.add(draws)


def test_string_parts_hash_stably():
    # not the salted builtin hash: values must agree across processes
    a = stream(0, "final", 2).random(4)
    b = stream(0, "final", 2).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(stream(0, "final", 2).random(4), stream(0, "fina1", 2).random(4))


def test_window_words_are_slices_of_the_stream():
    # any window a reader reads holds what one sequential draw of the
    # stream's raw words holds there, whatever it read before: every start
    # in the first few words, lengths from empty to 17 words
    sequence = stream(5, "pool").bit_generator.random_raw(64)
    read = window_reader((5, "pool"))
    for start in range(14):
        for count in (0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 17):
            got = read(start, count)
            assert got.dtype == np.uint64 and np.array_equal(got, sequence[start : start + count]), (start, count)
    # a reader at another address reads its own stream and leaves this one alone
    other = window_reader((5, "x"))
    other(3, 10)
    assert np.array_equal(read(40, 24), sequence[40:])
    assert not np.array_equal(other(0, 8), sequence[:8])
    assert np.array_equal(other(0, 8), stream(5, "x").bit_generator.random_raw(8))


def test_far_windows_skip_whole_words():
    # PCG64DXSM gives one 64-bit word per step, so advance(n) skips n words;
    # starts past 2**40 and NumPy integer starts (which advance itself
    # refuses) read the same words
    read = window_reader((5, "pool"))
    for start in (1000, 2**40 + 3):
        far = stream(5, "pool").bit_generator
        far.advance(start)
        want = far.random_raw(6)
        assert np.array_equal(read(start, 6), want)
        for kind in (np.int64, np.intp, np.uint64):
            assert np.array_equal(read(kind(start), 6), want), kind


def test_instance_streams_differ_from_solver_streams():
    # the generators draw from Philox at the same addresses the solver
    # reads PCG64DXSM from; the two never share words
    assert isinstance(instance_stream(3, "rank_r").bit_generator, np.random.Philox)
    assert isinstance(stream(3, "rank_r").bit_generator, np.random.PCG64DXSM)
    for address in [(0,), (3, "rank_r", 4, 3, 1), (5, "pool")]:
        a = instance_stream(*address).bit_generator.random_raw(8)
        assert np.array_equal(a, instance_stream(*address).bit_generator.random_raw(8))
        assert not np.array_equal(a, stream(*address).bit_generator.random_raw(8))


def test_negative_master_seeds_are_refused():
    # by name, before NumPy's SeedSequence sees them
    for make in (stream, instance_stream, lambda *address: window_reader(address)):
        with pytest.raises(ValueError, match=r"^master seed must be a non-negative integer, got -1$"):
            make(-1, "pool")
    with pytest.raises(ValueError, match="got -3"):
        stream(np.int64(-3))
