import numpy as np

from amphimax._rng import stream, window_reader


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
    # in the first few 4-word blocks, lengths that end inside, at and past
    # block edges
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
    # far windows: word 4j + r is word r of the block at counter j + 1
    far = stream(5, "pool").bit_generator
    far.advance(1000)
    assert np.array_equal(read(4000 + 2, 6), far.random_raw(8)[2:])
