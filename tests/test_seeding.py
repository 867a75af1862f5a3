"""Named random streams: stable draws, and no two seed bases sharing one."""

from cfqmc.seeding import rng_for


def test_small_seed_draws_as_pinned():
    # every fixture, benchmark and test seed lies in [0, 2^32): their streams
    # keep the floats they drew when the seed was masked to 32 bits
    assert rng_for(7, "shift").random() == 0.401870559955408


def test_seeds_equal_below_32_bits_draw_apart():
    seeds = (0, 2**32, -(2**32), -1, 2**32 - 1)
    draws = {rng_for(seed, "shift").random() for seed in seeds}
    assert len(draws) == len(seeds)
