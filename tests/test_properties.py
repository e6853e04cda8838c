"""Randomized laws on sets too large for the exhaustive windows."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from carrymagma import (EMPTY, FinSet, SetLiteralError, approx_add, encode,
                        exactness, format, invert, iterated_add, oplus, orbit,
                        parse, solve, stretch)

import oracles

big = settings(deadline=None)
finsets = st.frozensets(st.integers(min_value=0, max_value=120),
                        max_size=40).map(lambda s: FinSet.of(*s))
words = st.integers(min_value=0, max_value=(1 << 64) - 1)


@given(finsets)
def test_parse_format_round_trip(a):
    assert parse(format(a)) == a


LITERAL_BITS = 20_000
# what str.strip() removes: the ten ASCII characters, then one that is not
# ASCII, which only the per-token loop of parse accepts
PADDINGS = ["", " ", "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f ", "\u3000 "]


@st.composite
def spellings(draw):
    """Elements below 20k bits in random order, and one token for each.

    A token may be padded from one of PADDINGS or zero-filled to up to
    12 characters, within or past the eight of the largest element, each
    for a drawn share of the tokens; with both shares 0 the literal is
    plain.
    """
    mask = int.from_bytes(draw(st.binary(max_size=LITERAL_BITS // 8)),
                          "little")
    elements = oracles.positions(mask)
    rng = draw(st.randoms(use_true_random=False))
    rng.shuffle(elements)
    padding = draw(st.sampled_from(PADDINGS))
    pad_share = draw(st.sampled_from([0, 0.1, 1])) if padding else 0
    zero_share = draw(st.sampled_from([0, 0.01, 1]))
    tokens = []
    for n in elements:
        token = str(n)
        if rng.random() < zero_share:
            token = token.zfill(rng.randint(len(token) + 1, 12))
        if rng.random() < pad_share:
            token = (rng.choice(padding) + token
                     + rng.choice(padding) * rng.randint(0, 2))
        tokens.append(token)
    return elements, tokens, draw(st.booleans()), rng


def spell(tokens, braced):
    body = ",".join(tokens)
    return "{" + body + "}" if braced else body


@big
@given(spellings())
def test_parse_ignores_listing_order(spelled):
    elements, tokens, braced, _ = spelled
    assert parse(spell(tokens, braced)) == FinSet.of(*elements)


# (token, element value or None when malformed)
FAULTS = [("+5", None), ("1_0", None), ("\u0663", None), ("", None),
          (str(2**24), 2**24), ("99999999", 99999999), ("duplicate", None)]


@big
@given(spellings(), st.lists(st.sampled_from(FAULTS), min_size=1,
                             max_size=2))
def test_parse_names_first_faulty_token(spelled, faults):
    elements, tokens, braced, rng = spelled
    labelled = list(zip(tokens, elements))
    for fault in faults:
        if fault[0] == "duplicate":  # two more of a listed token, or of 0
            fault = rng.choice(labelled or [("0", 0)])
            labelled.insert(rng.randint(0, len(labelled)), fault)
        labelled.insert(rng.randint(0, len(labelled)), fault)
    literal = spell([token for token, _ in labelled], braced)
    assume(literal.strip("{}").strip())  # a lone blank token is {}
    seen = set()
    for token, n in labelled:
        named = token.strip()
        if n is None:
            expected = f"invalid element {named!r} in"
        elif n >= 2**24:
            expected = f"element {named} is too large"
        elif n in seen:
            expected = f"duplicate element {named!r} in"
        else:
            seen.add(n)
            continue
        break
    with pytest.raises(SetLiteralError) as excinfo:
        parse(literal)
    assert expected in str(excinfo.value)


@given(finsets, finsets)
def test_oplus_commutative(a, b):
    assert oplus(a, b) == oplus(b, a)


@given(finsets)
def test_empty_is_neutral(a):
    assert oplus(a, EMPTY) == a


@given(finsets)
def test_self_oplus_is_shift(a):
    assert oplus(a, a).bits == a.bits << 1


@given(finsets)
def test_invert_cancels(a):
    assert oplus(a, invert(a)) == EMPTY
    if a:
        assert min(invert(a)) == min(a)


@given(finsets, finsets)
def test_solver_round_trips(a, b):
    assert oplus(a, solve(a, b)) == b
    assert solve(a, oplus(a, b)) == b


@given(finsets, finsets)
def test_encoding_carries_oplus_to_approx_add(a, b):
    assert encode(oplus(a, b)) == approx_add(encode(a), encode(b))


@given(finsets, st.integers(0, 130))
def test_stretch_run_structure(a, n):
    value = stretch(a, n)
    if value == 0:
        assert n not in a
    else:
        k = value - 1
        assert all(pos in a for pos in range(n - k, n + 1))
        assert n - k == 0 or (n - k - 1) not in a


@settings(max_examples=200)
@given(words, words)
def test_knuth_identity_on_wide_words(a, b):
    assert oracles.knuth_sum(a, b) == a + b


@given(words, words)
def test_iterated_add_on_wide_words(a, b):
    total, rounds = iterated_add(a, b)
    assert total == a + b
    assert rounds <= 65


@given(words, words)
def test_exactness_matches_definition(a, b):
    assert exactness(a, b) == (approx_add(a, b) == a + b)


BIG = 10_000


@st.composite
def big_sets(draw):
    """Sets below 10k bits: random bytes overlaid with long runs and gaps."""
    bits = int.from_bytes(draw(st.binary(max_size=BIG // 8)), "little")
    overlays = draw(st.lists(st.tuples(st.integers(0, BIG - 1),
                                       st.integers(1, BIG), st.booleans()),
                             max_size=4))
    for start, length, fill in overlays:
        run = ((1 << length) - 1) << start
        bits = bits | run if fill else bits & ~run
    return FinSet(bits & ((1 << BIG) - 1))


@big
@given(big_sets(), big_sets())
def test_oplus_matches_set_formula_on_big_sets(a, b):
    expected = oracles.oplus_on_sets(set(oracles.positions(a.bits)),
                                     set(oracles.positions(b.bits)))
    assert set(oplus(a, b)) == expected


@big
@given(big_sets(), big_sets())
def test_solve_matches_bit_sweep_on_big_sets(a, b):
    assert solve(a, b).bits == oracles.solve_by_sweep(a.bits, b.bits)


@big
@given(big_sets())
def test_invert_matches_stretch_parity_construction_on_big_sets(a):
    assert invert(a).bits == oracles.inverse_by_stretch_parity(a.bits)


@big
@given(big_sets(), st.lists(st.integers(0, BIG + 50), max_size=8))
def test_stretch_matches_oracles_on_big_sets(a, ns):
    if a:
        ns = ns + [min(a), max(a)]
    for n in ns:
        expected = oracles.stretch_by_steps(a.bits, n)
        assert oracles.stretch_by_gap(a.bits, n) == expected
        assert stretch(a, n) == expected


@big
@given(big_sets(), st.integers(0, 8))
def test_inverse_and_orbit_stay_within_one_bit_on_big_sets(a, k):
    # the bounds behind the subset search's two checks and orbit's cost cap
    top = 1 << (a.bits.bit_length() + 1)
    assert invert(a).bits < top
    assert all(c.bits < top for c in orbit(a, k))


@big
@given(big_sets())
def test_iteration_and_format_round_trip_on_big_sets(a):
    members = oracles.positions(a.bits)
    assert list(a) == members
    assert format(a) == "{" + ",".join(map(str, members)) + "}"
    assert parse(format(a)) == a


@st.composite
def spread_sets(draw):
    """Ascending members below 20k bits, one per 1 to 2048 positions with
    the spacing log-uniform, so _mask's digit buffer and the view range
    from mostly ones to long runs of zeros, and the sparsest sets leave
    empty 1000-position blocks between members for format's block walk
    to skip."""
    size = draw(st.integers(1, LITERAL_BITS))
    spacing = 2 ** draw(st.floats(0, 11))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return sorted(rng.sample(range(size), max(1, int(size / spacing))))


@big
@given(spread_sets())
def test_text_iteration_and_mask_across_densities(members):
    bits = sum(1 << n for n in members)
    a = FinSet(bits)
    assert list(a) == members
    assert format(a) == "{" + ",".join(map(str, members)) + "}"
    assert repr(a) == "FinSet.of(" + ", ".join(map(str, members)) + ")"
    assert parse(format(a)) == a
    assert FinSet.of(*members).bits == bits


@big
@given(big_sets(), st.randoms(use_true_random=False))
def test_parse_format_round_trip_on_big_sets(a, rng):
    assert parse(format(a)) == a
    elements = list(a)
    rng.shuffle(elements)
    assert parse(",".join(map(str, elements))) == a
    assert FinSet.of(*elements) == a


@big
@given(big_sets().filter(bool), st.randoms(use_true_random=False))
def test_parse_rejects_one_repeat_in_shuffled_big_literal(a, rng):
    tokens = [str(n) for n in a]
    repeated = rng.choice(tokens)
    tokens.append(repeated)
    rng.shuffle(tokens)
    with pytest.raises(SetLiteralError,
                       match=f"duplicate element '{repeated}'"):
        parse(",".join(tokens))
