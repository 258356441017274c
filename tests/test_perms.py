import random
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from shallowperm.perms import (
    DuplicateEntry,
    NotAPermutation,
    ParseError,
    StatVector,
    SymmetryClass,
    apply_symmetry,
    cycle_count,
    decreasing,
    descent_count,
    direct_sum,
    format_permutation,
    identity,
    inverse,
    inversion_count,
    is_in_class,
    parse_permutation,
    reduce_word,
    reverse_complement,
    reverse_complement_inverse,
    skew_sum,
    statistics,
    validate_permutation,
)
from words import all_perms


def regex_parse(text):
    """parse_permutation as it was when it split on the regex [,\\s]+."""
    stripped = text.strip()
    if not stripped:
        return ()
    if not stripped.isascii():
        raise ParseError(f"cannot parse {text!r}")
    if re.search(r"[,\s]+", stripped):
        tokens = [t for t in re.split(r"[,\s]+", stripped) if t]
        for tok in tokens:
            if not tok.isdigit():
                raise ParseError(f"bad token {tok!r}")
        return validate_permutation(map(int, tokens))
    if not stripped.isdigit():
        raise ParseError(f"cannot parse {text!r}")
    if len(stripped) >= 10:
        raise ParseError("digit-string form is ambiguous for length >= 10; separate values with commas")
    return validate_permutation(int(c) for c in stripped)


def outcome(parse, text):
    """The parsed word, or the type and message of the error raised."""
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


words_up_to_500 = (
    st.integers(0, 500).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple)
)


def with_long_words(test):
    """Add a decreasing and a seeded random word of each size around and
    past one 64-bit word as explicit examples."""
    for n in (63, 64, 65, 128, 500):
        test = example(decreasing(n))(test)
        test = example(tuple(random.Random(n).sample(range(1, n + 1), n)))(test)
    return test


def pair_inversions(p):
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def adjacent_descents(p):
    return sum(1 for i in range(len(p) - 1) if p[i] > p[i + 1])


def orbit_count(p):
    """The number of distinct orbits {i, p(i), p(p(i)), ...}, as sets."""
    orbits = set()
    for start in range(1, len(p) + 1):
        orbit = {start}
        v = p[start - 1]
        while v != start:
            orbit.add(v)
            v = p[v - 1]
        orbits.add(frozenset(orbit))
    return len(orbits)


@st.composite
def class_candidates(draw):
    """
    A permutation of size <= 30: uniform, or built inside one symmetry class
    and then, sometimes, spoiled by swapping two entries.
    """
    n = draw(st.integers(0, 30))
    q = draw(st.permutations(range(1, n + 1)))
    shape = draw(st.sampled_from(["uniform", "involution", "persymmetric", "centrosymmetric"]))
    if shape == "uniform":
        return tuple(q)
    p = list(range(1, n + 1))
    if shape == "centrosymmetric":
        half = sorted(q[: n // 2])
        for i, v in enumerate(q[: n // 2]):
            low = half.index(v) + 1
            p[i] = low if v % 2 else n + 1 - low
            p[n - 1 - i] = n + 1 - p[i]
    else:
        for k in range(draw(st.integers(0, n // 2))):
            a, b = q[2 * k], q[2 * k + 1]
            p[a - 1], p[b - 1] = b, a
        if shape == "persymmetric":
            p.reverse()
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        p[i], p[j] = p[j], p[i]
    return tuple(p)


class TestParsing:
    def test_comma_separated(self):
        assert parse_permutation("4,2,1,6,3,5") == (4, 2, 1, 6, 3, 5)

    def test_digit_string(self):
        assert parse_permutation("421635") == (4, 2, 1, 6, 3, 5)

    def test_singleton(self):
        assert parse_permutation("1") == (1,)

    def test_empty(self):
        assert parse_permutation("") == ()

    def test_whitespace_separated(self):
        assert parse_permutation("3 1 2") == (3, 1, 2)
        assert parse_permutation("3, 1, 2") == (3, 1, 2)

    def test_duplicate_value(self):
        with pytest.raises(NotAPermutation):
            parse_permutation("4,2,13,1,2")

    def test_out_of_range(self):
        with pytest.raises(NotAPermutation):
            parse_permutation("1,3")
        with pytest.raises(NotAPermutation):
            parse_permutation("0,1")

    def test_bad_token(self):
        # int() would read "+1", "1_0" and "-1" as 1, 10 and -1.
        for text, token in [
            ("1,x,2", "x"), ("2,+1", "+1"), ("1_0,9,8,7,6,5,4,3,2,1", "1_0"), ("-1,2", "-1"),
        ]:
            with pytest.raises(ParseError, match=f"^bad token {re.escape(repr(token))}$"):
                parse_permutation(text)

    @pytest.mark.parametrize("text", ["\u00b2", "1\u00b2", "\u0661\u0662", "1,\u00b2", "\u0661,\u0662", "1\u00a02"])
    def test_non_ascii_rejected(self, text):
        # "²" passes str.isdigit but not int; int reads the Arabic-Indic digits.
        with pytest.raises(ParseError, match="cannot parse"):
            parse_permutation(text)

    @pytest.mark.parametrize("template", ["2{c}1{c}{c}3", "{c}1{c}", "1{c}", "12{c}3", "{c}", "3{c}x{c}1"])
    def test_every_ascii_separator(self, template):
        # The parser splits with str.split; the regex it replaced is the oracle.
        for c in map(chr, range(128)):
            text = template.format(c=c)
            assert outcome(parse_permutation, text) == outcome(regex_parse, text), repr(text)

    @given(st.text(st.sampled_from("0123456789, \t\n\x0b\x0c\r\x1c\x1fx+_-"), max_size=30))
    def test_matches_regex_split(self, text):
        assert outcome(parse_permutation, text) == outcome(regex_parse, text)

    def test_first_bad_value_named(self):
        for text, message in [
            ("3,1,4", "value 4 out of range 1..3"), ("2,0,5,1", "value 0 out of range 1..4"),
            ("2,3,2,1", "duplicate value 2"), ("40,2,2,1", "value 40 out of range 1..4"),
        ]:
            with pytest.raises(NotAPermutation, match=f"^{message}$"):
                parse_permutation(text)

    def test_long_digit_string_rejected(self):
        with pytest.raises(ParseError):
            parse_permutation("1234567891")

    def test_ten_or_more_needs_separators(self):
        word = tuple(range(10, 0, -1))
        assert parse_permutation(format_permutation(word)) == word

    def test_format_round_trip(self):
        for n in range(5):
            for p in all_perms(n):
                assert parse_permutation(format_permutation(p)) == p

    def test_validate_reports_duplicate(self):
        with pytest.raises(NotAPermutation, match="duplicate"):
            validate_permutation((2, 1, 2, 3))

    def test_validate_reports_range_before_duplicate(self):
        with pytest.raises(NotAPermutation, match="out of range"):
            validate_permutation((2, 2, 4))


class TestStatistics:
    def test_decreasing_three(self):
        assert statistics((3, 2, 1)) == StatVector(4, 3, 2, 1, 2, 1, 1)

    def test_identity(self):
        for n in (0, 1, 4, 7):
            s = statistics(identity(n))
            assert (s.displacement, s.inversions, s.reflection_length) == (0, 0, 0)
            assert s.descents == 0
            assert s.lr_maxima == n

    def test_unique_size4_gap_witness(self):
        s = statistics((3, 4, 1, 2))
        assert (s.displacement, s.inversions, s.reflection_length) == (8, 4, 2)

    def test_empty(self):
        assert statistics(()) == StatVector(0, 0, 0, 0, 0, 0, 0)

    def test_inversions_match_naive(self):
        for n in range(7):
            for p in all_perms(n):
                naive = sum(
                    1
                    for i in range(n)
                    for j in range(i + 1, n)
                    if p[i] > p[j]
                )
                assert statistics(p).inversions == naive

    @given(words_up_to_500)
    @with_long_words
    @example(())
    @example((1,))
    def test_inversion_count_matches_pair_count(self, p):
        assert inversion_count(p) == pair_inversions(p)

    def test_kernels_match_definitions_over_s_n(self):
        for n in range(9):
            for p in all_perms(n):
                assert inversion_count(p) == pair_inversions(p), p
                assert descent_count(p) == adjacent_descents(p), p
                assert cycle_count(p) == orbit_count(p), p

    @given(words_up_to_500)
    @with_long_words
    def test_descent_and_cycle_counts_match_definitions(self, p):
        assert descent_count(p) == adjacent_descents(p)
        assert cycle_count(p) == orbit_count(p)

    def test_diaconis_graham_bounds(self):
        # I + T <= D <= 2I, and D is even, for every permutation.
        for n in range(9):
            for p in all_perms(n):
                s = statistics(p)
                assert s.inversions + s.reflection_length <= s.displacement
                assert s.displacement <= 2 * s.inversions
                assert s.displacement % 2 == 0


class TestSymmetries:
    def test_inverse_golden(self):
        # Composing with the original gives the identity.
        p = (4, 2, 1, 6, 3, 5)
        q = inverse(p)
        assert q == (3, 2, 5, 1, 6, 4)
        assert tuple(q[v - 1] for v in p) == identity(6)

    def test_reverse_complement_identity(self):
        for n in range(6):
            assert reverse_complement(identity(n)) == identity(n)

    def test_involutive(self):
        for n in range(8):
            for p in all_perms(n):
                for cls in SymmetryClass:
                    assert apply_symmetry(apply_symmetry(p, cls), cls) == p

    def test_inverse_commutes_with_rc(self):
        for n in range(8):
            for p in all_perms(n):
                assert inverse(reverse_complement(p)) == reverse_complement(inverse(p))

    def test_rci_is_composition(self):
        for p in all_perms(5):
            assert reverse_complement_inverse(p) == inverse(reverse_complement(p))

    def test_statistics_preserved(self):
        for n in range(8):
            for p in all_perms(n):
                s = statistics(p)
                for cls in SymmetryClass:
                    t = statistics(apply_symmetry(p, cls))
                    assert (s.displacement, s.inversions, s.cycles) == (
                        t.displacement,
                        t.inversions,
                        t.cycles,
                    )


class TestSymmetryClasses:
    def test_decreasing_is_involution(self):
        assert is_in_class((4, 3, 2, 1), SymmetryClass.INVOLUTION)

    def test_21_in_all_classes(self):
        for cls in SymmetryClass:
            assert is_in_class((2, 1), cls)

    def test_23451_is_persymmetric_not_centrosymmetric(self):
        p = (2, 3, 4, 5, 1)
        assert reverse_complement(p) == (5, 1, 2, 3, 4)
        assert not is_in_class(p, SymmetryClass.CENTROSYMMETRIC)
        assert is_in_class(p, SymmetryClass.PERSYMMETRIC)

    def test_matches_fixed_point_definition(self):
        for n in range(9):
            for p in all_perms(n):
                for cls in SymmetryClass:
                    assert is_in_class(p, cls) == (p == apply_symmetry(p, cls))

    @given(class_candidates())
    @example(())
    @example((2, 3, 4, 5, 1))
    def test_matches_apply_symmetry_up_to_30(self, p):
        for cls in SymmetryClass:
            assert is_in_class(p, cls) == (p == apply_symmetry(p, cls))

    def test_rejects_a_symmetry_kind(self):
        # Only a SymmetryClass names a class, not its value.
        with pytest.raises(ValueError, match="not a symmetry class"):
            is_in_class((2, 1), "involution")


class TestSums:
    def test_direct_sum_golden(self):
        assert direct_sum((4, 3, 1, 2), (5, 3, 1, 4, 2)) == (4, 3, 1, 2, 9, 7, 5, 8, 6)

    def test_skew_sum_golden(self):
        assert skew_sum(direct_sum((3, 1, 2), (1,)), (2, 1)) == (5, 3, 4, 6, 2, 1)

    def test_neutral_element(self):
        for p in all_perms(4):
            assert direct_sum((), p) == p == direct_sum(p, ())
            assert skew_sum(p, ()) == p == skew_sum((), p)

    def test_singletons(self):
        assert direct_sum((1,), (1,)) == (1, 2)
        assert skew_sum((1,), (1,)) == (2, 1)

    def test_statistics_additive_over_direct_sum(self):
        key = lambda s: (s.displacement, s.inversions, s.cycles)
        stats_by_size = {
            n: [(p, key(statistics(p))) for p in all_perms(n)] for n in range(9)
        }
        for a in range(9):
            for b in range(9 - a):
                for p, (dp, ip, cp) in stats_by_size[a]:
                    for q, (dq, iq, cq) in stats_by_size[b]:
                        assert key(statistics(direct_sum(p, q))) == (
                            dp + dq,
                            ip + iq,
                            cp + cq,
                        )


class TestReduce:
    def test_goldens(self):
        assert reduce_word((4, 8, 2, 9, 1)) == (3, 4, 2, 5, 1)
        assert reduce_word((9, 4, 8, 2)) == (4, 2, 3, 1)

    def test_fixed_point_on_permutations(self):
        for p in all_perms(5):
            assert reduce_word(p) == p

    def test_duplicate(self):
        with pytest.raises(DuplicateEntry):
            reduce_word((1, 3, 1))

    @given(st.lists(st.integers(-50, 50), max_size=9, unique=True))
    def test_order_preserving_and_idempotent(self, word):
        out = reduce_word(tuple(word))
        assert sorted(out) == list(range(1, len(out) + 1))
        for i in range(len(word)):
            for j in range(len(word)):
                assert (word[i] < word[j]) == (out[i] < out[j])
        assert reduce_word(out) == out


class TestSpecial:
    def test_decreasing(self):
        assert decreasing(4) == (4, 3, 2, 1)
        assert decreasing(0) == ()

    def test_identity(self):
        assert identity(3) == (1, 2, 3)
        assert identity(0) == ()

    def test_negative_size(self):
        with pytest.raises(ValueError):
            decreasing(-1)
