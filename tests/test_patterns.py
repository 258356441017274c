import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shallowperm import enumeration, suites
from shallowperm.patterns import (
    Anchor,
    LENGTH_3,
    POSITION_ANCHORED_3412,
    VALUE_ANCHORED_3412,
    PatternSpec,
    avoids,
    classical,
    find_occurrence,
    occurrence_matches,
    parse_pattern,
)
from shallowperm.perms import identity, inverse, parse_permutation
from shallowperm.shallow import generate_shallow
from words import all_perms


def brute_least_occurrence(host, spec):
    """Independent oracle: scan every index tuple in lexicographic order."""
    m = len(spec.pattern)
    for combo in itertools.combinations(range(1, len(host) + 1), m):
        if occurrence_matches(host, spec, combo):
            return combo
    return None


def accepted_specs(max_length):
    """Every spec PatternSpec accepts with a pattern of at most max_length letters."""
    for m in range(max_length + 1):
        for word in all_perms(m):
            for anchors in itertools.product((None, *Anchor), repeat=m):
                try:
                    yield PatternSpec(word, anchors)
                except ValueError:
                    pass


CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430]


class TestSpecValidation:
    def test_too_long(self):
        with pytest.raises(ValueError):
            classical((1, 2, 3, 4, 5))

    def test_anchor_length_mismatch(self):
        with pytest.raises(ValueError):
            PatternSpec(pattern=(1, 2), anchors=(None,))

    def test_duplicate_anchor_kind(self):
        with pytest.raises(ValueError):
            PatternSpec(pattern=(1, 2), anchors=(Anchor.VALUE_MAX, Anchor.VALUE_MAX))

    def test_pos_first_only_first(self):
        with pytest.raises(ValueError):
            PatternSpec(pattern=(1, 2), anchors=(None, Anchor.POS_FIRST))

    def test_pos_last_only_last(self):
        with pytest.raises(ValueError):
            PatternSpec(pattern=(1, 2), anchors=(Anchor.POS_LAST, None))

    def test_parse_named(self):
        for name, spec in LENGTH_3.items():
            assert parse_pattern(name) is spec
            assert spec == classical(map(int, name))
        assert parse_pattern("3n12") is VALUE_ANCHORED_3412
        assert parse_pattern("u3412") is POSITION_ANCHORED_3412
        assert parse_pattern("1,3,2") == classical((1, 3, 2))

    def test_one_spec_per_length_3_pattern(self):
        assert sorted(LENGTH_3) == ["123", "132", "213", "231", "312", "321"]
        assert suites.PATTERNS is LENGTH_3
        assert enumeration._AVOID_132[0] is LENGTH_3["132"]
        assert enumeration._AVOID_321[0] is LENGTH_3["321"]
        assert all(spec._kernel is not None for spec in LENGTH_3.values())


class TestFindOccurrence:
    def test_value_anchored_host(self):
        host = parse_permutation("642981537")
        occ = find_occurrence(host, VALUE_ANCHORED_3412)
        # 4913 is the quoted witness; the least index tuple picks 6915.
        assert occurrence_matches(host, VALUE_ANCHORED_3412, (2, 4, 6, 8))
        assert occ == (1, 4, 6, 7)
        assert occ == brute_least_occurrence(host, VALUE_ANCHORED_3412)

    def test_position_anchored_host(self):
        host = parse_permutation("672198435")
        occ = find_occurrence(host, POSITION_ANCHORED_3412)
        assert occurrence_matches(host, POSITION_ANCHORED_3412, (1, 6, 8, 9))
        assert occ == (1, 2, 3, 9)
        assert occ == brute_least_occurrence(host, POSITION_ANCHORED_3412)

    def test_classical_but_not_anchored(self):
        host = parse_permutation("642981537")
        assert find_occurrence(host, classical((3, 4, 1, 2))) is not None
        # 6815 is a plain 3412 occurrence whose "4" is not the maximum.
        assert occurrence_matches(host, classical((3, 4, 1, 2)), (1, 5, 6, 7))
        assert not occurrence_matches(host, VALUE_ANCHORED_3412, (1, 5, 6, 7))

    def test_whole_word_occurrence(self):
        assert find_occurrence((3, 4, 1, 2), VALUE_ANCHORED_3412) == (1, 2, 3, 4)

    def test_empty_pattern(self):
        assert find_occurrence((2, 1), classical(())) == ()

    def test_pattern_longer_than_host(self):
        assert find_occurrence((1,), classical((1, 2))) is None

    def test_lex_least_matches_oracle_everywhere(self):
        # Every anchor placement up to length 3 (the empty spec, 5 of length
        # 1, 2 x 14 of length 2 and 6 x 30 of length 3) and the 3412 specs.
        specs = list(accepted_specs(3))
        assert len(specs) == 214
        specs += [classical((3, 4, 1, 2)), VALUE_ANCHORED_3412, POSITION_ANCHORED_3412]
        for n in range(6):
            for p in all_perms(n):
                for spec in specs:
                    assert find_occurrence(p, spec) == brute_least_occurrence(p, spec), (p, spec)


class TestAvoids:
    def test_3412_avoids_132(self):
        assert avoids((3, 4, 1, 2), [classical((1, 3, 2))])

    def test_3412_contains_itself_anchored(self):
        assert not avoids((3, 4, 1, 2), [VALUE_ANCHORED_3412])

    def test_identity_avoids_321(self):
        assert avoids(identity(6), [classical((3, 2, 1))])

    def test_empty_spec_set(self):
        assert avoids((2, 1), [])

    def test_catalan_counts(self):
        for sigma in all_perms(3):
            spec = classical(sigma)
            for n in range(9):
                count = sum(1 for p in all_perms(n) if avoids(p, [spec]))
                assert count == CATALAN[n]


class TestAnchoredProperties:
    def test_anchored_implies_classical(self):
        plain = classical((3, 4, 1, 2))
        for n in range(8):
            for p in all_perms(n):
                for spec in (VALUE_ANCHORED_3412, POSITION_ANCHORED_3412):
                    if find_occurrence(p, spec) is not None:
                        assert find_occurrence(p, plain) is not None

    def test_inverse_duality(self):
        for n in range(8):
            for p in all_perms(n):
                left = find_occurrence(p, VALUE_ANCHORED_3412) is not None
                right = find_occurrence(inverse(p), POSITION_ANCHORED_3412) is not None
                assert left == right

    def test_shallow_avoid_both(self):
        both = (VALUE_ANCHORED_3412, POSITION_ANCHORED_3412)
        for n in range(7):
            for p in generate_shallow(n):
                assert avoids(p, both)


# The specs avoids decides by a linear-time kernel, and specs that must
# still reach find_occurrence.
KERNEL_SPECS = [classical(sigma) for sigma in all_perms(3)] + [
    VALUE_ANCHORED_3412,
    POSITION_ANCHORED_3412,
]
GENERIC_SPECS = [classical(w) for w in ((3, 4, 1, 2), (1,), (1, 2), (2, 1), ())]


class TestKernelsAgainstSearch:
    def test_exhaustive_small_sizes(self):
        # A kernel finds nothing exactly when the search does; otherwise the
        # positions of its distinct values form an occurrence.
        for n in range(9):
            for p in all_perms(n):
                for spec in KERNEL_SPECS:
                    values = spec._kernel(p)
                    assert avoids(p, (spec,)) == (values is None), (p, spec)
                    if values is None:
                        assert find_occurrence(p, spec) is None, (p, spec)
                        continue
                    positions = tuple(sorted(p.index(v) + 1 for v in values))
                    assert len(set(values)) == len(values), (p, spec, values)
                    assert occurrence_matches(p, spec, positions), (p, spec, values)

    @settings(max_examples=300)
    @given(st.integers(0, 14).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple))
    def test_random_hosts(self, p):
        for spec in KERNEL_SPECS:
            assert avoids(p, (spec,)) == (find_occurrence(p, spec) is None), spec

    def test_generic_specs_keep_search_answer(self):
        for n in range(7):
            for p in all_perms(n):
                for spec in GENERIC_SPECS:
                    assert avoids(p, (spec,)) == (find_occurrence(p, spec) is None), (p, spec)

    def test_mixed_specs_fail_on_any_containment(self):
        specs = KERNEL_SPECS + GENERIC_SPECS[:1]
        for n in range(7):
            for p in all_perms(n):
                contained = any(find_occurrence(p, spec) is not None for spec in specs)
                assert avoids(p, specs) == (not contained), p
