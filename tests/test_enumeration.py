import dataclasses
import itertools
import tracemalloc
from collections import Counter

import pytest

from shallowperm import enumeration
from shallowperm.enumeration import (
    REFINEMENTS,
    Caps,
    CountQuery,
    CountTable,
    Method,
    MethodDisagreement,
    OracleDomainError,
    SizeCapExceeded,
    VerificationReport,
    count,
    descent_table,
    profile,
    search_mesh_counterexample,
    verify,
)
from shallowperm.patterns import (
    POSITION_ANCHORED_3412,
    VALUE_ANCHORED_3412,
    avoids,
    classical,
    find_occurrence,
)
from shallowperm.perms import (
    SymmetryClass,
    SymmetryKind,
    apply_symmetry,
    lr_max_flags,
    statistics,
)
from shallowperm.shallow import _extensions, _walk, extend_right, generate_shallow, is_shallow

P132 = classical((1, 3, 2))
P231 = classical((2, 3, 1))
P321 = classical((3, 2, 1))
P123 = classical((1, 2, 3))
P3412 = classical((3, 4, 1, 2))
LENGTH_3 = [classical(sigma) for sigma in itertools.permutations((1, 2, 3))]


# The symmetry whose fixed points make up each class.
CLASS_KIND = {
    SymmetryClass.INVOLUTION: SymmetryKind.INVERSE,
    SymmetryClass.CENTROSYMMETRIC: SymmetryKind.REVERSE_COMPLEMENT,
    SymmetryClass.PERSYMMETRIC: SymmetryKind.REVERSE_COMPLEMENT_INVERSE,
}


def totals(table):
    return {row.n: row.count for row in table.rows}


def reference_rows(query):
    """count's rows as {(n, k): count}, from a loop over all of S_n."""
    rows = {}
    for n in query.sizes:
        tally = Counter()
        for p in itertools.permutations(range(1, n + 1)):
            if not is_shallow(p):
                continue
            if query.symmetry and p != apply_symmetry(p, CLASS_KIND[query.symmetry]):
                continue
            if any(find_occurrence(p, spec) is not None for spec in query.avoid):
                continue
            tally[REFINEMENTS[query.refine_by](p) if query.refine_by else None] += 1
        if query.refine_by is None:
            rows[(n, None)] = tally[None]
        else:
            rows.update(((n, k), c) for k, c in tally.items())
    return rows


class TestCount:
    def test_all_shallow_size4(self):
        table = count(CountQuery(sizes=(4,), method=Method.BOTH))
        assert table.value(4) == 23

    def test_231_size4(self):
        table = count(CountQuery(sizes=(4,), avoid=(P231,), method=Method.BOTH))
        assert table.value(4) == 14

    def test_132_involutions_size5(self):
        table = count(
            CountQuery(
                sizes=(5,),
                avoid=(P132,),
                symmetry=SymmetryClass.INVOLUTION,
                method=Method.BOTH,
            )
        )
        assert table.value(5) == 8

    def test_methods_agree_through_6(self):
        for spec in (None, P132, P123):
            query = CountQuery(
                sizes=tuple(range(7)),
                avoid=(spec,) if spec else (),
                method=Method.BOTH,
            )
            count(query)  # raises MethodDisagreement on any mismatch

    def test_methods_agree_refined_symmetric(self):
        count(
            CountQuery(
                sizes=(7,),
                avoid=(P321,),
                symmetry=SymmetryClass.INVOLUTION,
                refine_by="descents",
                method=Method.BOTH,
            )
        )

    def test_all_231_avoiding_involutions_are_shallow(self):
        # The unfiltered involution count already matches the shallow one.
        import itertools

        from shallowperm.perms import inverse

        for n in range(1, 10):
            raw = sum(
                1
                for p in itertools.permutations(range(1, n + 1))
                if p == inverse(p) and avoids(p, (P231,))
            )
            assert raw == 2 ** (n - 1)
            table = count(
                CountQuery(
                    sizes=(n,), avoid=(P231,), symmetry=SymmetryClass.INVOLUTION
                )
            )
            assert table.value(n) == raw

    def test_refinement_sums_to_total(self):
        refined = count(
            CountQuery(sizes=(5,), avoid=(P321,), refine_by="descents")
        )
        plain = count(CountQuery(sizes=(5,), avoid=(P321,)))
        assert sum(row.count for row in refined.rows) == plain.value(5)

    def test_refinement_by_cycles_and_lrmax(self):
        for stat in ("cycles", "lrmax"):
            table = count(CountQuery(sizes=(4,), refine_by=stat))
            assert sum(row.count for row in table.rows) == 23

    def test_size_zero(self):
        table = count(CountQuery(sizes=(0,), avoid=(P132,), method=Method.BOTH))
        assert table.value(0) == 1

    def test_anchored_specs_exclude_nothing_shallow(self):
        # Both anchored patterns are avoided by every shallow permutation.
        table = count(
            CountQuery(
                sizes=(5, 6),
                avoid=(VALUE_ANCHORED_3412, POSITION_ANCHORED_3412),
                method=Method.BOTH,
            )
        )
        assert table.value(5) == 103
        assert table.value(6) == 511

    def test_cap_exceeded(self):
        with pytest.raises(SizeCapExceeded):
            count(CountQuery(sizes=(11,), method=Method.BRUTE_FORCE))
        with pytest.raises(SizeCapExceeded):
            count(CountQuery(sizes=(4,)), caps=Caps(brute_force=3, constructive=3))

    def test_bad_refinement_name(self):
        with pytest.raises(ValueError):
            CountQuery(sizes=(3,), refine_by="ascents")

    def test_rows_sorted_and_timed(self):
        table = count(CountQuery(sizes=(3, 5), avoid=(P132,), refine_by="descents"))
        keys = [(row.n, row.k) for row in table.rows]
        assert keys == sorted(keys)
        assert all(row.elapsed >= 0 for row in table.rows)

    def test_every_filter_combination_matches_a_loop_over_s_n(self):
        avoid_sets = ((), (P132,), (P321,), (VALUE_ANCHORED_3412, POSITION_ANCHORED_3412))
        for symmetry, avoid, refine_by in itertools.product(
            (None, *SymmetryClass), avoid_sets, (None, *REFINEMENTS)
        ):
            query = CountQuery(
                sizes=tuple(range(7)), avoid=avoid, symmetry=symmetry, refine_by=refine_by
            )
            expected = reference_rows(query)
            for method in Method:
                table = count(dataclasses.replace(query, method=method))
                got = {(row.n, row.k): row.count for row in table.rows}
                assert got == expected, (method, symmetry, avoid, refine_by)

    def test_a_spec_without_a_kernel_matches_a_loop_over_s_n(self):
        # Classical 3412 has no kernel, so avoids tests it with
        # find_occurrence; 132, which has one, is tested first.
        p3412 = classical((3, 4, 1, 2))
        for avoid in ((p3412,), (P132, p3412)):
            query = CountQuery(sizes=tuple(range(8)), avoid=avoid, refine_by="descents")
            expected = reference_rows(query)
            for method in Method:
                table = count(dataclasses.replace(query, method=method))
                assert {(row.n, row.k): row.count for row in table.rows} == expected

    def test_method_disagreement_payload(self):
        exc = MethodDisagreement(3, {None: 5}, {None: 6})
        assert exc.n == 3 and exc.brute == {None: 5}

    def test_both_detects_a_broken_decider(self, monkeypatch):
        import shallowperm.enumeration as en

        # The brute route decides shallowness in its walk of S_n; a walk that
        # calls every word shallow counts all 24 of S_4 against 23.
        monkeypatch.setattr(en, "brute_shallow_words", en.all_perms)
        with pytest.raises(MethodDisagreement) as exc:
            count(CountQuery(sizes=(4,), method=Method.BOTH))
        assert exc.value.brute == {None: 24}
        assert exc.value.constructive == {None: 23}

    def test_both_detects_a_broken_walk(self, monkeypatch):
        import shallowperm.enumeration as en

        # Filtered brute counts read the same walk: one that keeps all of S_4
        # is caught, the 14 321-avoiders of S_4 against the 13 shallow ones,
        # and its 10 involutions against 9.
        monkeypatch.setattr(en, "brute_shallow_words", en.all_perms)
        for avoid, symmetry, brute, constructive in (
            ((P321,), None, 14, 13),
            ((), SymmetryClass.INVOLUTION, 10, 9),
        ):
            with pytest.raises(MethodDisagreement) as exc:
                count(CountQuery(sizes=(4,), avoid=avoid, symmetry=symmetry,
                                 method=Method.BOTH))
            assert exc.value.brute == {None: brute}
            assert exc.value.constructive == {None: constructive}


class TestBruteWalk:
    def test_brute_walk_equals_the_filtered_s_n(self):
        for n in range(10):
            expected = [p for p in enumeration.all_perms(n) if is_shallow(p)]
            assert list(enumeration.brute_shallow_words(n)) == expected, n

    def test_brute_walk_holds_o_n_memory(self):
        # The 88,197 shallow words of S_9 would take megabytes if kept.
        tracemalloc.start()
        try:
            walked = sum(1 for _ in enumeration.brute_shallow_words(9))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert walked == 88197
        assert peak < 16 * 1024

    def test_negative_size_raises(self):
        with pytest.raises(ValueError, match="size must be nonnegative"):
            list(enumeration.brute_shallow_words(-1))
        with pytest.raises(ValueError, match="size must be nonnegative"):
            list(enumeration._words(-1, (), None, Method.BRUTE_FORCE))

    def test_no_count_query_asks_the_decider(self, monkeypatch):
        # Every brute query reads the walk, which calls no is_shallow. A
        # class tree yields only its class, and the 321 tree only
        # 321-avoiders, so neither is tested again.
        asked = []
        monkeypatch.setattr(enumeration, "is_shallow", lambda p: asked.append(p) or is_shallow(p))
        for avoid, symmetry in (
            ((), None),
            ((VALUE_ANCHORED_3412, POSITION_ANCHORED_3412), None),
            ((classical((3, 4, 1, 2)),), None),
            ((P321,), None),
            ((), SymmetryClass.INVOLUTION),
        ):
            count(CountQuery(sizes=(6,), avoid=avoid, symmetry=symmetry,
                             method=Method.BRUTE_FORCE))
        monkeypatch.setattr(enumeration, "is_in_class", lambda p, cls: asked.append(p))
        monkeypatch.setattr(enumeration, "avoids", lambda p, specs: asked.append(p))
        for symmetry in SymmetryClass:
            count(CountQuery(sizes=(6,), symmetry=symmetry))
        count(CountQuery(sizes=(6,), avoid=(P321,)))
        descent_table(6, P321)
        assert asked == []


class TestParentTally:
    """Unfiltered constructive counts of size n >= 2 are tallied from the
    shallow words of size n - 2, two growth steps at once; sizes 0 and 1
    count the leaves. The one-step rules the tally applies twice are
    checked against the statistics computed from their definitions."""

    REFINED = (None, *REFINEMENTS)

    def test_one_step_rules_match_the_statistics(self):
        for m in range(9):
            for t, slots in _walk(m):
                st = statistics(t)
                lr = lr_max_flags(t)
                padded = (0, *t, m + 1)
                children = [(t + (m + 1,), None)]
                children += [(extend_right(t, i + 1), i) for i in slots]
                for child, i in children:
                    sc = statistics(child)
                    if i is None:
                        assert sc.cycles == st.cycles + 1
                        assert sc.descents == st.descents
                        assert sc.lr_maxima == st.lr_maxima + 1
                        assert sc.inversions == st.inversions
                        assert sc.displacement == st.displacement
                        assert sc.reflection_length == st.reflection_length
                        continue
                    v = t[i]
                    assert sc.cycles == st.cycles
                    assert sc.descents == (
                        st.descents + 1 - (padded[i] > v) - (v > padded[i + 2]) + (t[-1] > v)
                    )
                    assert sc.lr_maxima == 1 + sum(lr[:i])
                    # I + T = D passes from t to the child: T grows by one
                    # and D by one more than I.
                    grown = 2 * (m - v) + 1 if lr[i] else 2 * (m - i - 1) + 1
                    assert sc.inversions == st.inversions + grown
                    assert sc.reflection_length == st.reflection_length + 1
                    assert sc.displacement == st.displacement + grown + 1

    def test_matches_the_leaf_tallies(self):
        for refine_by in self.REFINED:
            query = CountQuery(sizes=(), refine_by=refine_by)
            for n in range(11):
                leaves = generate_shallow(n)
                if refine_by is None:
                    expected = {None: sum(1 for _ in leaves)}
                else:
                    expected = dict(Counter(map(REFINEMENTS[refine_by], leaves)))
                got = enumeration._counts_for(n, query, Method.CONSTRUCTIVE)
                assert got == expected, (n, refine_by)
                assert all(type(c) is int for c in got.values())

    def test_matches_brute_force(self):
        for refine_by in self.REFINED:
            # raises MethodDisagreement on any mismatch
            count(CountQuery(sizes=tuple(range(1, 9)), refine_by=refine_by, method=Method.BOTH))

    def test_totals_at_10_and_11(self):
        table = count(CountQuery(sizes=(10, 11)))
        assert table.value(10) == 526018
        assert table.value(11) == 3206206

    def test_only_filtered_queries_ask_for_the_leaves(self, monkeypatch):
        asked = []
        names = ("_walk", "_leaves", "generate_shallow", "generate_321_avoiding", "generate_symmetric")
        for name in names:
            real = getattr(enumeration, name)

            def recording(n, *cls, name=name, real=real, **kwargs):
                asked.append((name, n, *cls))
                return real(n, *cls, **kwargs)

            monkeypatch.setattr(enumeration, name, recording)
        inv, centro, persym = SymmetryClass
        for refine_by in self.REFINED:
            for query, walked in (
                (CountQuery(sizes=(7,), refine_by=refine_by), ("_walk", 5)),
                (CountQuery(sizes=(7,), avoid=(P132,), refine_by=refine_by), ("_leaves", 7)),
                (
                    CountQuery(sizes=(7,), avoid=(VALUE_ANCHORED_3412,), refine_by=refine_by),
                    ("generate_shallow", 7),
                ),
                (CountQuery(sizes=(7,), avoid=(P3412,), refine_by=refine_by), ("generate_shallow", 7)),
                (
                    CountQuery(sizes=(7,), avoid=(P132, P321), refine_by=refine_by),
                    ("generate_321_avoiding", 7),
                ),
                (
                    CountQuery(sizes=(7,), symmetry=inv, refine_by=refine_by),
                    ("generate_symmetric", 7, inv),
                ),
                (
                    CountQuery(sizes=(7,), avoid=(P321,), symmetry=centro, refine_by=refine_by),
                    ("generate_symmetric", 7, centro),
                ),
                (
                    CountQuery(sizes=(7,), symmetry=persym, refine_by=refine_by),
                    ("generate_symmetric", 7, persym),
                ),
                (CountQuery(sizes=(0,), refine_by=refine_by), ("generate_shallow", 0)),
                (CountQuery(sizes=(1,), refine_by=refine_by), ("generate_shallow", 1)),
                (CountQuery(sizes=(2,), refine_by=refine_by), ("_walk", 0)),
            ):
                asked.clear()
                table = count(query)
                assert asked == [walked], query
                if query.sizes[0] <= 2:
                    got = {(row.n, row.k): row.count for row in table.rows}
                    assert got == reference_rows(query), query

    def test_memory_does_not_grow_with_class_size(self):
        tracemalloc.start()
        try:
            for refine_by in self.REFINED:
                query = CountQuery(sizes=(9,), refine_by=refine_by)
                enumeration._counts_for(9, query, Method.CONSTRUCTIVE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestChildrenLeftOpen:
    """A whole-tree query that avoids a classical spec with a kernel builds
    only the children that their parent's occurrence of the spec leaves
    open, and tests those."""

    def test_children_keep_parent_occurrences_off_their_slot(self):
        for m in range(9):
            for t, slots in _walk(m):
                for spec in LENGTH_3:
                    values = spec._kernel(t)
                    if values is None:
                        continue
                    # The appended child comes first, with no slot.
                    for i, child in zip([None, *slots], _extensions(t)):
                        if i is None or t[i] not in values:
                            assert find_occurrence(child, spec) is not None, (t, i, spec)

    def test_route_stream_equals_the_filtered_generator(self):
        # Every spec with a kernel alone and in pairs, and mixes with the
        # anchored specs and with 3412, which has none.
        singles = [*LENGTH_3, VALUE_ANCHORED_3412, POSITION_ANCHORED_3412]
        queries = [(spec,) for spec in singles] + list(itertools.combinations(singles, 2))
        queries += [(P132, VALUE_ANCHORED_3412), (P231, P3412), (P123, POSITION_ANCHORED_3412)]
        for n in range(10):
            leaves = list(generate_shallow(n))
            kept = {spec: {p for p in leaves if avoids(p, (spec,))} for spec in singles}
            for avoid in queries:
                common = set.intersection(*(kept[spec] for spec in avoid if spec in kept))
                rest = [spec for spec in avoid if spec not in kept]
                expected = [p for p in leaves if p in common and avoids(p, rest)]
                got = list(enumeration._words(n, avoid, None, Method.CONSTRUCTIVE))
                assert got == expected, (n, avoid)

    def test_a_132_count_tests_under_half_the_leaves(self, monkeypatch):
        tested = []

        def recording(host, specs):
            tested.append(host)
            return avoids(host, specs)

        monkeypatch.setattr(enumeration, "avoids", recording)
        assert count(CountQuery(sizes=(8,), avoid=(P132,))).value(8) == 610
        assert 0 < len(tested) < 15205 / 2


class TestVerify:
    def test_fibodd_totals_match(self):
        table = count(CountQuery(sizes=tuple(range(1, 8)), avoid=(P132,)))
        report = verify(table, "FibOdd")
        assert report.overall
        assert report.first_mismatch is None

    def test_closed_form_oracle(self):
        table = count(
            CountQuery(
                sizes=tuple(range(1, 8)),
                avoid=(P231,),
                symmetry=SymmetryClass.INVOLUTION,
            )
        )
        assert verify(table, "231_involutions").overall

    def test_corrupted_row_detected(self):
        table = count(CountQuery(sizes=tuple(range(1, 6)), avoid=(P132,)))
        bad_rows = tuple(
            dataclasses.replace(row, count=row.count + 1) if row.n == 4 else row
            for row in table.rows
        )
        corrupted = CountTable(query=table.query, rows=bad_rows)
        report = verify(corrupted, "FibOdd")
        assert not report.overall
        assert report.first_mismatch is not None
        assert report.first_mismatch.n == 4

    def test_bivariate_oracle(self):
        # The shallow 321-avoiders of size 3 have at most one descent, so
        # (3, 2) has no row and verify reads it as zero. A size with no row
        # at all is read as zero too, so dropping one cannot pass.
        table = descent_table(6, P321)
        assert (3, 2) not in {(row.n, row.k) for row in table.rows}
        assert verify(table, "A321xz").overall
        short = CountTable(table.query, tuple(row for row in table.rows if row.n != 6))
        assert verify(short, "A321xz").first_mismatch.n == 6

    def test_shape_mismatch(self):
        table = count(CountQuery(sizes=(4,), avoid=(P321,)))
        with pytest.raises(OracleDomainError):
            verify(table, "A321xz")
        refined = descent_table(4, P321)
        with pytest.raises(OracleDomainError):
            verify(refined, "FibOdd")

    def test_unknown_oracle(self):
        table = count(CountQuery(sizes=(3,)))
        with pytest.raises(OracleDomainError):
            verify(table, "NoSuchOracle")

    def test_domain_gap(self):
        table = count(
            CountQuery(
                sizes=(3,), avoid=(P231,), symmetry=SymmetryClass.INVOLUTION
            )
        )
        with pytest.raises(OracleDomainError):
            verify(table, "231_leading_pair")

    def test_report_from_pairs_empty(self):
        report = VerificationReport(())
        assert report.overall and report.first_mismatch is None


class TestDescentTable:
    def test_132_row_golden(self):
        table = descent_table(5, P132)
        assert table.value(4, 1) == 5

    def test_identity_row(self):
        # The identity is the unique zero-descent permutation and is shallow,
        # so the (n, 0) entry is 1 whenever it avoids the pattern. Avoiding
        # 123 is the exception: the identity contains 123 from n = 3 on.
        for spec in (P132, P231, P321):
            table = descent_table(5, spec)
            assert all(table.value(n, 0) == 1 for n in range(1, 6))
        table = descent_table(5, P123)
        assert table.value(1, 0) == 1 and table.value(2, 0) == 1
        assert not any(row.n >= 3 and row.k == 0 for row in table.rows)

    def test_rows_are_the_descent_count(self):
        # No zero rows: verify reads a missing (n, k) as zero.
        for spec, n_max in itertools.product(LENGTH_3, range(9)):
            table = descent_table(n_max, spec)
            query = CountQuery(tuple(range(1, n_max + 1)), (spec,), refine_by="descents")
            assert table.query == query
            assert [(r.n, r.k, r.count) for r in table.rows] == [
                (r.n, r.k, r.count) for r in count(query).rows
            ]
            assert all(r.count for r in table.rows)

    def test_cap(self):
        # count's own check: sizes 1..13 run past the constructive cap.
        with pytest.raises(SizeCapExceeded, match=r"^size 13 beyond the constructive cap 12$"):
            descent_table(13, P132)


class TestProfile:
    def test_trivial_size(self):
        pair = profile(1)
        assert pair.consistent
        assert pair.left.counts == (((1, 1), 1),)
        assert pair.right.counts == (((1, 1), 1),)

    def test_totals_match_class_sizes(self):
        pair = profile(3)
        assert pair.left.total() == pair.right.total() == 5

    def test_known_flags(self):
        # The joint multisets coincide only at n=1; the totals always agree.
        assert profile(1).consistent
        assert not profile(2).consistent
        assert not profile(3).consistent

    def test_multisets_match_the_statistics(self):
        # Both sides tallied from the definitions over the whole tree,
        # filtered by find_occurrence rather than the avoids kernels.
        for n in range(9):
            left, right = Counter(), Counter()
            for p in generate_shallow(n):
                st = statistics(p)
                if find_occurrence(p, P132) is None:
                    left[(st.cycles, st.descents + 1)] += 1
                if find_occurrence(p, P321) is None:
                    right[(st.cycles, st.lr_maxima)] += 1
            pair = profile(n)
            assert pair.left.counts == tuple(sorted(left.items())), n
            assert pair.right.counts == tuple(sorted(right.items())), n

    def test_cap(self):
        with pytest.raises(SizeCapExceeded):
            profile(13)

    def test_spec_tuples_built_once(self, monkeypatch):
        seen = {}  # holding each tuple keeps its id from being reused
        real = enumeration.avoids

        def recorder(p, specs):
            seen[id(specs)] = specs
            return real(p, specs)

        monkeypatch.setattr(enumeration, "avoids", recorder)
        profile(6)
        assert len(seen) == 1  # the 321 side walks the 321 tree, untested


class TestMeshSearch:
    def test_no_witness_below_5(self):
        assert search_mesh_counterexample(3) is None
        assert search_mesh_counterexample(4) is None

    def test_first_witness(self):
        witness = search_mesh_counterexample(5)
        assert witness == (1, 4, 5, 2, 3)
        assert not is_shallow(witness)
        assert avoids(witness, (VALUE_ANCHORED_3412, POSITION_ANCHORED_3412))

    def test_cap(self):
        with pytest.raises(SizeCapExceeded):
            search_mesh_counterexample(11)

    def test_a_faulty_decider_cannot_confirm_its_witness(self, monkeypatch):
        # A decider that calls (1,) non-shallow finds it first; the witness
        # check asks certify_shallow, not the same decider.
        monkeypatch.setattr(enumeration, "is_shallow", lambda p: False)
        with pytest.raises(RuntimeError, match="witness self-check failed"):
            search_mesh_counterexample(3)
