import hashlib
import random
import time
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from shallowperm import enumeration, shallow
from shallowperm.enumeration import Method
from shallowperm.patterns import avoids, classical, find_occurrence
from shallowperm.perms import (
    SymmetryClass,
    SymmetryKind,
    apply_symmetry,
    decreasing,
    direct_sum,
    identity,
    is_in_class,
    lr_max_flags,
    rl_min_flags,
    skew_sum,
)
from shallowperm.shallow import (
    IllegalSlot,
    ReductionStep,
    ShallowCertificate,
    SizeTooSmall,
    StepKind,
    achieves_upper_bound,
    certify_shallow,
    extend_right,
    generate_321_avoiding,
    generate_shallow,
    generate_symmetric,
    is_shallow,
    l_operator,
    r_operator,
    replay_certificate,
    wrap_n1,
)
from words import all_perms, flag_slots, grown


P321 = classical((3, 2, 1))

# The symmetry whose fixed points make up each class.
CLASS_KIND = {
    SymmetryClass.INVOLUTION: SymmetryKind.INVERSE,
    SymmetryClass.CENTROSYMMETRIC: SymmetryKind.REVERSE_COMPLEMENT,
    SymmetryClass.PERSYMMETRIC: SymmetryKind.REVERSE_COMPLEMENT_INVERSE,
}

# Each class walk, and the fast test of its class that the counts filter by.
CLASS_WALKS = {
    "321": (generate_321_avoiding, lambda p: avoids(p, (P321,))),
    **{cls.value: (lambda n, cls=cls: generate_symmetric(n, cls),
                   lambda p, cls=cls: is_in_class(p, cls)) for cls in SymmetryClass},
}


def brute_shallow(n):
    return {p for p in all_perms(n) if is_shallow(p)}


def reference_certificate(p):
    """certify_shallow's steps, from one r_operator call per step and the
    extreme-entry flags of the word each step leaves."""
    steps = []
    current = p
    while len(current) >= 2:
        n = len(current)
        j = current.index(n)
        moved = None if current[-1] == n else current[-1]
        current = r_operator(current)
        if moved is None:
            kind = StepKind.APPENDED_MAX
        elif lr_max_flags(current)[j]:
            kind = StepKind.LEFT_TO_RIGHT_MAX
        elif rl_min_flags(current)[j]:
            kind = StepKind.RIGHT_TO_LEFT_MIN
        else:
            kind = StepKind.VIOLATION
        steps.append((j + 1, moved, kind))
    return tuple(steps)


def level_by_level(n):
    """The generator's earlier order: grow each whole size from the one before."""
    if n == 0:
        return [()]
    level = [(1,)]
    for _ in range(n - 1):
        level = [
            extend_right(parent, slot)
            for parent in level
            for slot in [None] + [i + 1 for i in flag_slots(parent)]
        ]
    return level


class TestDeciders:
    def test_worked_example(self):
        assert is_shallow((4, 2, 1, 6, 3, 5))

    def test_3412_is_not(self):
        assert not is_shallow((3, 4, 1, 2))

    def test_identity(self):
        for n in (0, 1, 3, 6):
            assert is_shallow(identity(n))

    def test_upper_bound_goldens(self):
        assert achieves_upper_bound(identity(4))
        assert not achieves_upper_bound((3, 2, 1))
        assert achieves_upper_bound(())

    def test_size4_set(self):
        expected = set(all_perms(4)) - {(3, 4, 1, 2)}
        assert brute_shallow(4) == expected


class TestOperators:
    def test_r_golden(self):
        assert r_operator((4, 2, 1, 6, 3, 5)) == (4, 2, 1, 5, 3)
        assert r_operator((4, 2, 1, 5, 3)) == (4, 2, 1, 3)

    def test_r_appended_max(self):
        assert r_operator((1, 2, 3, 4)) == (1, 2, 3)

    def test_r_iterated_golden(self):
        p = (4, 9, 3, 2, 8, 7, 1, 6, 5)
        for _ in range(4):
            p = r_operator(p)
        assert p == (4, 5, 3, 2, 1)

    def test_l_golden(self):
        assert l_operator((4, 2, 1, 6, 3, 5)) == (1, 3, 5, 2, 4)
        assert l_operator((3, 1, 2)) == (2, 1)
        assert l_operator((1, 2, 3, 4)) == (1, 2, 3)

    def test_too_small(self):
        for op in (r_operator, l_operator):
            with pytest.raises(SizeTooSmall):
                op((1,))
            with pytest.raises(SizeTooSmall):
                op(())

    # The lemmas behind the class walks, each checked over S_n for n <= 9.

    def test_l_is_r_conjugated(self):
        # s∘R∘s = L for s = reverse_complement and reverse_complement_inverse.
        kinds = (SymmetryKind.REVERSE_COMPLEMENT, SymmetryKind.REVERSE_COMPLEMENT_INVERSE)
        for n in range(2, 10):
            for p in all_perms(n):
                left = l_operator(p)
                for kind in kinds:
                    assert apply_symmetry(r_operator(apply_symmetry(p, kind)), kind) == left

    def test_r_commutes_with_inverse(self):
        for n in range(2, 10):
            for p in all_perms(n):
                inv = apply_symmetry(p, SymmetryKind.INVERSE)
                assert apply_symmetry(r_operator(inv), SymmetryKind.INVERSE) == r_operator(p)

    def test_l_and_r_commute(self):
        for n in range(3, 10):
            for p in all_perms(n):
                assert l_operator(r_operator(p)) == r_operator(l_operator(p))

    def test_321_avoiders_have_321_avoiding_parents(self):
        for n in range(2, 10):
            for p in all_perms(n):
                if is_shallow(p) and find_occurrence(p, P321) is None:
                    assert find_occurrence(r_operator(p), P321) is None, p

    def test_operators_shrink_by_one(self):
        for p in all_perms(5):
            assert len(r_operator(p)) == 4
            assert len(l_operator(p)) == 4


class TestCertificates:
    def test_worked_example_detail(self):
        cert = certify_shallow((4, 2, 1, 6, 3, 5))
        assert cert.verdict
        assert len(cert.steps) == 5
        first = cert.steps[0]
        assert first.position_of_max == 4
        assert first.moved_value == 5
        assert first.classification is StepKind.LEFT_TO_RIGHT_MAX

    def test_violation_recorded(self):
        cert = certify_shallow((3, 4, 1, 2))
        assert not cert.verdict
        assert any(s.classification is StepKind.VIOLATION for s in cert.steps)

    def test_trivial_sizes(self):
        for subject in ((), (1,)):
            cert = certify_shallow(subject)
            assert cert.verdict
            assert cert.steps == ()

    def test_agrees_with_decider(self):
        for n in range(7):
            for p in all_perms(n):
                assert certify_shallow(p).verdict == is_shallow(p)

    def test_replay_reconstructs_subject(self):
        # Holds for shallow and non-shallow subjects alike.
        for n in range(7):
            for p in all_perms(n):
                assert replay_certificate(certify_shallow(p)) == p

    @given(
        st.integers(0, 30).flatmap(lambda n: st.permutations(range(1, n + 1))).map(tuple)
    )
    @example((4, 2, 1, 6, 3, 5))
    @example((3, 4, 1, 2))
    def test_random_replay_and_verdict(self, p):
        cert = certify_shallow(p)
        assert cert.steps == reference_certificate(p)
        assert replay_certificate(cert) == p
        assert cert.verdict == is_shallow(p)

    def test_tie_break_prefers_lr_max(self):
        # In 12 the moved value 1 is both kinds of extreme.
        cert = certify_shallow((2, 1))
        assert cert.steps[0].classification is StepKind.LEFT_TO_RIGHT_MAX

    def test_step_invariants(self):
        for p in all_perms(6):
            cert = certify_shallow(p)
            assert cert.verdict == (
                not any(s.classification is StepKind.VIOLATION for s in cert.steps)
            )
            for step in cert.steps:
                assert (step.moved_value is None) == (
                    step.classification is StepKind.APPENDED_MAX
                )

    def test_large_words_match_the_definitions(self):
        rng = random.Random(20240611)
        sizes = [10, 17, 30, 55, 100, 180, 320, 500, 1000, 2000]
        words = [grown(rng, n) for n in sizes]
        words += [tuple(rng.sample(range(1, n + 1), n)) for n in sizes]
        for p in words:
            cert = certify_shallow(p)
            assert cert.steps == reference_certificate(p), p
            assert replay_certificate(cert) == p
            assert cert.verdict == is_shallow(p)
        assert all(certify_shallow(p).verdict for p in words[: len(sizes)])

    def test_steps_are_hashable_and_read_only(self):
        step = certify_shallow((4, 2, 1, 6, 3, 5)).steps[0]
        assert step == ReductionStep(4, 5, StepKind.LEFT_TO_RIGHT_MAX)
        assert hash(step) == hash((4, 5, StepKind.LEFT_TO_RIGHT_MAX))
        with pytest.raises(AttributeError):
            step.moved_value = 3

    def test_certificates_are_hashable_and_read_only(self):
        p = (4, 2, 1, 6, 3, 5)
        cert = certify_shallow(p)
        assert ShallowCertificate._fields == ("subject", "steps", "verdict")
        assert tuple(cert) == (p, cert.steps, True)
        assert cert == ShallowCertificate(verdict=True, steps=cert.steps, subject=p)
        assert hash(cert) == hash((p, cert.steps, True))
        for name in ShallowCertificate._fields:
            with pytest.raises(AttributeError):
                setattr(cert, name, None)

    def test_replay_rejects_a_legal_step_at_an_illegal_slot(self):
        # 3412 reduces to 321 by moving 2 into slot 2, between 3 and 1.
        cert = certify_shallow((3, 4, 1, 2))
        assert cert.steps[0] == (2, 2, StepKind.VIOLATION)
        for kind in (StepKind.LEFT_TO_RIGHT_MAX, StepKind.RIGHT_TO_LEFT_MIN):
            steps = (cert.steps[0]._replace(classification=kind),) + cert.steps[1:]
            with pytest.raises(IllegalSlot) as exc:
                replay_certificate(cert._replace(steps=steps))
            message = str(exc.value)
            assert "left-to-right" in message and "right-to-left" in message

    def test_replay_rejects_a_wrong_moved_value(self):
        cert = certify_shallow((4, 2, 1, 6, 3, 5))
        for k, step in enumerate(cert.steps):
            if step.moved_value is None:
                continue
            wrong = step._replace(moved_value=step.moved_value % 6 + 1)
            steps = cert.steps[:k] + (wrong,) + cert.steps[k + 1:]
            with pytest.raises(ValueError, match="certificate step expects"):
                replay_certificate(cert._replace(steps=steps))

    def test_replay_rejects_a_slot_outside_the_word(self):
        # Slot 0 would index from the end and rebuild 3214.
        cert = certify_shallow((3, 4, 1, 2))
        steps = (ReductionStep(0, 1, StepKind.VIOLATION),) + cert.steps[1:]
        with pytest.raises(IllegalSlot, match="position 0 outside 1..3"):
            replay_certificate(cert._replace(steps=steps))

    def test_replay_rejects_steps_of_another_subject(self):
        cert = certify_shallow((2, 1, 3))._replace(subject=(1, 2, 3))
        with pytest.raises(ValueError, match=r"replays to \(2, 1, 3\), not its subject"):
            replay_certificate(cert)

    def test_certify_and_replay_are_linear(self):
        # Each takes O(n): on 2 cores (Python 3.11) this word took 0.09 s to
        # certify and 0.12 s to replay. The quadratic certify and replay
        # took 2.2 s together at 10,000 entries, so about 55 s here.
        p = tuple(random.Random(50000).sample(range(1, 50001), 50000))
        start = time.perf_counter()
        assert replay_certificate(certify_shallow(p)) == p
        assert time.perf_counter() - start < 5

    def test_replay_rejects_an_extra_appended_step(self):
        # 12 reduces to 1 in one step; a second step rebuilds 123.
        step = ReductionStep(2, None, StepKind.APPENDED_MAX)
        cert = ShallowCertificate((1, 2), (step, step._replace(position_of_max=1)), True)
        with pytest.raises(ValueError, match=r"replays to \(1, 2, 3\), not its subject"):
            replay_certificate(cert)

    def test_replay_rejects_a_step_on_a_singleton(self):
        cert = ShallowCertificate((1,), (ReductionStep(1, None, StepKind.APPENDED_MAX),), True)
        with pytest.raises(ValueError, match=r"replays to \(1, 2\), not its subject"):
            replay_certificate(cert)

    @pytest.mark.parametrize("kind", [StepKind.VIOLATION, StepKind.RIGHT_TO_LEFT_MIN])
    def test_replay_rejects_a_relabelled_legal_step(self, kind):
        # Step 1 of 421635 moves 5 into slot 4 of 42153, where it is a
        # left-to-right maximum and not a right-to-left minimum.
        cert = certify_shallow((4, 2, 1, 6, 3, 5))
        steps = (cert.steps[0]._replace(classification=kind),) + cert.steps[1:]
        with pytest.raises(ValueError, match=r"step 1 is \(4, 5, .*LEFT_TO_RIGHT_MAX\)") as exc:
            replay_certificate(cert._replace(steps=steps))
        assert not isinstance(exc.value, IllegalSlot)

    def test_replay_rejects_a_wrong_verdict(self):
        cert = certify_shallow((2, 1))._replace(verdict=False)
        with pytest.raises(ValueError, match="verdict is False, but .* has True"):
            replay_certificate(cert)

    def test_replay_rejects_every_one_field_tamper(self):
        # Each step's slot, moved value or kind changed to any other value,
        # or the verdict flipped: 74,526 variants over S_0..S_6.
        variants = 0
        for n in range(7):
            values = range(n + 2)
            for p in all_perms(n):
                cert = certify_shallow(p)
                tampered = [cert._replace(verdict=not cert.verdict)]
                for k, step in enumerate(cert.steps):
                    a, v, kind = step
                    changes = [step._replace(position_of_max=b) for b in values if b != a]
                    changes += [
                        step._replace(moved_value=u) for u in (None, *values) if u != v
                    ]
                    changes += [
                        step._replace(classification=c) for c in StepKind if c is not kind
                    ]
                    tampered += [
                        cert._replace(steps=cert.steps[:k] + (c,) + cert.steps[k + 1:])
                        for c in changes
                    ]
                for bad in tampered:
                    # IllegalSlot is a ValueError; any other type escapes.
                    with pytest.raises(ValueError):
                        replay_certificate(bad)
                variants += len(tampered)
        assert variants == 74526

    def test_step_kinds_match_flag_definitions(self):
        for n in range(8):
            for p in all_perms(n):
                assert certify_shallow(p).steps == reference_certificate(p), p


class TestExactness:
    """Pins of outputs that no change may move."""

    def test_generator_order_hash(self):
        h = hashlib.sha256()
        for w in generate_shallow(10):
            h.update(repr(w).encode())
        assert h.hexdigest() == (
            "5a275cbec7c2d115cded094a2b3cc80e77d316a013c24c0d4bd965285984c654"
        )

    def test_certificate_hash(self):
        h = hashlib.sha256()
        for n in range(9):
            for p in all_perms(n):
                h.update(repr(certify_shallow(p)).encode())
        assert h.hexdigest() == (
            "108d8318f8b567f5c8ae9dff01bc23378fa6c36a8d67bc4c8dbb3f39db4ac31e"
        )


class TestExtension:
    def test_golden(self):
        assert extend_right((4, 2, 1, 5, 3), 4) == (4, 2, 1, 6, 3, 5)

    def test_append(self):
        assert extend_right((3, 2, 1)) == (3, 2, 1, 4)

    def test_rl_min_slot(self):
        assert extend_right((1, 2), 1) == (3, 2, 1)

    def test_illegal_slot_reports_both_failures(self):
        with pytest.raises(IllegalSlot) as exc:
            extend_right((4, 2, 1, 5, 3), 2)
        message = str(exc.value)
        assert "left-to-right" in message and "right-to-left" in message

    def test_position_out_of_range(self):
        with pytest.raises(IllegalSlot):
            extend_right((2, 1), 3)

    def test_round_trip_all_slots(self):
        # Every slot of every word of S_0..S_7 is legal exactly when the flag
        # definitions say so; a legal one reduces back, and an illegal one
        # names the larger entry before it and the smaller one after it.
        for n in range(8):
            for t in all_perms(n):
                if t:
                    assert r_operator(extend_right(t)) == t
                lr, rl = lr_max_flags(t), rl_min_flags(t)
                for i in range(n):
                    if lr[i] or rl[i]:
                        assert r_operator(extend_right(t, i + 1)) == t
                        continue
                    with pytest.raises(IllegalSlot) as exc:
                        extend_right(t, i + 1)
                    message = str(exc.value)
                    assert f"({max(t[:i])} precedes it)" in message
                    assert f"({min(t[i + 1:])} follows it)" in message


class TestGenerator:
    def test_counts(self):
        assert [sum(1 for _ in generate_shallow(n)) for n in range(8)] == [
            1, 1, 2, 6, 23, 103, 511, 2719,
        ]

    def test_matches_brute_force(self):
        for n in range(7):
            emitted = list(generate_shallow(n))
            assert len(emitted) == len(set(emitted))
            assert set(emitted) == brute_shallow(n)

    def test_every_emission_is_shallow(self):
        assert all(is_shallow(p) for p in generate_shallow(8))

    def test_exactly_once_at_9(self):
        emitted = list(generate_shallow(9))
        assert len(emitted) == len(set(emitted)) == 88197

    def test_base_cases(self):
        assert list(generate_shallow(0)) == [()]
        assert list(generate_shallow(1)) == [(1,)]

    def test_negative(self):
        with pytest.raises(ValueError):
            list(generate_shallow(-1))

    def test_order_matches_level_by_level(self):
        for n in range(10):
            assert list(generate_shallow(n)) == level_by_level(n), n

    def test_slot_scan_matches_the_flags(self):
        for n in range(10):
            for t, slots in shallow._walk(n):
                assert slots == flag_slots(t), t
        for n in range(9):
            for t in all_perms(n):
                slots = flag_slots(t)
                expected = [extend_right(t, None)] + [extend_right(t, i + 1) for i in slots]
                assert list(shallow._extensions(t)) == expected, t

    def test_memory_does_not_grow_with_class_size(self):
        tracemalloc.start()
        try:
            for _ in generate_shallow(9):
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_first_emission_expands_at_most_n_words(self, monkeypatch):
        # The walk recurses through the module's name, so each size's words
        # are counted. The whole tree, the kernel route and the 321 tree
        # each reach their first leaf through one word of each smaller size.
        walk = shallow._walk
        walked = []

        def counting(n, pick=None):
            for t, slots in walk(n, pick):
                walked.append(t)
                yield t, slots

        monkeypatch.setattr(shallow, "_walk", counting)
        # Each stream is lazy, so none walks before its first next.
        for stream in (
            generate_shallow(12),
            enumeration._words(12, (classical((1, 3, 2)),), None, Method.CONSTRUCTIVE),
            generate_321_avoiding(12),
        ):
            walked.clear()
            assert next(iter(stream)) == identity(12)
            assert 0 < len(walked) <= 12


class TestClassWalks:
    """Each class walk yields its class of shallow words exactly once."""

    def test_walks_match_the_filtered_generator(self):
        # The 321 and involution trees are pruned generator trees, so their
        # words also come in generator order.
        for n in range(11):
            expected = {name: [] for name in CLASS_WALKS}
            for p in generate_shallow(n):
                for name, (_, member) in CLASS_WALKS.items():
                    if member(p):
                        expected[name].append(p)
            for name, (walk, _) in CLASS_WALKS.items():
                walked = list(walk(n))
                assert len(walked) == len(set(walked)), (name, n)
                assert sorted(walked) == sorted(expected[name]), (name, n)
                if name in ("321", "involution"):
                    assert walked == expected[name], (name, n)

    def test_walks_match_brute_force(self):
        # Membership from the definitions: a class is the words its symmetry
        # fixes, and 321 is searched for by find_occurrence.
        definitions = {
            "321": lambda p: find_occurrence(p, P321) is None,
            **{cls.value: lambda p, kind=kind: apply_symmetry(p, kind) == p
               for cls, kind in CLASS_KIND.items()},
        }
        for n in range(10):
            shallow_words = [p for p in all_perms(n) if is_shallow(p)]
            for name, (walk, _) in CLASS_WALKS.items():
                expected = [p for p in shallow_words if definitions[name](p)]
                assert sorted(walk(n)) == expected, (name, n)

    def test_counts_at_12(self):
        assert [sum(1 for _ in walk(12)) for walk, _ in CLASS_WALKS.values()] == [
            28657, 15511, 4713, 13021,
        ]

    def test_memory_does_not_grow_with_class_size(self):
        for name, (walk, _) in CLASS_WALKS.items():
            tracemalloc.start()
            try:
                for _ in walk(11):
                    pass
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024, name

    def test_negative(self):
        for walk, _ in CLASS_WALKS.values():
            with pytest.raises(ValueError):
                list(walk(-1))


class TestWrap:
    def test_goldens(self):
        assert wrap_n1((1,)) == (3, 2, 1)
        assert wrap_n1((1, 2)) == (4, 2, 3, 1)
        assert wrap_n1((3, 4, 1, 2)) == (6, 4, 5, 2, 3, 1)
        assert not is_shallow((6, 4, 5, 2, 3, 1))

    def test_preserves_shallowness_exactly(self):
        for n in range(6):
            for p in all_perms(n):
                assert is_shallow(wrap_n1(p)) == is_shallow(p)


class TestClosures:
    def test_direct_sum_of_shallow_is_shallow(self):
        for a in range(5):
            for b in range(5):
                for p in generate_shallow(a):
                    for q in generate_shallow(b):
                        assert is_shallow(direct_sum(p, q))

    def test_decreasing_is_shallow(self):
        for n in range(13):
            assert is_shallow(decreasing(n))

    def test_decreasing_block_families(self):
        for i in range(4):
            for j in range(4):
                assert is_shallow(
                    skew_sum((2, 1), direct_sum(decreasing(i), decreasing(j)))
                )
                assert is_shallow(
                    skew_sum(decreasing(i), direct_sum(identity(1), decreasing(j)))
                )
                assert is_shallow(
                    skew_sum(decreasing(i), direct_sum(decreasing(j), identity(1)))
                )
