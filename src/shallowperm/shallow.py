"""Shallowness deciders, the size-reducing right/left operators, and the
constructive generator.

A permutation is shallow when it meets the lower Diaconis-Graham bound,
i.e. its inversion number plus its reflection length equals its total
displacement. The recursive characterization used throughout works by
removing the largest value: write n's trailing companion into n's slot,
drop the last entry, and require the relocated value to be a left-to-right
maximum or right-to-left minimum of the smaller word. Running that rule
until nothing is left yields a replayable certificate; running it backwards
generates every shallow permutation of the next size exactly once.
"""
from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .perms import (
    Perm,
    SymmetryClass,
    cycle_count,
    inversion_count,
    is_in_class,
    lr_max_flags,
    reduce_word,
    reverse_complement,
    rl_min_flags,
    total_displacement,
)


class SizeTooSmall(ValueError):
    """The reducing operators need at least two entries."""


class IllegalSlot(ValueError):
    """The requested extension slot is neither kind of extreme entry."""


def is_shallow(p: Perm) -> bool:
    """True when inversions plus reflection length meet the displacement."""
    return (
        inversion_count(p) + len(p) - cycle_count(p) == total_displacement(p)
    )


def achieves_upper_bound(p: Perm) -> bool:
    """True when the displacement equals twice the inversion number."""
    return total_displacement(p) == 2 * inversion_count(p)


def _reduce(p: Perm, size: int) -> tuple[list[int], list[tuple[int, int | None]]]:
    """
    Right-operator steps on p until size entries are left. The word is kept
    1-based in a list w (w[0] is unused) beside its inverse at, so each step
    pops the last entry, reads the maximum's slot from at, writes the entry
    there and updates at, in O(1). Returns w and each step's 1-based slot
    and the value moved into it (None when the maximum was last).
    """
    w = [0, *p]
    at = [0] * len(w)
    for i, v in enumerate(p, 1):
        at[v] = i
    trace: list[tuple[int, int | None]] = []
    for k in range(len(p), size, -1):
        last = w.pop()
        if last == k:
            trace.append((k, None))
        else:
            j = at[k]
            w[j] = last
            at[last] = j
            trace.append((j, last))
    return w, trace


def r_operator(p: Perm) -> Perm:
    """
    Remove the largest value from the right end of the word.

    If p ends with its maximum, drop it; otherwise overwrite the maximum
    with the last entry and drop the last entry. The result is one shorter.

    >>> r_operator((4, 2, 1, 6, 3, 5))
    (4, 2, 1, 5, 3)
    """
    if len(p) < 2:
        raise SizeTooSmall("need at least 2 entries")
    w, _ = _reduce(p, len(p) - 1)
    return tuple(w[1:])


def l_operator(p: Perm) -> Perm:
    """
    The mirror reduction acting on the left end and the value 1.

    If p starts with 1, drop it and renumber; otherwise overwrite the 1
    with the first entry, drop the first entry, and renumber.

    >>> l_operator((4, 2, 1, 6, 3, 5))
    (1, 3, 5, 2, 4)
    """
    n = len(p)
    if n < 2:
        raise SizeTooSmall("need at least 2 entries")
    if p[0] == 1:
        return reduce_word(p[1:])
    j = p.index(1)
    return reduce_word(p[1:j] + (p[0],) + p[j + 1:])


class StepKind(Enum):
    APPENDED_MAX = "appended_max"
    LEFT_TO_RIGHT_MAX = "left_to_right_max"
    RIGHT_TO_LEFT_MIN = "right_to_left_min"
    VIOLATION = "violation"


_APPENDED_MAX = StepKind.APPENDED_MAX
_LEFT_TO_RIGHT_MAX = StepKind.LEFT_TO_RIGHT_MAX
_RIGHT_TO_LEFT_MIN = StepKind.RIGHT_TO_LEFT_MIN
_VIOLATION = StepKind.VIOLATION


class ReductionStep(NamedTuple):
    """One application of the right operator.

    position_of_max is the 1-based slot of the largest value before the
    step; moved_value is the entry relocated into that slot, or None when
    the maximum was simply dropped from the end. A step is a named tuple,
    so it also compares equal to the plain 3-tuple of its fields.
    """

    position_of_max: int
    moved_value: int | None
    classification: StepKind


class ShallowCertificate(NamedTuple):
    """A replayable trace of right-operator reductions down to size <= 1.

    Like a step, a certificate is a named tuple: read-only, hashable, and
    equal to the plain 3-tuple of its fields.
    """

    subject: Perm
    steps: tuple[ReductionStep, ...]
    verdict: bool


# Builds a step or a certificate from a tuple of its fields, without the
# argument handling of the named tuple's own __new__.
_new = tuple.__new__


def certify_shallow(p: Perm) -> ShallowCertificate:
    """
    Reduce p step by step, classifying each relocated entry.

    The verdict is True exactly when no step moves an entry that is
    neither a left-to-right maximum nor a right-to-left minimum of the
    reduced word. Sizes 0 and 1 are shallow with an empty trace. When a
    relocated entry is both kinds of extreme, it is recorded as a
    left-to-right maximum so traces are deterministic.

    Two passes make this O(n). The first reduces p to one entry (see
    _reduce). The second grows the words back, each smaller word W to the
    next by writing the new maximum into slot a and sending v = W[a] to
    the end, on two increasing stacks: the slots of W's left-to-right
    maxima and the values of its right-to-left minima. The new maximum at
    slot a hides the left-to-right maxima after it, so the first stack
    becomes its slots below a, then a; the moved v at the end hides the
    right-to-left minima above it, so the second becomes its values below
    v, then v; an appended maximum tops both. So slot a is a left-to-right
    maximum of W exactly when it tops the first stack once the larger
    slots are popped, and v is a right-to-left minimum exactly when it
    tops the second once the larger values are popped. Each entry is
    pushed once, so the pops cost O(1) per step amortized.

    >>> certify_shallow((3, 4, 1, 2)).verdict
    False
    """
    # The stacks' tops are kept in lt and rt; a 0 at the bottom stops pops.
    lr = [0]
    rl = [0]
    lt = rt = 1
    steps: list[ReductionStep] = []
    verdict = True
    for a, v in reversed(_reduce(p, 1)[1]):
        if v is None:
            lr.append(lt)
            rl.append(rt)
            lt = rt = a
            steps.append(_new(ReductionStep, (a, None, _APPENDED_MAX)))
            continue
        while lt > a:
            lt = lr.pop()
        while rt > v:
            rt = rl.pop()
        if lt == a:
            kind = _LEFT_TO_RIGHT_MAX
        else:
            lr.append(lt)
            lt = a
            if rt == v:
                kind = _RIGHT_TO_LEFT_MIN
            else:
                kind = _VIOLATION
                verdict = False
        if rt != v:
            rl.append(rt)
            rt = v
        steps.append(_new(ReductionStep, (a, v, kind)))
    steps.reverse()
    return _new(ShallowCertificate, (p, tuple(steps), verdict))


def extend_right(t: Perm, position: int | None = None) -> Perm:
    """
    Invert one right-operator step: the unique word one size larger whose
    reduction is t.

    With position=None the new maximum is appended. Otherwise the entry at
    the 1-based position (which must be a left-to-right maximum or a
    right-to-left minimum of t) is overwritten with the new maximum and
    sent to the end.

    >>> extend_right((4, 2, 1, 5, 3), 4)
    (4, 2, 1, 6, 3, 5)
    """
    m = len(t) + 1
    if position is None:
        return t + (m,)
    if not 1 <= position <= len(t):
        raise IllegalSlot(f"position {position} outside 1..{len(t)}")
    i = position - 1
    v = t[i]
    larger_before = max(t[:i], default=0)
    smaller_after = min(t[i + 1:], default=len(t) + 1)
    if larger_before > v > smaller_after:
        raise IllegalSlot(
            f"entry {v} at position {position} is neither a left-to-right "
            f"maximum ({larger_before} precedes it) nor a right-to-left "
            f"minimum ({smaller_after} follows it)"
        )
    child = [*t, v]
    child[i] = m
    return tuple(child)


def replay_certificate(cert: ShallowCertificate) -> Perm:
    """
    Rebuild the certificate's subject by undoing its steps in reverse on
    one list, and check that it is the certificate of that subject.

    Raises IllegalSlot if a step's slot lies outside the word, and
    ValueError if its moved value disagrees with the word or if the
    rebuilt word is not the subject. The rebuilt word is then certified,
    O(n) in all, and each step's slot, moved value and kind and the verdict
    must match certify_shallow's. A step labelled legal at a violation slot
    raises IllegalSlot naming both failures, as extend_right does; any
    other difference raises ValueError naming the first step that differs.
    """
    subject, steps, verdict = cert
    # Certificates reduce to (1,), or to () for the empty subject, so a
    # wrong step count rebuilds a word of the wrong size.
    w = [1] if subject else []
    for a, v, kind in reversed(steps):
        k = len(w) + 1
        if kind is _APPENDED_MAX:
            w.append(k)
            continue
        if not 1 <= a < k:
            raise IllegalSlot(f"position {a} outside 1..{k - 1}")
        if w[a - 1] != v:
            raise ValueError(
                f"certificate step expects {v} at position {a}, found {w[a - 1]}"
            )
        w.append(v)
        w[a - 1] = k
    word = tuple(w)
    if word != subject:
        raise ValueError(f"certificate replays to {word}, not its subject {subject}")
    _, made, shallow = certify_shallow(word)
    for i, (step, want) in enumerate(zip(steps, made), 1):
        if step != want:
            if want.classification is _VIOLATION:
                # The step is labelled legal at a violation slot: extending
                # the word it reduces to raises the IllegalSlot naming both
                # failures.
                smaller, _ = _reduce(word, len(word) - i)
                extend_right(tuple(smaller[1:]), want.position_of_max)
            given, wanted = (", ".join(map(str, s)) for s in (step, want))
            raise ValueError(
                f"certificate step {i} is ({given}), but the certificate of "
                f"{word} has ({wanted})"
            )
    if verdict != shallow:
        raise ValueError(f"certificate verdict is {verdict}, but {word} has {shallow}")
    return word


Pick = Callable[[Perm, list[int]], Iterable[int]]  # see _walk
Kernel = Callable[[Perm], Optional[tuple[int, ...]]]  # see _leaves


def _walk(n: int, pick: Optional[Pick] = None) -> Iterator[tuple[Perm, list[int]]]:
    """
    Yield every shallow word of size n with its slots, in generator order.
    Given pick, walk only a class closed under the right operator: for a
    member t, pick(t, slots) names the indices k into slots, in increasing
    order, of the slots whose children stay in the class (the appended
    child stays exactly when t is in the class, so it always does).

    Each word's slots follow from its parent's, so no word is scanned. For
    the parent t with m = len(t), the appended child keeps every slot (its
    prefix is t) and adds m, which holds the maximum. The child of the
    parent's k-th slot i, holding v = t[i], keeps the slots before i (its
    prefix is unchanged and the values after each of them are those of t
    plus the maximum), keeps i (it now holds the maximum), keeps a later
    slot only as a right-to-left minimum below v (the maximum precedes it
    and v follows it; a later left-to-right maximum of t exceeds v), and
    adds m, the last entry v. test_slot_scan_matches_the_flags checks these
    slots against the flags of each word for n <= 9.
    """
    if n == 0:
        yield (), []
        return
    for t, slots in _walk(n - 1, pick):
        m = len(t)
        yield t + (m + 1,), slots + [m]
        for k in range(len(slots)) if pick is None else pick(t, slots):
            i = slots[k]
            v = t[i]
            child = [*t, v]
            child[i] = m + 1
            yield tuple(child), slots[:k] + [i] + [j for j in slots[k + 1:] if t[j] < v] + [m]


def _leaves(n: int, pick: Optional[Pick] = None, kernels: Iterable[Kernel] = ()) -> Iterator[Perm]:
    """
    The words of size n of _walk's tree, pruned by pick as there, built
    from their parents without their slots. Each kernel searches every
    parent once and returns the values of one occurrence of its classical
    pattern, or None. A parent with an occurrence keeps only the children
    whose slot holds a value of every occurrence found, and a caller still
    tests those (test_route_stream_equals_the_filtered_generator).

    Lemma (test_children_keep_parent_occurrences_off_their_slot): the child
    of t at slot i equals t except at i, which now holds the new maximum,
    and at the new last position. So an occurrence in t that does not use
    position i is one in the child, and the appended child, whose prefix
    is t, keeps every occurrence of t.
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    if n == 0:
        yield ()
        return
    for t, slots in _walk(n - 1, pick):
        if pick is not None:
            slots = [slots[k] for k in pick(t, slots)]
        keep = None  # the values a slot may hold, once an occurrence is found
        for kernel in kernels:
            w = kernel(t)
            if w is not None:
                keep = w if keep is None else [v for v in keep if v in w]
        m = len(t) + 1
        if keep is None:
            yield t + (m,)
        for i in slots:
            v = t[i]
            if keep is None or v in keep:
                child = [*t, v]
                child[i] = m
                yield tuple(child)


def generate_shallow(n: int) -> Iterator[Perm]:
    """
    Yield every shallow permutation of size n exactly once.

    Walks the tree of right-operator reductions depth first from the empty
    word, one generator per size on the path, so O(n) words are held
    however large the class is. Leaves come out in the same order as
    growing the tree level by level. Children of distinct (parent, slot)
    pairs are distinct because each child reduces back to its parent, so
    no deduplication is needed.
    """
    return _leaves(n)


def _right_to_left_maxima(t: Perm, slots: list[int]) -> list[int]:
    """
    The slots of a shallow 321-avoider t whose children avoid 321: those
    holding a right-to-left maximum of t.

    Every entry of a 321-avoider is a left-to-right maximum or a
    right-to-left minimum, since any other entry is the 2 of a 321; so
    slot k is position k. The child at i holds the new maximum at i and
    v = t[i] last. A later entry above v makes a 321 with them. If every
    later entry is below v, they increase (with v they would form a 321
    in t), so no 321 starts at the maximum, and one ending at v would put
    two entries above v before i, a 321 of t with v.
    """
    kept = []
    top = 0
    for i in range(len(t) - 1, -1, -1):
        if t[i] > top:
            top = t[i]
            kept.append(i)
    kept.reverse()
    return kept


def generate_321_avoiding(n: int) -> Iterator[Perm]:
    """
    Yield every shallow 321-avoiding permutation of size n exactly once,
    in generator order, walking only the 321-avoiders' tree.

    The parent of a shallow 321-avoider avoids 321
    (test_321_avoiders_have_321_avoiding_parents): a slot holds a
    left-to-right maximum or a right-to-left minimum, never the 2 of a
    321, so a 321 of a parent survives in each child. So the tree is the
    generator's with every child that contains 321 pruned, and it holds
    O(n) words.
    """
    return _leaves(n, _right_to_left_maxima)


def _fixed_points(t: Perm, slots: list[int]) -> list[int]:
    """
    The slots of an involution t whose children are involutions: those
    holding a fixed point. The child at slot i maps i + 1 to the new
    maximum and the maximum to v = t[i]; it is an involution exactly when
    v = i + 1, and then its other entries are those of t.
    """
    return [k for k, i in enumerate(slots) if t[i] == i + 1]


def _extensions(t: Perm) -> Iterator[Perm]:
    """
    All words one size larger that reduce to t, each exactly once: the
    appended child, then the child of each slot of t, a position holding a
    left-to-right maximum or a right-to-left minimum, in increasing order.
    """
    m = len(t) + 1
    yield t + (m,)
    for i, (lr, rl) in enumerate(zip(lr_max_flags(t), rl_min_flags(t))):
        if lr or rl:
            child = [*t, t[i]]
            child[i] = m
            yield tuple(child)


def _two_step_walk(n: int, cls: SymmetryClass) -> Iterator[Perm]:
    """
    The shallow words of size n fixed by s, the symmetry of cls, walked
    two sizes at a time under R2 = L∘R, with L the left operator.

    s∘R∘s = L (test_l_is_r_conjugated) and L∘R = R∘L
    (test_l_and_r_commute), so s∘R2∘s = R∘L = R2 and R2(u) is s-fixed
    when u is. R2(u) is shallow too: R keeps shallowness, and so does
    L = rc∘R∘rc, since rc does. So every member u of size n >= 2 reduces
    to a member of size n - 2. The words x with L(x) = w are those with
    R(rc(x)) = rc(w), the reverse complements of the children of rc(w),
    so the words u with R2(u) = w are the children of those x, each
    reached once, through x = R(u). Only those in the class are kept.
    """
    if n < 2:
        yield tuple(range(1, n + 1))
        return
    for w in _two_step_walk(n - 2, cls):
        t = reverse_complement(w)
        for c in _extensions(t):
            x = reverse_complement(c)
            for u in _extensions(x):
                if is_in_class(u, cls):
                    yield u


def generate_symmetric(n: int, cls: SymmetryClass) -> Iterator[Perm]:
    """
    Yield every shallow permutation of size n in the symmetry class cls
    exactly once, walking only that class's tree, depth first with O(n)
    words held.

    Involutions come in generator order. Their parents are involutions,
    since R commutes with the inverse (test_r_commutes_with_inverse), so
    their tree is the generator's with the children outside the class
    pruned (see _fixed_points). Centrosymmetric and persymmetric words
    come two sizes at a time, from their own class two sizes down (see
    _two_step_walk).
    """
    if n < 0:
        raise ValueError("size must be nonnegative")
    if cls is SymmetryClass.INVOLUTION:
        return _leaves(n, _fixed_points)
    return _two_step_walk(n, cls)


def wrap_n1(p: Perm) -> Perm:
    """
    Prepend the new maximum and append 1 around a lifted copy of p.

    The result is shallow exactly when p is.

    >>> wrap_n1((1, 2))
    (4, 2, 3, 1)
    """
    n = len(p) + 2
    return (n,) + tuple(v + 1 for v in p) + (1,)
