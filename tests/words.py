"""Word helpers shared by the test modules: every word of S_n, shallow
words grown by random right extensions, and the classical specs the tests
avoid."""
import itertools

from shallowperm.patterns import classical
from shallowperm.perms import lr_max_flags, rl_min_flags
from shallowperm.shallow import extend_right

# Built here rather than read from patterns.LENGTH_3: equal to the shared
# specs but not the same objects, so the tests cover specs a caller builds.
P132 = classical((1, 3, 2))
P231 = classical((2, 3, 1))
P321 = classical((3, 2, 1))
P123 = classical((1, 2, 3))
P3412 = classical((3, 4, 1, 2))


def all_perms(n):
    return itertools.permutations(range(1, n + 1))


def flag_slots(t):
    """The 0-based slots of t holding a left-to-right maximum or a
    right-to-left minimum, from the flag definitions."""
    lr, rl = lr_max_flags(t), rl_min_flags(t)
    return [i for i in range(len(t)) if lr[i] or rl[i]]


def grown(rng, n):
    """A shallow word of size n grown by random legal extend_right steps:
    one rng.choice per step, over None and the 1-based flag slots."""
    t = (1,)
    while len(t) < n:
        t = extend_right(t, rng.choice([None] + [i + 1 for i in flag_slots(t)]))
    return t
