"""Word helpers shared by the test modules: every word of S_n, and shallow
words grown by random right extensions."""
import itertools

from shallowperm.perms import lr_max_flags, rl_min_flags
from shallowperm.shallow import extend_right


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
