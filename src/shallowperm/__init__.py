"""Shallow permutations: deciders, generators, pattern checks, and exact
counting oracles for the lower Diaconis-Graham bound. The root binds the
entry points and what they return and raise; import the rest from its module."""

from .enumeration import (
    Caps,
    CountQuery,
    Method,
    MethodDisagreement,
    SizeCapExceeded,
    count,
    profile,
    verify,
)
from .patterns import PatternSpec, avoids, parse_pattern
from .perms import format_permutation, parse_permutation
from .series import OrderExceeded, catalog
from .shallow import (
    IllegalSlot,
    ReductionStep,
    ShallowCertificate,
    StepKind,
    certify_shallow,
    extend_right,
    generate_shallow,
    is_shallow,
    replay_certificate,
)
from .suites import SUITES, run_suite

__version__ = "0.1.0"
