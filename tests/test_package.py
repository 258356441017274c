import importlib
import inspect

import shallowperm

# The names the package root binds, by the module each comes from.
ROOT_API = {
    "enumeration": {
        "Caps", "CountQuery", "Method", "MethodDisagreement", "SizeCapExceeded",
        "count", "profile", "verify",
    },
    "patterns": {"PatternSpec", "avoids", "parse_pattern"},
    "perms": {"format_permutation", "parse_permutation"},
    "series": {"OrderExceeded", "catalog"},
    "shallow": {
        "IllegalSlot", "ReductionStep", "ShallowCertificate", "StepKind", "certify_shallow",
        "extend_right", "generate_shallow", "is_shallow", "replay_certificate",
    },
    "suites": {"SUITES", "run_suite"},
}


def test_root_binds_exactly_the_entry_points():
    bound = {
        name for name, value in vars(shallowperm).items()
        if not (name.startswith("__") and name.endswith("__")) and not inspect.ismodule(value)
    }
    assert len(bound) == 26
    assert bound == set().union(*ROOT_API.values())
    for module, names in ROOT_API.items():
        source = importlib.import_module(f"shallowperm.{module}")
        for name in names:
            assert getattr(shallowperm, name) is getattr(source, name), name
