"""The rule registry for ``secz lint``.

Every rule ships as a :class:`repro.lint.walker.Rule` subclass in one
of the modules below and is listed in :data:`ALL_RULES`.  Adding a
rule is three steps (docs/LINTING.md walks through them): write the
class, register it here, add a passing + failing fixture pair under
``tests/lint/fixtures/``.
"""

from __future__ import annotations

from repro.lint.rules.contracts import ExceptionContractRule
from repro.lint.rules.counters import CounterRegistryRule
from repro.lint.rules.crypto import CryptoHygieneRule
from repro.lint.rules.dtype import DtypeDisciplineRule
from repro.lint.rules.formats import FormatSpecRule
from repro.lint.rules.locks import LockDisciplineRule
from repro.lint.rules.spans import SpanRegistryRule
from repro.lint.rules.taint import SecretTaintRule
from repro.lint.walker import Rule

__all__ = ["ALL_RULES", "get_rules", "rule_names"]

#: Every shipped rule class, in reporting order.
ALL_RULES: tuple[type[Rule], ...] = (
    CounterRegistryRule,
    SpanRegistryRule,
    FormatSpecRule,
    CryptoHygieneRule,
    DtypeDisciplineRule,
    ExceptionContractRule,
    SecretTaintRule,
    LockDisciplineRule,
)


def rule_names() -> list[str]:
    return [cls.name for cls in ALL_RULES]


def get_rules(
    enable: list[str] | None = None,
    disable: list[str] | None = None,
) -> list[Rule]:
    """Instantiate the selected rules.

    ``enable`` (when given) restricts the set to exactly those names;
    ``disable`` then removes names from whatever is selected.  Unknown
    names raise ``ValueError`` so typos fail loudly instead of
    silently linting nothing.
    """
    known = {cls.name: cls for cls in ALL_RULES}
    for name in (enable or []) + (disable or []):
        if name not in known:
            raise ValueError(
                f"unknown rule {name!r} (known: {', '.join(sorted(known))})"
            )
    selected = list(enable) if enable else list(known)
    dropped = set(disable or [])
    return [known[name]() for name in selected if name not in dropped]
