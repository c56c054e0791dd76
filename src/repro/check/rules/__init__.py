"""The simlint rule set (R1-R6)."""

from repro.check.rules.base import FileContext, Finding, Rule
from repro.check.rules.clock import ClockDriftRule
from repro.check.rules.hooks import HookGuardRule
from repro.check.rules.mutation import OptionsMutationRule
from repro.check.rules.ordering import OrderingRule
from repro.check.rules.rng import GlobalRngRule
from repro.check.rules.wallclock import WallClockRule

ALL_RULES: tuple[Rule, ...] = (
    WallClockRule(),
    GlobalRngRule(),
    OrderingRule(),
    HookGuardRule(),
    ClockDriftRule(),
    OptionsMutationRule(),
)

RULES_BY_ID: dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}
