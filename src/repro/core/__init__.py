"""The paper's contribution: off-path DNS-based time-shifting attacks on NTP.

The package is organised along the attack pipeline of the paper:

* :mod:`repro.core.attacker` — the off-path attacker's resources (a querying
  host, a pool of addresses, malicious NTP servers with a shifted clock),
* :mod:`repro.core.checksum_fix` — crafting a replacement second fragment
  whose ones'-complement sum matches the original so the UDP checksum in the
  (untouched) first fragment still verifies (section III-3),
* :mod:`repro.core.ipid_prediction` — sampling and extrapolating the
  nameserver's IPID sequence (section III-2),
* :mod:`repro.core.fragment_attack` — the DNS defragmentation-cache
  poisoning primitive that injects attacker A records for ``pool.ntp.org``
  into a victim resolver (section III),
* :mod:`repro.core.rate_limit_abuse` and :mod:`repro.core.server_discovery`
  — removing a victim client's existing associations by abusing NTP server
  rate limiting, and discovering which servers to attack (section IV-B),
* :mod:`repro.core.boot_time`, :mod:`repro.core.run_time`,
  :mod:`repro.core.chronos_attack` — the end-to-end attack orchestrations of
  sections IV-A, IV-B and VI-C,
* :mod:`repro.core.probability` — the analytic success-probability model
  behind Table III, with a Monte-Carlo cross-check.
"""

from repro.core.attacker import Attacker, AttackerResources
from repro.core.checksum_fix import (
    craft_matching_fragment,
    checksum_correction,
    apply_correction,
)
from repro.core.ipid_prediction import IPIDPredictor, IPIDObservation
from repro.core.fragment_attack import (
    DNSFragmentPoisoner,
    PoisoningPlan,
    PoisoningOutcome,
)
from repro.core.rate_limit_abuse import AssociationRemover, RemovalCampaign
from repro.core.server_discovery import discover_via_refid_leak
from repro.core.boot_time import BootTimeAttack, BootTimeAttackResult
from repro.core.run_time import RunTimeAttack, RunTimeAttackResult, RunTimeScenario
from repro.core.chronos_attack import (
    ChronosAttack,
    ChronosAttackResult,
    max_honest_lookups_tolerated,
)
from repro.core.probability import (
    probability_scenario1,
    probability_scenario2,
    required_removals,
    table3_rows,
    monte_carlo_scenario1,
    monte_carlo_scenario2,
)

__all__ = [
    "Attacker",
    "AttackerResources",
    "craft_matching_fragment",
    "checksum_correction",
    "apply_correction",
    "IPIDPredictor",
    "IPIDObservation",
    "DNSFragmentPoisoner",
    "PoisoningPlan",
    "PoisoningOutcome",
    "AssociationRemover",
    "RemovalCampaign",
    "discover_via_refid_leak",
    "BootTimeAttack",
    "BootTimeAttackResult",
    "RunTimeAttack",
    "RunTimeAttackResult",
    "RunTimeScenario",
    "ChronosAttack",
    "ChronosAttackResult",
    "max_honest_lookups_tolerated",
    "probability_scenario1",
    "probability_scenario2",
    "required_removals",
    "table3_rows",
    "monte_carlo_scenario1",
    "monte_carlo_scenario2",
]
