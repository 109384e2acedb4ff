"""Trusted component abstractions: one counter bank (trust-bft ``Append`` and
FlexiTrust ``AppendF`` / ``Create``) and attested logs."""

from .attestation import Attestation, make_attestation, verify_attestation
from .component import TrustedAccessStats, TrustedComponentHost, TrustedSnapshot
from .counter import CREATE_DIGEST, CounterState, TrustedCounterSet
from .log import LogState, TrustedLogSet

__all__ = [
    "Attestation",
    "CREATE_DIGEST",
    "CounterState",
    "LogState",
    "TrustedAccessStats",
    "TrustedComponentHost",
    "TrustedLogSet",
    "TrustedSnapshot",
    "TrustedCounterSet",
    "make_attestation",
    "verify_attestation",
]
