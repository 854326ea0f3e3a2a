"""Exact census of finite group actions on the projective line and on
elliptic curves over finite fields.

The package approximates statements over an algebraically closed field of
characteristic p by computing over explicit finite levels F_{p^n}: a claim
that infinitely many objects exist becomes the claim that their exact count
grows without bound as n grows.  All arithmetic is exact; all searches are
exhaustive; all reports are deterministic.
"""

from .gfq import field_make
from .moebius import pp1_infinity
from .census import CensusQuery, enum_actions, verify_main_theorem

__all__ = ["field_make", "pp1_infinity", "CensusQuery", "enum_actions", "verify_main_theorem"]

__version__ = "0.1.0"
