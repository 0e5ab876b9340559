"""Machine-checkable nonexistence certificates and their verifier."""

from .engine import Verdict, verify_certificate, verify_inequality_step
from .ineq import IneqClaim, check_ratio_rule, claim_from_json, claim_to_json
from .model import (
    Certificate,
    MalformedCertificateError,
    Node,
    builtin_certificates,
    canonical_json,
    dumps_certificate,
    killing_certificate,
    loads_certificate,
)

__all__ = [
    "Certificate",
    "IneqClaim",
    "MalformedCertificateError",
    "Node",
    "Verdict",
    "builtin_certificates",
    "canonical_json",
    "check_ratio_rule",
    "claim_from_json",
    "claim_to_json",
    "dumps_certificate",
    "killing_certificate",
    "loads_certificate",
    "verify_certificate",
    "verify_inequality_step",
]
