"""Multi-tenant preference serving: profiles, composition, shared views.

The paper's personalization story at production scale.  Each tenant
(user) owns a durable *profile* of named preference terms
(:mod:`repro.tenancy.profiles`); at query time the server composes the
profile term over the submitted base query — ``prio(user_pref,
base_pref)`` — and answers through the ordinary planning pipeline
(:mod:`repro.tenancy.manager`).  Every view spec holds its term's
canonical form (:func:`repro.algebra.equivalence.canonical_form`), so
the thousands of
tenants whose profiles are algebraically equivalent share *one*
continuous view, LRU-bounded with subscription pinning
(:mod:`repro.tenancy.shared`) and measured per tenant
(:mod:`repro.tenancy.metrics`).
"""

from repro.tenancy.manager import TenantManager
from repro.tenancy.metrics import TenantMetrics
from repro.tenancy.profiles import (
    ProfileStore,
    TenancyError,
    TenantProfile,
    valid_tenant,
)
from repro.tenancy.shared import SharedViewIndex

__all__ = [
    "ProfileStore",
    "SharedViewIndex",
    "TenancyError",
    "TenantManager",
    "TenantMetrics",
    "TenantProfile",
    "valid_tenant",
]
