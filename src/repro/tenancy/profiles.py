"""Durable per-tenant preference profiles.

A *profile* is the serving-layer identity of one user: a key-value store
of named preference terms in the JSON wire format of
:mod:`repro.engineering.serialization` (the shape of LiuXin's DBPrefs
store), plus an optional default term name and a monotone version stamp.
Profiles persist through the same :class:`~repro.storage.binding
.CatalogStorage` write-ahead-log / snapshot path as relations and
continuous views, so they survive a server crash and restart.

Terms are validated at *write* time (a profile entry that cannot
deserialize would otherwise poison every later query) and deserialized
lazily at *resolve* time through a bounded per-(tenant, term) cache valid
for one profile revision — a hot tenant's term decodes once per profile
revision, not once per query, and every query of that revision gets the
*same* ``Preference`` object, whose signature the normal-form memo
(:func:`repro.algebra.rewriter.normalize`) has already seen.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.core.preference import Preference
from repro.engineering.serialization import (
    SerializationError,
    preference_from_dict,
)

#: Decoded (tenant, term) -> Preference entries kept before the coldest
#: is dropped; re-decoding is cheap, unbounded growth is not.
_RESOLVE_CACHE_CAP = 4096


class TenancyError(ValueError):
    """A tenant request the tenancy layer cannot honor (unknown tenant or
    term, malformed profile payload, exhausted quota).

    Protocol-visible: the server maps these to error responses, exactly
    like :class:`~repro.server.service.ServiceError`.
    """


def valid_tenant(tenant: Any) -> str:
    """The tenant id, validated: a non-empty printable string."""
    if not isinstance(tenant, str) or not tenant or len(tenant) > 256:
        raise TenancyError(
            f"tenant must be a non-empty string (<=256 chars), got {tenant!r}"
        )
    return tenant


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's stored preference terms (immutable snapshot)."""

    tenant: str
    terms: dict[str, dict[str, Any]] = field(default_factory=dict)
    default: str | None = None
    version: int = 0

    def to_dict(self) -> dict[str, Any]:
        """The JSON-safe durable form (also the wire form)."""
        return {
            "tenant": self.tenant,
            "terms": {name: dict(term) for name, term in self.terms.items()},
            "default": self.default,
            "version": self.version,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TenantProfile":
        return cls(
            tenant=str(data["tenant"]),
            terms={
                str(name): dict(term)
                for name, term in dict(data.get("terms") or {}).items()
            },
            default=data.get("default"),
            version=int(data.get("version") or 0),
        )

    def summary(self) -> dict[str, Any]:
        """The compact envelope responses carry (no term bodies)."""
        return {
            "tenant": self.tenant,
            "terms": sorted(self.terms),
            "default": self.default,
            "version": self.version,
        }


class ProfileStore:
    """All tenant profiles of one service, durable when storage is.

    Thread-safe; every mutation bumps the tenant's profile version by
    exactly one (a :meth:`merge` of many terms is one revision — live
    subscriptions migrate once, not once per term).
    """

    def __init__(
        self,
        binding: Any = None,
        functions: Mapping[str, Any] | None = None,
    ):
        self._binding = binding
        self._functions = dict(functions or {})
        self._lock = threading.RLock()
        self._profiles: dict[str, TenantProfile] = {}
        #: (tenant, term-name) -> (the profile snapshot the term was
        #: decoded from, decoded Preference)
        self._resolved: dict[
            tuple[str, str], tuple[TenantProfile, Preference]
        ] = {}
        if binding is not None:
            for payload in binding.pending_profiles():
                try:
                    profile = TenantProfile.from_dict(payload)
                except Exception:
                    continue  # a malformed record must not block recovery
                self._profiles[profile.tenant] = profile

    def __len__(self) -> int:
        with self._lock:
            return len(self._profiles)

    # -- reads ------------------------------------------------------------

    def get(self, tenant: str) -> TenantProfile | None:
        with self._lock:
            return self._profiles.get(valid_tenant(tenant))

    def tenants(self) -> list[str]:
        with self._lock:
            return sorted(self._profiles)

    def resolve(
        self, tenant: str, term: str | None = None
    ) -> Preference | None:
        """The tenant's named (or default) term as a live ``Preference``.

        ``None`` when the tenant has no profile or no default; naming a
        term the profile does not hold raises :class:`TenancyError` (a
        typo must not silently serve unpersonalized answers).
        """
        # No lock is waited on: the server resolves on its event loop, and
        # a profile write holds the lock across its WAL append.  Reads
        # are single dict lookups of immutable snapshots — every write
        # installs a new TenantProfile — and a cached term is valid only
        # for the very snapshot it was decoded from.
        profile = self._profiles.get(valid_tenant(tenant))
        if profile is None:
            if term is not None:
                raise TenancyError(f"tenant {tenant!r} has no profile")
            return None
        name = term if term is not None else profile.default
        if name is None:
            return None
        data = profile.terms.get(name)
        if data is None:
            raise TenancyError(
                f"tenant {tenant!r} has no profile term {name!r}; "
                f"available: {sorted(profile.terms)}"
            )
        cached = self._resolved.get((tenant, name))
        if cached is not None and cached[0] is profile:
            return cached[1]
        pref = self._decode(data)
        if self._lock.acquire(blocking=False):  # busy: cache it next time
            try:
                if self._profiles.get(tenant) is profile:
                    if len(self._resolved) >= _RESOLVE_CACHE_CAP:
                        self._resolved.pop(next(iter(self._resolved)))
                    self._resolved[(tenant, name)] = (profile, pref)
            finally:
                self._lock.release()
        return pref

    def _decode(self, data: Mapping[str, Any]) -> Preference:
        try:
            return preference_from_dict(dict(data), self._functions)
        except SerializationError as exc:
            raise TenancyError(f"bad profile term: {exc}") from exc

    # -- writes -----------------------------------------------------------

    def set(
        self,
        tenant: str,
        name: str,
        prefer: Mapping[str, Any],
        default: bool = False,
    ) -> TenantProfile:
        """Store (or replace) one named term; bumps the profile version.

        The first term a tenant stores becomes the default unless one is
        already set; ``default=True`` re-points the default explicitly.
        """
        tenant = valid_tenant(tenant)
        if not isinstance(name, str) or not name:
            raise TenancyError(f"term name must be a non-empty string, got {name!r}")
        payload = dict(prefer)
        self._decode(payload)  # validate before persisting
        with self._lock:
            old = self._profiles.get(tenant) or TenantProfile(tenant)
            terms = dict(old.terms)
            terms[name] = payload
            chosen = old.default
            if default or chosen is None:
                chosen = name
            profile = TenantProfile(tenant, terms, chosen, old.version + 1)
            self._store(profile)
        return profile

    def merge(
        self,
        tenant: str,
        terms: Mapping[str, Mapping[str, Any]],
        default: str | None = None,
    ) -> TenantProfile:
        """Upsert many terms in one profile revision (one version bump)."""
        tenant = valid_tenant(tenant)
        if not terms and default is None:
            raise TenancyError("merge needs terms and/or a default")
        validated = {}
        for name, term in dict(terms).items():
            if not isinstance(name, str) or not name:
                raise TenancyError(
                    f"term name must be a non-empty string, got {name!r}"
                )
            payload = dict(term)
            self._decode(payload)
            validated[name] = payload
        with self._lock:
            old = self._profiles.get(tenant) or TenantProfile(tenant)
            merged = {**old.terms, **validated}
            chosen = default if default is not None else old.default
            if chosen is None and merged:
                chosen = sorted(validated)[0] if validated else None
            if chosen is not None and chosen not in merged:
                raise TenancyError(
                    f"default term {chosen!r} is not among the profile's "
                    f"terms {sorted(merged)}"
                )
            profile = TenantProfile(tenant, merged, chosen, old.version + 1)
            self._store(profile)
        return profile

    def delete(
        self, tenant: str, name: str | None = None
    ) -> TenantProfile | None:
        """Drop one named term (``name``) or the whole profile (``None``).

        Returns the surviving profile, or ``None`` when the profile is
        gone.  Deleting the default term clears the default.
        """
        tenant = valid_tenant(tenant)
        with self._lock:
            old = self._profiles.get(tenant)
            if old is None:
                raise TenancyError(f"tenant {tenant!r} has no profile")
            if name is None:
                del self._profiles[tenant]
                self._drop_resolved(tenant)
                if self._binding is not None:
                    self._binding.forget_profile(tenant)
                return None
            if name not in old.terms:
                raise TenancyError(
                    f"tenant {tenant!r} has no profile term {name!r}"
                )
            terms = {k: v for k, v in old.terms.items() if k != name}
            chosen = old.default if old.default != name else None
            profile = TenantProfile(tenant, terms, chosen, old.version + 1)
            self._store(profile)
        return profile

    def _store(self, profile: TenantProfile) -> None:
        self._profiles[profile.tenant] = profile
        self._drop_resolved(profile.tenant)
        if self._binding is not None:
            self._binding.record_profile(profile.to_dict())

    def _drop_resolved(self, tenant: str) -> None:
        for key in [k for k in self._resolved if k[0] == tenant]:
            del self._resolved[key]
