"""Minimal public-key infrastructure for cross-enterprise trust.

The paper assumes every workflow participant owns a key pair whose
public half the other parties can authenticate.  We make that trust
root explicit: a :class:`CertificateAuthority` (one per enterprise, or a
shared one) issues :class:`Certificate` objects binding an identity to a
public key, and a :class:`KeyDirectory` resolves identities to verified
public keys during document verification.

Certificates are deliberately simple (no X.509 encoding) but carry the
semantically important fields: subject, public key, issuer, serial,
validity window, and the CA signature over a canonical byte encoding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..errors import CertificateError, ReproError
from .backend import CryptoBackend, default_backend
from .keys import KeyPair, public_key_from_dict, public_key_to_dict
from .pure.rsa import RsaPublicKey

__all__ = ["Certificate", "CertificateAuthority", "KeyDirectory"]


@dataclass(frozen=True)
class Certificate:
    """An identity certificate: ``subject``'s key vouched for by ``issuer``."""

    subject: str
    public_key: RsaPublicKey
    issuer: str
    serial: int
    not_before: float
    not_after: float
    signature: bytes

    def tbs_bytes(self) -> bytes:
        """The canonical to-be-signed encoding of the certificate body."""
        body = {
            "subject": self.subject,
            "public_key": public_key_to_dict(self.public_key),
            "issuer": self.issuer,
            "serial": self.serial,
            "not_before": self.not_before,
            "not_after": self.not_after,
        }
        return json.dumps(body, sort_keys=True, separators=(",", ":")).encode()

    def to_dict(self) -> dict[str, object]:
        """JSON-safe serialization."""
        return {
            "subject": self.subject,
            "public_key": public_key_to_dict(self.public_key),
            "issuer": self.issuer,
            "serial": self.serial,
            "not_before": self.not_before,
            "not_after": self.not_after,
            "signature": self.signature.hex(),
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "Certificate":
        """Deserialize the output of :meth:`to_dict`."""
        return cls(
            subject=str(data["subject"]),
            public_key=public_key_from_dict(data["public_key"]),  # type: ignore[arg-type]
            issuer=str(data["issuer"]),
            serial=int(data["serial"]),  # type: ignore[arg-type]
            not_before=float(data["not_before"]),  # type: ignore[arg-type]
            not_after=float(data["not_after"]),  # type: ignore[arg-type]
            signature=bytes.fromhex(str(data["signature"])),
        )


class CertificateAuthority:
    """Issues and verifies identity certificates.

    Parameters
    ----------
    name:
        The issuer string embedded in every certificate.
    keypair:
        CA signing key; generated when omitted.
    """

    def __init__(self, name: str, keypair: KeyPair | None = None,
                 backend: CryptoBackend | None = None,
                 public_key: RsaPublicKey | None = None) -> None:
        self.name = name
        self.backend = backend or default_backend()
        if public_key is not None:
            # Verification-only anchor: can check certificates but
            # never issue them (the auditor's view of a foreign CA).
            if keypair is not None:
                raise CertificateError(
                    "pass either a keypair or a public key, not both"
                )
            self.keypair = None
            self._public_key = public_key
        else:
            self.keypair = keypair or KeyPair.generate(
                name, backend=self.backend
            )
            self._public_key = self.keypair.public_key
        self._next_serial = 1
        self._revoked: set[int] = set()

    @property
    def public_key(self) -> RsaPublicKey:
        """The CA verification key (the trust anchor)."""
        return self._public_key

    @property
    def verification_only(self) -> bool:
        """True when this anchor holds no signing key."""
        return self.keypair is None

    def issue(self, subject: str, public_key: RsaPublicKey,
              not_before: float = 0.0,
              not_after: float = float("inf")) -> Certificate:
        """Issue a certificate binding *subject* to *public_key*."""
        if self.keypair is None:
            raise CertificateError(
                f"CA {self.name!r} is a verification-only anchor and "
                f"cannot issue certificates"
            )
        serial = self._next_serial
        self._next_serial += 1
        unsigned = Certificate(
            subject=subject,
            public_key=public_key,
            issuer=self.name,
            serial=serial,
            not_before=not_before,
            not_after=not_after,
            signature=b"",
        )
        signature = self.backend.sign(self.keypair.private_key,
                                      unsigned.tbs_bytes())
        return Certificate(
            subject=subject,
            public_key=public_key,
            issuer=self.name,
            serial=serial,
            not_before=not_before,
            not_after=not_after,
            signature=signature,
        )

    def revoke(self, serial: int) -> None:
        """Add *serial* to the revocation list."""
        self._revoked.add(serial)

    def is_revoked(self, serial: int) -> bool:
        """Check the revocation list."""
        return serial in self._revoked

    def verify(self, cert: Certificate, at_time: float | None = None) -> None:
        """Verify *cert* against this CA; raise ``CertificateError`` if bad."""
        if cert.issuer != self.name:
            raise CertificateError(
                f"certificate issued by {cert.issuer!r}, not {self.name!r}"
            )
        if cert.serial in self._revoked:
            raise CertificateError(f"certificate serial {cert.serial} revoked")
        if at_time is not None and not (
            cert.not_before <= at_time <= cert.not_after
        ):
            raise CertificateError("certificate outside validity window")
        try:
            self.backend.verify(self.public_key, cert.tbs_bytes(),
                                cert.signature)
        except ReproError as exc:
            raise CertificateError(f"CA signature invalid: {exc}") from exc


class KeyDirectory:
    """Resolves participant identities to CA-verified public keys.

    The directory trusts one or more CAs; a certificate from any trusted
    CA makes its subject resolvable.  This models the cross-enterprise
    setting where each company runs its own CA but all CAs are mutually
    recognised for a given workflow.
    """

    def __init__(self, authorities: list[CertificateAuthority] | None = None) -> None:
        self._authorities: dict[str, CertificateAuthority] = {
            ca.name: ca for ca in (authorities or [])
        }
        self._certs: dict[str, Certificate] = {}

    def trust(self, ca: CertificateAuthority) -> None:
        """Add *ca* to the trusted issuer set."""
        self._authorities[ca.name] = ca

    def register(self, cert: Certificate) -> None:
        """Verify and store *cert*; later lookups return its key."""
        ca = self._authorities.get(cert.issuer)
        if ca is None:
            raise CertificateError(f"untrusted issuer {cert.issuer!r}")
        ca.verify(cert)
        self._certs[cert.subject] = cert

    def enroll(self, keypair: KeyPair, ca_name: str) -> Certificate:
        """Issue (via the named CA) and register a cert for *keypair*."""
        ca = self._authorities.get(ca_name)
        if ca is None:
            raise CertificateError(f"unknown CA {ca_name!r}")
        cert = ca.issue(keypair.identity, keypair.public_key)
        self.register(cert)
        return cert

    def public_key_of(self, identity: str) -> RsaPublicKey:
        """Return the verified public key of *identity*."""
        cert = self._certs.get(identity)
        if cert is None:
            raise CertificateError(f"no certificate for identity {identity!r}")
        ca = self._authorities[cert.issuer]
        if ca.is_revoked(cert.serial):
            raise CertificateError(
                f"certificate for {identity!r} has been revoked"
            )
        return cert.public_key

    def certificate_of(self, identity: str) -> Certificate:
        """Return the stored certificate of *identity*."""
        cert = self._certs.get(identity)
        if cert is None:
            raise CertificateError(f"no certificate for identity {identity!r}")
        return cert

    def identities(self) -> list[str]:
        """All registered identities, sorted."""
        return sorted(self._certs)

    def certificates(self) -> list[Certificate]:
        """All registered certificates (sorted by subject)."""
        return [self._certs[subject] for subject in sorted(self._certs)]

    def authorities(self) -> list[CertificateAuthority]:
        """All trusted CAs (sorted by name)."""
        return [self._authorities[name] for name in
                sorted(self._authorities)]

    def to_public_dict(self) -> dict[str, object]:
        """Verification-only trust snapshot: CA public keys + certs.

        The same shape ``World.to_public_dict`` produces — everything a
        third party (or an archival bundle) needs to verify signatures,
        and never any private key.
        """
        return {
            "authorities": [
                {"name": ca.name,
                 "public_key": public_key_to_dict(ca.public_key)}
                for ca in self.authorities()
            ],
            "certificates": [
                cert.to_dict() for cert in self.certificates()
            ],
        }

    def __contains__(self, identity: str) -> bool:
        return identity in self._certs
