"""Exception hierarchy for the DRA4WfMS reproduction.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  The hierarchy mirrors the
architectural layers: crypto substrate, XML security, workflow model,
document handling, runtime, and the simulated cloud substrate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


# ---------------------------------------------------------------------------
# Crypto substrate
# ---------------------------------------------------------------------------


class CryptoError(ReproError):
    """Base class for failures in the cryptographic substrate."""


class KeyError_(CryptoError):
    """A key is malformed, of the wrong type, or too small for an operation."""


class SignatureError(CryptoError):
    """A digital signature failed to verify."""


class DecryptionError(CryptoError):
    """Ciphertext could not be decrypted (bad key, padding, or MAC)."""


class CertificateError(CryptoError):
    """An identity certificate is invalid, expired, or untrusted."""


# ---------------------------------------------------------------------------
# XML security layer
# ---------------------------------------------------------------------------


class XmlSecError(ReproError):
    """Base class for XML-security failures."""


class CanonicalizationError(XmlSecError):
    """The XML tree could not be canonicalized."""


class XmlSignatureError(XmlSecError, SignatureError):
    """An XML signature structure is malformed or fails verification."""


class XmlEncryptionError(XmlSecError):
    """An XML encryption structure is malformed or cannot be processed."""


# ---------------------------------------------------------------------------
# Workflow model
# ---------------------------------------------------------------------------


class ModelError(ReproError):
    """Base class for workflow-definition errors."""


class DefinitionError(ModelError):
    """A workflow definition is structurally invalid."""


class ExpressionError(ModelError):
    """A guard expression is malformed or references unknown variables."""


class PolicyError(ModelError):
    """A security policy is inconsistent with the workflow definition."""


# ---------------------------------------------------------------------------
# DRA4WfMS documents
# ---------------------------------------------------------------------------


class DocumentError(ReproError):
    """Base class for DRA4WfMS document errors."""


class DocumentFormatError(DocumentError):
    """A DRA4WfMS document does not follow the required structure."""


class VerificationError(DocumentError):
    """Document verification failed (tampering, bad cascade, bad designer sig)."""


class TamperDetected(VerificationError):
    """Cryptographic evidence that the document was illegally modified."""


class ReplayDetected(VerificationError):
    """A document with an already-used process id was presented again."""


class DeltaError(DocumentError):
    """Base class for delta-routing (manifest/chunk) errors."""


class DeltaMismatch(DeltaError):
    """A reassembled document does not match its manifest digest."""


class ArchiveError(DocumentError):
    """An archival bundle is malformed or fails cold verification."""


# ---------------------------------------------------------------------------
# Runtime (AEA / TFC / router)
# ---------------------------------------------------------------------------


class RuntimeFault(ReproError):
    """Base class for runtime execution errors."""


class AuthorizationError(RuntimeFault):
    """The participant is not the designated executor of the activity."""


class RoutingError(RuntimeFault):
    """Control flow cannot be evaluated or leads nowhere."""


class JoinNotReady(RoutingError):
    """An AND-join was attempted before all incoming branches arrived."""


# ---------------------------------------------------------------------------
# Cloud substrate
# ---------------------------------------------------------------------------


class CloudError(ReproError):
    """Base class for simulated cloud substrate errors."""


class StorageError(CloudError):
    """The simulated HDFS/HBase layer could not complete an operation."""


class RegionError(StorageError):
    """No region (or region server) can serve the requested row."""


class PortalError(CloudError):
    """A portal server rejected the request (auth, missing doc, ...)."""


class DeltaFallbackRequired(PortalError):
    """A delta request cannot be served (unknown manifest or missing
    chunks); the client must fall back to a full-document transfer.

    *missing* names the digests of the chunks a submission referenced
    that the cloud does not hold, so the client can ship them instead.
    """

    def __init__(self, message: str, missing: tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.missing = missing


class FleetError(CloudError):
    """The fleet execution fabric hit an unrecoverable condition."""
