"""XML security layer: canonicalization, signatures, element-wise encryption.

This is the reproduction of the paper's XML-security substrate (Apache
Santuario + the Java XML DSig API in the original): deterministic
canonicalization so signatures survive serialization, multi-reference
XML signatures that can reference other signatures (the cascade), and
hybrid element-wise encryption with per-reader key wrapping.
"""

from .canonical import canonicalize, parse_xml, to_bytes
from .digest import b64, digest_element, unb64
from .xmldsig import (
    ALG_PKCS1V15,
    ALG_PSS,
    ID_ATTR,
    Reference,
    XmlSignature,
    find_by_id,
    index_by_id,
    sign_references,
)
from .xmlenc import (
    ALG_CTR_HMAC,
    ALG_GCM,
    ENC_TAG,
    DecryptionMemo,
    EncryptedValue,
    decrypt_value,
    encrypt_value,
    is_encrypted_data,
    recipients_of,
)

__all__ = [
    "ALG_CTR_HMAC",
    "ALG_GCM",
    "ALG_PKCS1V15",
    "ALG_PSS",
    "ENC_TAG",
    "ID_ATTR",
    "DecryptionMemo",
    "EncryptedValue",
    "Reference",
    "XmlSignature",
    "b64",
    "canonicalize",
    "decrypt_value",
    "digest_element",
    "encrypt_value",
    "find_by_id",
    "index_by_id",
    "is_encrypted_data",
    "parse_xml",
    "recipients_of",
    "sign_references",
    "to_bytes",
    "unb64",
]
