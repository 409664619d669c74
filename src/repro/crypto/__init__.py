"""From-scratch cryptography for the reproduction.

Public API: canonical encoding (:func:`encode`), RSA signatures, Shoup-style
threshold RSA, Merkle trees for batch-amortized delivery proofs, and the
pluggable :class:`CryptoProvider` (``RealCrypto`` / ``FastCrypto``) that
protocol code consumes.
"""

from .encoding import EncodingError, digest, encode
from .merkle import merkle_proof, merkle_root, merkle_tree, verify_merkle_proof
from .provider import (
    CryptoProvider,
    FastCrypto,
    RealCrypto,
    Signature,
    ThresholdShare,
    ThresholdSignature,
)
from .rsa import RsaKeyPair, RsaPublicKey, generate_keypair
from .threshold import (
    PartialSignature,
    ThresholdGroup,
    ThresholdKeyShare,
    ThresholdPublicKey,
    generate_threshold_group,
)

__all__ = [
    "EncodingError",
    "digest",
    "encode",
    "merkle_root",
    "merkle_proof",
    "merkle_tree",
    "verify_merkle_proof",
    "CryptoProvider",
    "FastCrypto",
    "RealCrypto",
    "Signature",
    "ThresholdShare",
    "ThresholdSignature",
    "RsaKeyPair",
    "RsaPublicKey",
    "generate_keypair",
    "PartialSignature",
    "ThresholdGroup",
    "ThresholdKeyShare",
    "ThresholdPublicKey",
    "generate_threshold_group",
]
