"""The provenance hash: sha256 of a document's canonical JSON.

sha256 comes from the interpreter's built-in module (``_sha2`` from
CPython 3.12, ``_sha256`` before), which gives hashlib's digest without
mapping OpenSSL's libcrypto (~3.4 MiB) into a command that hashes a
scenario or an array. hashlib is the fallback on an interpreter that
has neither.
"""

import json

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256


def canonical_hash(document):
    """Hex sha256 of ``document`` as JSON with sorted keys and no spaces."""
    blob = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()
