"""Canonical-JSON SHA-256 digests shared by every report kind.

A report digest pins the exact bytes of a deterministic payload: sorted
keys, compact separators, no float re-formatting.  Every ``*_digest`` field
in the repo's reports is this function over the report minus the digest
field itself (plus any fields compared with tolerance instead).
"""

from __future__ import annotations

import hashlib
import json


def canonical_digest(payload, exclude=()) -> str:
    """SHA-256 over the canonical JSON of ``payload``.

    ``exclude`` names top-level fields to drop before hashing; a dotted
    name (``"manifest.source_digest"``) drops one field of a nested dict.
    """
    if exclude:
        payload = {k: v for k, v in payload.items() if k not in exclude}
        for name in exclude:
            head, _, tail = name.partition(".")
            if tail:
                payload[head] = {k: v for k, v in payload.get(head, {}).items()
                                 if k != tail}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
