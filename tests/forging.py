"""Forged checkpoint containers: an edited header or array section sealed
with a matching length field and SHA-256 trailer, so that the container
checks pass and only the schema checks stand between it and the model."""

import hashlib
import json
import struct

from artinv import dataio

HEAD_LEN = len(dataio.MAGIC) + struct.calcsize("<HI")


def unseal(raw: bytes) -> tuple[dict, bytes]:
    """The JSON header and the raw array section of checkpoint bytes."""
    _, length = struct.unpack_from("<HI", raw, len(dataio.MAGIC))
    return json.loads(raw[HEAD_LEN:HEAD_LEN + length]), raw[HEAD_LEN + length:-32]


def seal(header, data: bytes) -> bytes:
    """Checkpoint bytes holding ``header`` and the array section ``data``."""
    header_bytes = json.dumps(header).encode()
    body = dataio.MAGIC + struct.pack("<HI", dataio.FORMAT_VERSION, len(header_bytes)) + header_bytes + data
    return body + hashlib.sha256(body).digest()
