"""Crash-safe on-disk checkpoints of in-flight timing simulations.

A checkpoint is the byte-exact :meth:`repro.timing.gpu.GPU.snapshot`
payload wrapped in a small self-validating container::

    magic (10 B) | version (4 B big-endian) | sha256(payload) (32 B) | payload

The checksum makes a torn or bit-rotted file *detectably* invalid rather
than a source of silently-wrong resumed results: :func:`read_checkpoint`
raises :class:`CheckpointError` on any mismatch, and resume paths treat
that exactly like "no checkpoint" (start from cycle zero).

Writes are crash-safe the same way the result cache is: the container is
written to ``{path}.tmp.{pid}`` and atomically renamed into place, so a
reader can never observe a half-written checkpoint under the final name.
Interrupting a write (including ``KeyboardInterrupt``) removes the
temporary file; orphans from a hard kill are reaped by
:func:`repro.harness.parallel.reap_stale_tmp`.
"""

from __future__ import annotations

import hashlib
import os
import struct
from typing import Union

from repro.timing.gpu import GPU

#: container magic — bumped only if the container layout itself changes
CHECKPOINT_MAGIC = b"REPROCKPT\n"
#: payload format version: bump whenever the pickled simulator state is
#: not expected to round-trip across code revisions
CHECKPOINT_VERSION = 2

_HEADER = struct.Struct(">I")
_DIGEST_SIZE = hashlib.sha256().digest_size


class CheckpointError(RuntimeError):
    """The checkpoint file is missing, torn, corrupt, or incompatible."""


def write_checkpoint(path: Union[str, "os.PathLike[str]"], gpu: GPU) -> int:
    """Atomically write ``gpu``'s snapshot to ``path``; returns the size.

    The temporary file is cleaned up on *any* interruption (exceptions
    and ``KeyboardInterrupt``/``SystemExit`` alike) so a cancelled write
    leaves neither a partial checkpoint nor tmp litter behind.
    """
    payload = gpu.snapshot()
    blob = (
        CHECKPOINT_MAGIC
        + _HEADER.pack(CHECKPOINT_VERSION)
        + hashlib.sha256(payload).digest()
        + payload
    )
    path = os.fspath(path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return len(blob)


def read_checkpoint(path: Union[str, "os.PathLike[str]"]) -> GPU:
    """Validate and reconstitute the checkpoint at ``path``.

    Raises :class:`CheckpointError` for every way the file can be bad —
    unreadable, truncated, wrong magic, unknown version, checksum
    mismatch, or an unpicklable payload — so callers need exactly one
    except clause to fall back to a fresh run.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    prefix = len(CHECKPOINT_MAGIC) + _HEADER.size + _DIGEST_SIZE
    if len(blob) < prefix:
        raise CheckpointError(f"checkpoint {path} is truncated ({len(blob)} bytes)")
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"checkpoint {path} has wrong magic")
    (version,) = _HEADER.unpack_from(blob, len(CHECKPOINT_MAGIC))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has version {version}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    digest_off = len(CHECKPOINT_MAGIC) + _HEADER.size
    digest = blob[digest_off:prefix]
    payload = blob[prefix:]
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointError(f"checkpoint {path} failed checksum validation")
    try:
        return GPU.restore(payload)
    except CheckpointError:
        raise
    except Exception as exc:  # corrupt-but-checksummed can't happen; stale classes can
        raise CheckpointError(f"checkpoint {path} failed to deserialize: {exc}") from exc
