"""Content-addressed on-disk artifact store for the Sapper toolchain.

The :class:`~repro.toolchain.Toolchain` keys every artifact (compiled
design, optimized module, synthesis report, Verilog text) by structural
identity -- source digest, lattice order, compile flags.  This module
gives those keys a life beyond the process: an :class:`ArtifactStore`
maps a structural key to a file under a content-addressed layout ::

    <root>/<stage>/<digest[:2]>/<digest>.art

where *digest* is the SHA-256 of a canonical encoding of the key, so
two processes (or two machines sharing a directory) agree on the
address without coordination.

Durability discipline -- the store is a cache, never an oracle:

* **Atomic writes.**  Entries are written to a temp file in the target
  directory and published with ``os.replace``; a reader can never see a
  half-written entry under the final name.
* **Versioned header.**  Every entry starts with a magic tag, a format
  version, the payload length, and the SHA-256 of the payload.  A
  version mismatch (an entry written by an older/newer toolchain) is
  *stale*: quarantined and treated as a miss, never parsed.
* **Integrity check.**  The payload hash is verified before a single
  byte reaches the unpickler, so truncated or bit-flipped entries are
  detected structurally, counted, quarantined (moved to ``*.corrupt``,
  one postmortem copy per entry), and recomputed -- a poisoned entry is
  never served.
* **Graceful fallback.**  ``get`` returns the caller's default on any
  problem; ``put`` swallows I/O errors (counting them) so a full disk
  degrades to a smaller cache, not a crashed toolchain.  Only
  construction raises (:class:`StoreError`) -- a store root that cannot
  be created or written is a configuration error the caller must hear
  about.

Keys must be *stable*: tuples of strings, ints, bools, and ``None``.
Identity-based key components (the toolchain's escape hatch for
AST/ProgramInfo sources it cannot digest) are deliberately
non-canonicalizable -- :func:`persistable_key` reports whether a key
can cross a process boundary, and the toolchain keeps such artifacts in
memory only.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import struct
import sys
import tempfile
import threading
from contextlib import contextmanager
from pathlib import Path
from collections.abc import Iterator
from typing import Any


class StoreError(Exception):
    """The store root is unusable (cannot be created, probed, or written)."""


#: Entry header: magic, format version, payload SHA-256, payload length.
STORE_MAGIC = b"RPAS"
STORE_VERSION = 1
_HEADER = struct.Struct(">4sH32sQ")

#: Sentinel distinguishing "miss" from a stored ``None``.
MISS = object()


class UnstableKey:
    """Identity-keyed component: hashable in memory, refused on disk.

    The toolchain uses this for sources it cannot digest structurally
    (e.g. an already-analyzed ``ProgramInfo``).  It canonicalizes to
    nothing -- :func:`persistable_key` returns False for any key that
    contains one -- so such artifacts never leak an ``id()`` into a
    file name that a different process would misinterpret.
    """

    __slots__ = ("oid",)

    def __init__(self, obj: object):
        self.oid = id(obj)

    def __hash__(self) -> int:
        return self.oid

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UnstableKey) and other.oid == self.oid

    def __repr__(self) -> str:
        return f"UnstableKey(0x{self.oid:x})"


def _canon(obj: Any, out: list[bytes]) -> None:
    """Append a canonical, injective encoding of *obj* to *out*."""
    if isinstance(obj, tuple):
        out.append(b"(")
        for item in obj:
            _canon(item, out)
        out.append(b")")
    elif isinstance(obj, bool):  # before int: bool is an int subclass
        out.append(b"b1" if obj else b"b0")
    elif isinstance(obj, int):
        out.append(b"i%d;" % obj)
    elif isinstance(obj, str):
        enc = obj.encode()
        out.append(b"s%d:" % len(enc))
        out.append(enc)
    elif obj is None:
        out.append(b"n")
    else:
        raise TypeError(f"key component {obj!r} has no stable encoding")


def digest_key(key: tuple) -> str:
    """SHA-256 hex digest of the canonical encoding of a structural key."""
    out: list[bytes] = []
    _canon(key, out)
    return hashlib.sha256(b"".join(out)).hexdigest()


def persistable_key(key: tuple) -> bool:
    """True iff *key* is stable across processes (no identity components)."""
    try:
        _canon(key, [])
        return True
    except TypeError:
        return False


@contextmanager
def _pickle_guard() -> Iterator[None]:
    """Deep-IR (de)serialization guard: headroom for nested expression
    trees, and GC paused so allocating a million small nodes does not
    trigger collection sweeps mid-(un)pickle (~2x on large modules)."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 50_000))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        sys.setrecursionlimit(limit)


class ArtifactStore:
    """A content-addressed, crash-safe artifact cache rooted at *root*."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._lock = threading.Lock()
        self.counters: dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "writes": 0,
            "write_errors": 0,
            "corrupt": 0,
            "stale": 0,
        }
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            # probe writability now: a read-only or misconfigured root
            # should fail loudly at construction, not silently degrade
            # every later put()
            fd, probe = tempfile.mkstemp(prefix=".probe-", dir=self.root)
            os.close(fd)
            os.unlink(probe)
        except OSError as exc:
            raise StoreError(
                f"artifact store directory {self.root} is not usable: {exc}"
            ) from exc

    # -- layout ---------------------------------------------------------------

    def path_for(self, key: tuple) -> Path:
        """The entry path for *key* (raises TypeError on unstable keys)."""
        stage = key[0] if isinstance(key[0], str) else "misc"
        digest = digest_key(key)
        return self.root / stage / digest[:2] / f"{digest}.art"

    def _bump(self, counter: str, by: int = 1) -> None:
        with self._lock:
            self.counters[counter] += by

    # -- read side ------------------------------------------------------------

    def get(self, key: tuple, default: Any = None) -> Any:
        """The stored artifact for *key*, or *default*.

        Never raises on bad entries: corrupt or stale files are counted,
        quarantined to ``<entry>.corrupt``, and reported as a miss.
        """
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self._bump("misses")
            return default
        except OSError:
            self._bump("misses")
            return default

        payload = self._check(blob, path)
        if payload is None:
            return default
        try:
            with _pickle_guard():
                value = pickle.loads(payload)
        except Exception:
            # intact hash but unloadable content (e.g. a class whose
            # shape changed without a version bump): corrupt, not fatal
            self._quarantine(path, "corrupt")
            return default
        self._bump("hits")
        return value

    def discard(self, key: tuple) -> None:
        """Quarantine *key*'s entry as corrupt: its payload unpickled but
        the caller could not use it."""
        self._quarantine(self.path_for(key), "corrupt")

    def _check(self, blob: bytes, path: Path) -> bytes | None:
        """Validate header + integrity; quarantine and return None on failure."""
        if len(blob) < _HEADER.size:
            self._quarantine(path, "corrupt")
            return None
        magic, version, digest, length = _HEADER.unpack_from(blob)
        if magic != STORE_MAGIC:
            self._quarantine(path, "corrupt")
            return None
        if version != STORE_VERSION:
            # written by a different toolchain generation: stale, not trusted
            self._quarantine(path, "stale")
            return None
        payload = blob[_HEADER.size:]
        if len(payload) != length or hashlib.sha256(payload).digest() != digest:
            self._quarantine(path, "corrupt")
            return None
        return payload

    def _quarantine(self, path: Path, kind: str) -> None:
        """Move a bad entry aside (one ``.corrupt`` postmortem copy) so
        it is rewritten by the next put and never re-served."""
        self._bump(kind)
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass

    # -- write side -----------------------------------------------------------

    def put(self, key: tuple, value: Any) -> bool:
        """Persist *value* under *key* atomically; False on I/O failure."""
        path = self.path_for(key)
        try:
            with _pickle_guard():
                payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            self._bump("write_errors")
            return False
        header = _HEADER.pack(
            STORE_MAGIC, STORE_VERSION, hashlib.sha256(payload).digest(), len(payload)
        )
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(prefix=".put-", dir=path.parent)
            with os.fdopen(fd, "wb") as fh:
                fh.write(header)
                fh.write(payload)
            os.replace(tmp, path)  # atomic publish: readers see old or new
            tmp = None
        except OSError:
            self._bump("write_errors")
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            return False
        self._bump("writes")
        return True

    # -- introspection --------------------------------------------------------

    def entries(self) -> Iterator[Path]:
        """All live entry files (excluding quarantined postmortems)."""
        yield from self.root.glob("*/*/*.art")

    def entry_count(self) -> int:
        return sum(1 for _ in self.entries())

    def stats(self) -> dict[str, int]:
        with self._lock:
            snap = dict(self.counters)
        snap["entries"] = self.entry_count()
        return snap


def coerce_store(store: ArtifactStore | str | Path | None) -> ArtifactStore | None:
    """Normalize the *store* argument every multi-process entry point
    accepts: an :class:`ArtifactStore` passes through, a path opens (or
    creates) one rooted there, ``None`` stays ``None``.  Fleet workers
    and CLI commands share this so "a directory" is always a valid way
    to name the artifact tier."""
    if store is None or isinstance(store, ArtifactStore):
        return store
    return ArtifactStore(store)
