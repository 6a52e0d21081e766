"""Kernel caching: amortizing staging and native compilation.

The paper notes (Section 3.5) that "LMS is not optimized for fast code
generation, which might result in an overhead surpassing the HotSpot
interpretation speed" for light kernels.  The standard mitigation is to
cache compiled kernels under a structural hash of the staged graph, so
re-staging an identical kernel (same intrinsics, same control structure,
same immediates) reuses the compiled artifact.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sysconfig
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts
    fcntl = None  # type: ignore[assignment]

import repro.obs as obs
from repro.core import faults
from repro.core.procutil import pid_alive
from repro.lms.defs import Block, Stm
from repro.lms.expr import Const, Exp, Sym
from repro.lms.staging import StagedFunction

# Every artifact is a CPython extension of this interpreter's ABI.  Read
# once, at import: ``sysconfig`` publishes its config-var cache before it
# fills it, so two threads' first reads (the first builds on two
# background workers) can race and one see no suffix, keying its kernel
# where no other process looks.
_EXT_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX") or ""
# The glue is built against this NumPy's C API headers, and its module
# refuses to load under a NumPy whose ABI they do not match.
_NUMPY_VERSION = np.__version__


def _exp_token(e: Exp) -> str:
    if isinstance(e, Const):
        return f"c:{e.tp.name}:{e.value!r}"
    if isinstance(e, Sym):
        return f"s:{e.id}"
    return f"e:{id(e)}"


def _stm_tokens(stm: Stm, out: list[str]) -> None:
    rhs = stm.rhs
    out.append(f"{stm.sym.id}={type(rhs).__name__}:{rhs.mnemonic}")
    for arg in rhs.args:
        out.append(_exp_token(arg) if isinstance(arg, Exp)
                   else f"i:{arg!r}")
    for block in rhs.blocks:
        out.append("[")
        _block_tokens(block, out)
        out.append("]")


def _block_tokens(block: Block, out: list[str]) -> None:
    for stm in block.stms:
        _stm_tokens(stm, out)
    out.append(f"->{_exp_token(block.result)}")


def graph_hash(staged: StagedFunction) -> str:
    """A structural hash of a staged function.

    Two stagings of the same kernel produce identical SSA numbering
    (the builder is deterministic), so the hash is stable across
    re-staging and across processes.  It hashes the scheduled body,
    which every consumer reads: scheduling rewrites nested blocks of
    ``staged.body`` in place, so a hash of the raw body would give one
    kernel two keys, depending on whether it had been scheduled yet.
    Memoized on the instance, since every cache tier keys on it.
    """
    cached = getattr(staged, "_graph_hash", None)
    if cached is not None:
        return cached
    tokens: list[str] = [staged.name]
    tokens += [f"p:{p.id}:{p.tp.name}" for p in staged.params]
    _block_tokens(staged.scheduled(), tokens)
    digest = hashlib.sha256("\n".join(tokens).encode()).hexdigest()[:24]
    try:
        staged._graph_hash = digest
    except AttributeError:  # pragma: no cover - non-dataclass stand-in
        pass
    return digest


def cache_root() -> Path:
    """The persistent kernel-cache directory.

    ``REPRO_CACHE_DIR`` overrides; otherwise XDG conventions apply
    (``$XDG_CACHE_HOME/repro-kernels``, default ``~/.cache/repro-kernels``).
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-kernels"


@dataclass
class DiskCacheEntry:
    """A validated on-disk artifact: the shared library plus metadata."""

    so_path: Path
    meta: dict


class CacheLockTimeout(OSError):
    """A shard lock could not be acquired within the configured
    timeout and could not be broken as stale.  Subclasses
    :class:`OSError` so disk-cache callers that already absorb I/O
    failures degrade the same way (a wedged cache never blocks
    compilation)."""


def _fsync_dir(path: Path) -> None:
    """fsync a directory so a rename inside it survives power loss.

    Best-effort: some filesystems refuse directory fsync; crash
    consistency then degrades to the filesystem's own ordering.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class _ShardLock:
    """A held per-shard advisory lock (fd + path), released via
    :meth:`release`."""

    __slots__ = ("fd", "path")

    def __init__(self, fd: int, path: Path) -> None:
        self.fd = fd
        self.path = path

    def release(self) -> None:
        if self.fd < 0:
            return
        try:
            if fcntl is not None:
                fcntl.flock(self.fd, fcntl.LOCK_UN)
        except OSError:
            pass
        finally:
            try:
                os.close(self.fd)
            except OSError:
                pass
            self.fd = -1


#: LRU bounds of the cache tiers: kernel handles and compiled simulator
#: programs in process, artifacts on disk.
KERNEL_CACHE_ENTRIES = 256
PROGRAM_CACHE_ENTRIES = 256
DISK_CACHE_ENTRIES = 128
#: Seconds a disk-store operation waits for its shard lock before it
#: breaks a dead owner's lock or gives up.
SHARD_LOCK_TIMEOUT_S = 10.0


class DiskKernelCache:
    """The persistent tier: compiled ``.so`` artifacts on disk,
    crash-consistent and safe under concurrent *processes*.

    Layout (v2, sharded): entries are keyed by ``(emitted C, compiler
    version, flags, ISA set)`` and live under ``root/<key[:2]>/`` —
    256 shards, each with its own ``.lock`` file taken with ``fcntl``
    advisory locks (``flock``), so two processes hammering different
    kernels never serialize on one global lock.

    **Atomic publish, one rename commits.**  ``put`` writes the ``.so``
    payload to a temp file, fsyncs it, renames it to ``<key>.so``, then
    writes the JSON manifest (carrying the SHA-256 checksum) the same
    way and renames it to ``<key>.json`` — fsyncing the shard
    directory after each rename.  The *manifest* rename is the commit
    point: readers resolve entries through the manifest, so an ``.so``
    without one is invisible, and a crash anywhere in the window leaves
    either nothing or an orphaned half that the recovery sweep (and any
    ``get``) deletes.  There is no window in which a reader can observe
    a committed manifest without its library having been fully renamed
    first.

    **Validation on read.**  ``get`` re-hashes the library against the
    manifest checksum under the shard lock; unreadable metadata, a
    missing library, or a mismatch is a silent miss that drops *both*
    halves, forcing a recompile.

    **Recovery sweep.**  Opening the cache sweeps every shard under its
    lock: leftover ``*.tmp`` files, ``.so`` halves without a manifest
    and manifests without (or with unreadable) libraries are deleted.
    Because publishers hold the shard lock for the whole publish, any
    temp file visible under the lock is orphaned by definition.

    **Stale-lock breaking.**  ``flock`` locks die with their holder, so
    a killed publisher never wedges the shard.  If acquisition still
    times out (:data:`SHARD_LOCK_TIMEOUT_S`), the pid stamped into the
    lock file is probed; a dead owner's lock file is broken (unlinked)
    and acquisition retried once, after which :class:`CacheLockTimeout`
    is raised.

    **Lock-held LRU eviction.**  The entry count is bounded across all
    shards (:data:`DISK_CACHE_ENTRIES`), least recently used first.
    ``get`` touches both halves of the entry it serves, so a manifest's
    mtime is its last read (or its publish, if it was never read), and
    eviction drops the oldest manifests shard-by-shard under each
    shard's lock.

    **One build per kernel.**  :meth:`build_lock` serializes the
    compile of one kernel across processes, so processes missing the
    same kernel at once pay for one compile between them.
    """

    def __init__(self, root: str | Path | None = None,
                 max_entries: int | None = None,
                 lock_timeout: float | None = None) -> None:
        self.root = Path(root).expanduser() if root is not None \
            else cache_root()
        self.max_entries = max_entries if max_entries is not None \
            else DISK_CACHE_ENTRIES
        self.lock_timeout = lock_timeout if lock_timeout is not None \
            else SHARD_LOCK_TIMEOUT_S
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        if self.root.is_dir():
            try:
                self.recover()
            except OSError:
                pass

    @staticmethod
    def artifact_key(source_digest: str, compiler_version: str,
                     flags: Iterable[str], isas: Iterable[str]) -> str:
        """The entry key of one build.  ``source_digest`` is the SHA-256
        of the emitted C, which spells out the staged graph, the symbol
        and the glue, so a code-generator change is a miss, not a stale
        hit.  The key carries the interpreter's ``EXT_SUFFIX`` and
        NumPy's version: every artifact is a CPython extension built
        against NumPy's C API, so it is never served to another ABI, and
        a NumPy upgrade is a rebuild."""
        token = "\n".join([source_digest, compiler_version,
                           " ".join(flags), " ".join(sorted(isas)),
                           _EXT_SUFFIX, _NUMPY_VERSION])
        return hashlib.sha256(token.encode()).hexdigest()[:32]

    # -- shard geometry and locking ------------------------------------

    def shard_dir(self, key: str) -> Path:
        return self.root / key[:2]

    def _paths(self, key: str) -> tuple[Path, Path]:
        shard = self.shard_dir(key)
        return shard / f"{key}.so", shard / f"{key}.json"

    def _break_stale(self, lock_path: Path) -> bool:
        """Unlink a lock file whose stamped owner pid is dead.

        With ``flock`` the kernel releases a dead owner's lock, so this
        only triggers for lock files left by foreign locking schemes or
        corrupted stamps — but a chaos-killed publisher must never be
        able to wedge a shard forever, whatever the mechanism.
        """
        try:
            raw = lock_path.read_text().strip()
            pid = int(raw) if raw else -1
        except (OSError, ValueError):
            pid = -1
        if pid > 0 and pid_alive(pid):
            return False
        try:
            lock_path.unlink()
        except OSError:
            return False
        obs.counter("cache.disk.locks_broken")
        return True

    def _acquire_shard_lock(self, shard: Path) -> _ShardLock:
        """Take the shard's advisory lock, bounded by
        ``self.lock_timeout`` and with one stale-break attempt."""
        lock_path = shard / ".lock"
        if fcntl is None:  # pragma: no cover - non-POSIX hosts
            return _ShardLock(-1, lock_path)
        deadline = time.monotonic() + self.lock_timeout
        broke_stale = False
        while True:
            try:
                fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
            except OSError as exc:
                raise CacheLockTimeout(
                    f"cannot open shard lock {lock_path}: {exc}") from exc
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                os.close(fd)
                if time.monotonic() >= deadline:
                    if not broke_stale and self._break_stale(lock_path):
                        broke_stale = True
                        deadline = time.monotonic() + self.lock_timeout
                        continue
                    raise CacheLockTimeout(
                        f"shard lock {lock_path} held for more than "
                        f"{self.lock_timeout}s")
                time.sleep(0.005)
                continue
            # stamp the owner pid for stale-lock diagnosis
            try:
                os.ftruncate(fd, 0)
                os.write(fd, str(os.getpid()).encode())
            except OSError:
                pass
            return _ShardLock(fd, lock_path)

    # -- the read/write surface ----------------------------------------

    def _drop_locked(self, key: str) -> None:
        """Remove both halves of ``key`` (caller holds the shard lock)."""
        for p in self._paths(key):
            try:
                p.unlink()
            except OSError:
                pass

    def _miss(self) -> None:
        self.misses += 1
        obs.counter("cache.disk.misses")

    def get(self, key: str) -> DiskCacheEntry | None:
        with self._lock:
            so_path, meta_path = self._paths(key)
            shard = self.shard_dir(key)
            if not shard.is_dir():
                self._miss()
                return None
            try:
                lock = self._acquire_shard_lock(shard)
            except CacheLockTimeout:
                self._miss()
                return None
            try:
                try:
                    meta = json.loads(meta_path.read_text())
                    blob = so_path.read_bytes()
                except (OSError, ValueError):
                    # torn pair or absent entry: drop whichever half
                    # survives so no future reader sees it
                    self._drop_locked(key)
                    self._miss()
                    return None
                if not isinstance(meta, dict) or \
                        hashlib.sha256(blob).hexdigest() != \
                        meta.get("checksum"):
                    self._drop_locked(key)
                    self._miss()
                    obs.counter("cache.disk.corrupt_dropped")
                    return None
                for p in (so_path, meta_path):
                    try:
                        os.utime(p)  # last read: the LRU eviction rank
                    except OSError:
                        pass
                self.hits += 1
                obs.counter("cache.disk.hits")
                return DiskCacheEntry(so_path=so_path, meta=meta)
            finally:
                lock.release()

    def invalidate(self, key: str) -> None:
        """Remove an entry (e.g. after its artifact was quarantined)."""
        with self._lock:
            shard = self.shard_dir(key)
            if not shard.is_dir():
                return
            lock = self._acquire_shard_lock(shard)
            try:
                self._drop_locked(key)
            finally:
                lock.release()

    def _publish_file(self, target: Path, payload: bytes) -> None:
        """Write-fsync-rename one file into its shard (lock held)."""
        tmp = target.with_name(
            f".{target.name}.{os.getpid()}.{time.monotonic_ns():x}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
        try:
            os.write(fd, payload)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, target)
        _fsync_dir(target.parent)

    def put(self, key: str, so_bytes: bytes, meta: dict) -> Path:
        with self._lock:
            so_path, meta_path = self._paths(key)
            shard = self.shard_dir(key)
            shard.mkdir(parents=True, exist_ok=True)
            meta = dict(meta)
            meta["checksum"] = hashlib.sha256(so_bytes).hexdigest()
            # Injected torn writes / media corruption mangle the payload
            # *after* the checksum is computed, exactly like a real torn
            # write: the manifest promises bytes the disk does not hold,
            # and only get-side validation can catch it.
            payload = faults.corrupt_bytes("disk.partial_write", so_bytes)
            if payload is so_bytes:
                payload = faults.corrupt_bytes("disk.corrupt_blob",
                                               so_bytes)
            lock = self._acquire_shard_lock(shard)
            try:
                self._publish_file(so_path, payload)
                # the torn-publish window: the library is renamed but
                # the manifest — the commit record — is not
                faults.maybe_kill("disk.kill_mid_publish")
                faults.maybe_raise(
                    "disk.torn_publish",
                    message=f"injected crash between publish halves "
                            f"of {key}")
                self._publish_file(meta_path, json.dumps(meta).encode())
            finally:
                lock.release()
            self._evict()
            return so_path

    # -- the build lock ------------------------------------------------

    @contextlib.contextmanager
    def build_lock(self, key: str, deadline: float | None):
        """Hold the build lock of the kernel whose preferred entry is
        ``key``; yields whether it is held.

        Whoever holds it probes the store again and compiles and
        publishes only if the kernel is still missing, so a waiter that
        gets the lock after a holder has published finds the entry.  A
        waiter gives up at ``deadline`` (absolute ``time.monotonic()``;
        ``None`` waits for the holder), and a lock file that cannot be
        opened (a read-only store) is not waited for: both yield
        ``False`` and the caller compiles unlocked.  The wait is the
        ``build_lock`` span.

        The lock is an exclusive ``flock`` on ``<shard>/<key>.build``,
        not the shard ``.lock``, which guards every read and write of
        1/256 of the store and gives up long before a compile ends.  A
        killed holder's lock dies with its process.  The holder unlinks
        the file before it unlocks, so a waiter that then wins the lock
        on the unlinked file sees that the path names another file and
        tries again on that one.
        """
        path = self.shard_dir(key) / f"{key}.build"
        with obs.span("build_lock") as span:
            fd, outcome = self._take_build_lock(path, deadline)
            span.set("outcome", outcome)
        try:
            yield fd >= 0
        finally:
            if fd >= 0:
                try:
                    path.unlink()
                except OSError:
                    pass
                _ShardLock(fd, path).release()

    @staticmethod
    def _take_build_lock(path: Path, deadline: float | None
                         ) -> tuple[int, str]:
        """``(locked fd, "held")``, or ``(-1, "timeout")`` once
        ``deadline`` passes, or ``(-1, "unavailable")`` when ``path``
        cannot be opened or locked."""
        if fcntl is None:  # pragma: no cover - non-POSIX hosts
            return -1, "unavailable"
        while True:
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
            except OSError:
                return -1, "unavailable"
            while True:
                try:
                    fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                    break
                except BlockingIOError:
                    if deadline is not None and \
                            time.monotonic() >= deadline:
                        os.close(fd)
                        return -1, "timeout"
                    time.sleep(0.01)
                except OSError:
                    os.close(fd)
                    return -1, "unavailable"
            try:
                if os.stat(path).st_ino == os.fstat(fd).st_ino:
                    return fd, "held"
            except OSError:
                pass
            os.close(fd)

    # -- eviction and recovery -----------------------------------------

    def _shards(self) -> list[Path]:
        try:
            return sorted(p for p in self.root.iterdir()
                          if p.is_dir() and len(p.name) == 2)
        except OSError:
            return []

    def _count_manifests(self) -> int:
        """A cheap census: manifest names only, no reads, no parsing."""
        total = 0
        for shard in self._shards():
            try:
                total += sum(1 for _ in shard.glob("*.json"))
            except OSError:
                continue
        return total

    def _evict(self) -> None:
        """Bound the manifest count (callers hold ``self._lock``),
        evicting least recently used first: the rank is the manifest
        mtime, which ``put`` sets and ``get`` refreshes, so no manifest
        is read here.

        A name-only census gates the scan, so a store under its bound
        never stats a manifest here (``cache.disk.evict_scans`` counts
        the passes that actually ran).

        Victim selection scans without locks (read-only); each victim
        is then dropped under its shard's lock — a concurrent toucher
        losing an entry costs one recompile, never a torn read.
        """
        if self._count_manifests() <= self.max_entries:
            return
        obs.counter("cache.disk.evict_scans")
        entries: list[tuple[float, Path]] = []
        for shard in self._shards():
            try:
                for meta_path in shard.glob("*.json"):
                    entries.append((meta_path.stat().st_mtime, meta_path))
            except OSError:
                continue
        excess = len(entries) - self.max_entries
        if excess <= 0:
            return
        entries.sort()
        by_shard: dict[Path, list[str]] = {}
        for _mtime, meta_path in entries[:excess]:
            by_shard.setdefault(meta_path.parent, []).append(
                meta_path.stem)
        for shard, keys in by_shard.items():
            try:
                lock = self._acquire_shard_lock(shard)
            except CacheLockTimeout:
                continue
            try:
                for key in keys:
                    self._drop_locked(key)
                    obs.counter("cache.disk.evictions")
            finally:
                lock.release()

    def recover(self) -> dict[str, int]:
        """Sweep every shard for crash debris: orphaned temp files, torn
        pairs (either half without a readable other half) and build-lock
        files no process holds (a killed holder's).

        Runs under each shard's lock, so an in-flight publish in
        another process is never mistaken for debris.  Returns the
        counts of removed entry debris (freed build-lock files hold no
        data and only join the ``cache.disk.recovered`` counter); also
        invoked on cache open.
        """
        removed = {"tmp": 0, "orphan_so": 0, "orphan_meta": 0}
        freed_locks = 0
        for shard in self._shards():
            try:
                lock = self._acquire_shard_lock(shard)
            except CacheLockTimeout:
                continue
            try:
                try:
                    names = {p.name for p in shard.iterdir()}
                except OSError:
                    continue
                for name in names:
                    if name.endswith(".tmp"):
                        try:
                            (shard / name).unlink()
                            removed["tmp"] += 1
                        except OSError:
                            pass
                    elif name.endswith(".build"):
                        freed_locks += self._unlink_free_build_lock(
                            shard / name)
                for name in sorted(names):
                    if name.endswith(".so") and \
                            f"{name[:-3]}.json" not in names:
                        try:
                            (shard / name).unlink()
                            removed["orphan_so"] += 1
                        except OSError:
                            pass
                    elif name.endswith(".json"):
                        key = name[:-5]
                        meta_ok = True
                        try:
                            meta = json.loads((shard / name).read_text())
                            meta_ok = isinstance(meta, dict)
                        except (OSError, ValueError):
                            meta_ok = False
                        if not meta_ok or f"{key}.so" not in names:
                            # unlink shard-locally, not via the key's
                            # canonical shard — a misfiled entry must be
                            # deleted where it was found
                            for half in (shard / name,
                                         shard / f"{key}.so"):
                                try:
                                    half.unlink()
                                except OSError:
                                    pass
                            removed["orphan_meta"] += 1
            finally:
                lock.release()
        swept = sum(removed.values()) + freed_locks
        if swept:
            obs.counter("cache.disk.recovered", swept)
        return removed

    @staticmethod
    def _unlink_free_build_lock(path: Path) -> bool:
        """Unlink the build-lock file ``path`` if no process holds it.

        It is unlinked while locked, as :meth:`build_lock`'s holder
        unlinks it, so a waiter that opened it re-checks the inode and
        retries on a new file; and only if ``path`` still names the
        file locked, not a new holder's.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX hosts
            return False
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return False
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            if os.stat(path).st_ino != os.fstat(fd).st_ino:
                return False
            path.unlink()
            return True
        except OSError:     # held (BlockingIOError), or already gone
            return False
        finally:
            os.close(fd)

    def __len__(self) -> int:
        # shard census: only two-character shard directories hold entries
        return self._count_manifests()


class KernelCache:
    """The in-process tier of the kernel cache.

    Keys combine the structural graph hash with the requested backend,
    so forcing the simulator does not serve a native kernel (or vice
    versa).  Get/put are thread-safe; entries are LRU-bounded.  A miss
    is counted when ``get_for`` comes back empty (the caller will
    compile); ``put_for`` only stores.  The ``disk`` property exposes
    the persistent artifact tier rooted at the current ``cache_root()``.
    """

    def __init__(self, maxsize: int = KERNEL_CACHE_ENTRIES) -> None:
        self._kernels: OrderedDict[tuple[str, str], object] = OrderedDict()
        self._maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._disk: DiskKernelCache | None = None

    @property
    def disk(self) -> DiskKernelCache:
        with self._lock:
            root = cache_root()
            if self._disk is None or self._disk.root != root:
                self._disk = DiskKernelCache(root=root)
            return self._disk

    def get_for(self, staged: StagedFunction, backend: str):
        key = (graph_hash(staged), backend)
        with self._lock:
            kernel = self._kernels.get(key)
            if kernel is None:
                self.misses += 1
            else:
                self.hits += 1
                self._kernels.move_to_end(key)
        obs.counter("cache.mem.hits" if kernel is not None
                    else "cache.mem.misses")
        return kernel

    def put_for(self, staged: StagedFunction, backend: str,
                kernel: object) -> None:
        key = (graph_hash(staged), backend)
        with self._lock:
            self._kernels[key] = kernel
            self._kernels.move_to_end(key)
            while len(self._kernels) > self._maxsize:
                self._kernels.popitem(last=False)

    def discard(self, kernel: object) -> None:
        """Drop every entry that holds ``kernel`` (by identity): a
        managed kernel whose compile demoted or was cancelled, so the
        same graph staged again compiles instead of being served the
        simulated handle for good."""
        with self._lock:
            for key in [k for k, v in self._kernels.items()
                        if v is kernel]:
                del self._kernels[key]

    def clear(self) -> None:
        """Drop the in-memory tier (the disk tier is untouched)."""
        with self._lock:
            self._kernels.clear()
            self.hits = 0
            self.misses = 0
            self._disk = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._kernels)


class ProgramCache:
    """In-process memo of closure-compiled simulator programs.

    Keyed by structural graph hash alone (unlike :class:`KernelCache`
    there is no backend dimension — a compiled program is the simulator
    backend).  Re-staging an identical kernel, a benchmark sweep over
    sizes, or a smoke-run against a fresh ``SimdMachine`` all reuse one
    program; entries are LRU-bounded (:data:`PROGRAM_CACHE_ENTRIES`).
    """

    def __init__(self, maxsize: int = PROGRAM_CACHE_ENTRIES) -> None:
        self._programs: OrderedDict[str, object] = OrderedDict()
        self._maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def get(self, staged: StagedFunction):
        key = graph_hash(staged)
        with self._lock:
            program = self._programs.get(key)
            if program is None:
                self.misses += 1
            else:
                self.hits += 1
                self._programs.move_to_end(key)
        obs.counter("cache.program.hits" if program is not None
                    else "cache.program.misses")
        return program

    def put(self, staged: StagedFunction, program: object) -> None:
        key = graph_hash(staged)
        with self._lock:
            self._programs[key] = program
            self._programs.move_to_end(key)
            while len(self._programs) > self._maxsize:
                self._programs.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._programs.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._programs)


class CompileJob:
    """One in-flight background native compile: the single-flight unit.

    Every :class:`~repro.core.pipeline.CompiledKernel` that requests
    promotion of the same graph hash while the compile is in flight
    attaches here, and all of them are hot-swapped (or demoted)
    together when the job settles.  ``wait`` blocks callers that need
    the settled tier (``CompiledKernel.wait_native``).
    """

    __slots__ = ("key", "kernels", "future", "outcome", "_done")

    def __init__(self, key: str) -> None:
        self.key = key
        self.kernels: list = []
        self.future = None          # set by the manager after submit
        self.outcome: str | None = None   # "native" | "demoted: ..." |
        #                                   "cancelled"
        self._done = threading.Event()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)

    def finish(self, outcome: str) -> None:
        self.outcome = outcome
        self._done.set()


class InflightCompiles:
    """Single-flight registry of background compiles, keyed by graph
    hash.

    ``join_or_open`` and ``settle`` share one lock, so a kernel either
    lands on the job the worker will settle (and gets swapped with it)
    or opens a fresh job — never the gap in between.  Two threads
    compiling the same graph hash therefore produce exactly one
    compiler-ladder walk.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._jobs: dict[str, CompileJob] = {}

    def join_or_open(self, key: str, kernel) -> tuple[CompileJob, bool]:
        """Attach ``kernel`` to the open job for ``key``, or open a new
        one.  Returns ``(job, owner)``; the owner submits the work."""
        with self._lock:
            job = self._jobs.get(key)
            if job is not None:
                # identity, not ==: kernel equality recurses into
                # staged Exp.__eq__, which *stages* a comparison op
                if kernel is not None and not any(
                        k is kernel for k in job.kernels):
                    job.kernels.append(kernel)
                return job, False
            job = CompileJob(key)
            if kernel is not None:
                job.kernels.append(kernel)
            self._jobs[key] = job
            return job, True

    def settle(self, key: str) -> list:
        """Detach the job for ``key`` and return its kernels.  Later
        ``join_or_open`` calls start a fresh job (which will be served
        by the now-trusted artifact caches)."""
        with self._lock:
            job = self._jobs.pop(key, None)
            return list(job.kernels) if job is not None else []

    def pending(self) -> int:
        with self._lock:
            return len(self._jobs)

    def jobs(self) -> list[CompileJob]:
        """Snapshot of the open jobs (for abandoned-work accounting)."""
        with self._lock:
            return list(self._jobs.values())


default_cache = KernelCache()
program_cache = ProgramCache()
