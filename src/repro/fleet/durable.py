"""The router's placement table: its pure core and its durability.

The table is the router's only real state -- lose it and every
in-flight job is stranded.  It is a ``Dict[str, dict]`` of entries
``{"runner", "payload", "trace", "done", "status"}`` that only ever
changes by folding a record through :func:`apply_record` -- in the
live router, crash replay, the warm standby's tail loop and tests
alike, so every reader converges on the same state by construction.
:func:`holder`, :func:`inflight_counts`, :func:`orphans` and
:func:`plan_recovery` derive the rest from it: in-flight counts
(undone entries plus open forwards), a lost runner's undone keys, and
what recovery does with each undone entry given one observation.

:class:`RouterJournal` is an append-only JSONL **write-ahead journal**,
one record per mutation (``place`` / ``reroute`` / ``done`` /
``forget``) with a CRC32 over its canonical JSON.  Appends flush to
the OS on every record (a SIGKILL loses nothing) and fsync in batches
(``fsync_batch``) when durability against power loss is on; every
``compact_every`` records the folded table snapshots atomically and
the journal truncates.  Replay is **torn-tolerant**: a record that
fails to parse or its CRC is counted and skipped (a torn *tail* is
the expected artifact of a crash mid-append).  The ``journal.write``
fault site tears live appends on purpose, leaving exactly the bytes a
real crash leaves behind.

:class:`LeaseFile` carries a **monotonic fencing token**: whoever
calls :meth:`LeaseFile.acquire` bumps ``term`` and becomes the writer,
and every append raises :class:`FencedOut` once a newer term exists,
so a stale primary can never corrupt the journal.
"""

from __future__ import annotations

import copy
import json
import logging
import os
import tempfile
import threading
import zlib
from collections import Counter
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro import obs
from repro.resilience import faults

log = logging.getLogger("repro.fleet.durable")

#: bump when the record/snapshot schema changes incompatibly
JOURNAL_FORMAT = 1

#: record operations the reducer understands
JOURNAL_OPS = ("place", "reroute", "done", "forget")

_REC_TOTAL = obs.REGISTRY.counter(
    "repro_journal_records_total",
    "journal records appended, by operation",
    ("op",))
_FSYNCS = obs.REGISTRY.counter(
    "repro_journal_fsyncs_total", "batched fsync calls on the journal")
_COMPACTIONS = obs.REGISTRY.counter(
    "repro_journal_compactions_total",
    "snapshot + truncate compaction passes")
_TORN = obs.REGISTRY.counter(
    "repro_journal_torn_records_total",
    "journal records dropped during replay",
    ("where",))
_WRITE_ERRORS = obs.REGISTRY.counter(
    "repro_journal_write_errors_total",
    "journal appends that failed and were contained")


def durable_enabled() -> bool:
    """``REPRO_DURABLE=1`` turns on fsync-grade durability."""
    return os.environ.get("REPRO_DURABLE", "").strip() == "1"


def record_crc32(record: Dict[str, Any]) -> int:
    """CRC32 over the record's canonical JSON minus the crc field
    (the same self-verification discipline as cache entries)."""
    body = {k: v for k, v in record.items() if k != "crc32"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return zlib.crc32(blob.encode("utf-8")) & 0xFFFFFFFF


def _write_atomic(path: str, payload: Dict[str, Any],
                  fsync: bool) -> None:
    """Replace ``path`` with ``payload`` as JSON (temp file + rename)."""
    fd, tmp = tempfile.mkstemp(prefix=".tmp-",
                               dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if fsync:
        _fsync_dir(path)


def _fsync_dir(path: str) -> None:
    """Best-effort fsync of ``path``'s directory entry."""
    try:
        fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class FencedOut(RuntimeError):
    """The lease moved to a newer term; this writer must stop.

    Raised from :meth:`RouterJournal.append` on a stale primary after
    a standby takeover -- the fencing token makes split-brain writes
    impossible rather than merely unlikely.
    """

    def __init__(self, own_term: int, lease_term: int):
        super().__init__(
            f"journal writer fenced out: holds term {own_term} but the "
            f"lease is at term {lease_term} (a standby took over)")
        self.own_term = own_term
        self.lease_term = lease_term


class LeaseFile:
    """A shared lease file carrying a monotonic fencing token.

    ``acquire`` is *not* a distributed CAS -- the deployment model is
    one designated standby per primary (DESIGN.md §18), so the only
    writers are the primary (at boot) and its standby (at takeover),
    never two racers.  What the token **does** guarantee is that after
    a takeover the old primary's appends are rejected deterministically.
    """

    def __init__(self, path: str):
        self.path = path
        self._cache: Tuple[Optional[Tuple[int, int]], int] = (None, 0)

    def read(self) -> Dict[str, Any]:
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return {"term": 0, "owner": None}
        if not isinstance(data, dict):
            return {"term": 0, "owner": None}
        return data

    def term(self) -> int:
        """The current fencing token (stat-cached: one syscall on the
        journal append hot path, a JSON read only after a change)."""
        try:
            st = os.stat(self.path)
        except OSError:
            return 0
        stamp = (st.st_mtime_ns, st.st_size)
        cached_stamp, cached_term = self._cache
        if stamp == cached_stamp:
            return cached_term
        term = int(self.read().get("term") or 0)
        self._cache = (stamp, term)
        return term

    def acquire(self, owner: str) -> int:
        """Bump the token and record ``owner``; returns the new term."""
        term = int(self.read().get("term") or 0) + 1
        _write_atomic(self.path, {"term": term, "owner": owner}, True)
        self._cache = (None, 0)       # force a re-read next term()
        return term


def apply_record(table: Dict[str, Dict[str, Any]],
                 record: Dict[str, Any]) -> None:
    """Fold one journal record into a placement table.

    The one reducer every reader shares: the live router, crash
    replay, the standby's tail loop and tests all converge on
    identical tables because they all run this exact function.
    ``place`` and ``reroute`` (re)point an entry at a runner, ``done``
    settles it and ``forget`` drops it.  Unknown ops and
    ``done``/``reroute`` for never-placed keys are ignored (their
    ``place`` record may have been torn away; reconciliation handles
    the remainder).
    """
    op = record.get("op")
    key = record.get("key")
    if not isinstance(key, str) or not key:
        return
    if op in ("place", "reroute"):
        entry = table.get(key)
        if entry is None:
            entry = {"runner": None, "payload": None, "trace": None,
                     "done": False, "status": None}
            table[key] = entry
        entry["runner"] = record.get("runner")
        if isinstance(record.get("payload"), dict):
            entry["payload"] = record["payload"]
        if isinstance(record.get("trace"), dict):
            entry["trace"] = record["trace"]
        entry["done"] = bool(record.get("done"))
    elif op == "done":
        entry = table.get(key)
        if entry is not None:
            entry["done"] = True
            entry["status"] = record.get("status")
    elif op == "forget":
        table.pop(key, None)


def holder(entry: Optional[Dict[str, Any]]) -> Optional[str]:
    """The runner an entry holds an in-flight slot on (None once done)."""
    if entry is None or entry.get("done"):
        return None
    return entry.get("runner")


def inflight_counts(table: Mapping[str, Dict[str, Any]],
                    forwards: Optional[Mapping[str, str]] = None
                    ) -> Counter:
    """Each runner's in-flight count: an undone entry counts 1 against
    its runner, an open forward (``key -> target``) 1 against its
    target."""
    counts = Counter(holder(entry) for entry in table.values())
    counts.update((forwards or {}).values())
    counts.pop(None, None)
    return counts


def orphans(table: Mapping[str, Dict[str, Any]], runner: str) -> List[str]:
    """The keys a lost ``runner`` still holds undone."""
    return [key for key, entry in table.items() if holder(entry) == runner]


def plan_recovery(table: Mapping[str, Dict[str, Any]],
                  observations: Mapping[str, Tuple[str, Optional[str]]]
                  ) -> List[Tuple[str, str, Optional[str]]]:
    """Decide what recovery does with every undone entry.

    ``observations`` holds what each undone key's runner answered:
    ``("running", None)``, ``("done", status)`` or ``("lost", None)``
    (a key without one is lost).  Returns ``(key, action, status)`` in
    table order: ``adopt`` (the entry stands), ``settle`` (journal
    ``done``), ``resubmit`` (content-hash idempotency makes that safe)
    or ``forget`` (lost, with no payload to resubmit).
    """
    plan = []
    for key, entry in table.items():
        if entry.get("done"):
            continue
        state, status = observations.get(key, ("lost", None))
        if state == "running":
            action = "adopt"
        elif state == "done":
            action = "settle"
        elif isinstance(entry.get("payload"), dict):
            action = "resubmit"
        else:
            action = "forget"
        plan.append((key, action, status))
    return plan


class RouterJournal:
    """Crash-consistent write-ahead journal for router placements.

    File layout under ``root``::

        <name>.journal.jsonl    append-only records since last snapshot
        <name>.snapshot.json    folded table at a known seq (atomic)
        lease.json              shared fencing lease (all nodes)

    The journal keeps its own folded ``table`` (the reduction of
    snapshot + records) so compaction and the ``tail()`` cursor
    endpoint never re-read the file; memory stays bounded because
    payloads are small validated POST bodies and compaction bounds
    the record list.
    """

    def __init__(self, root: str, name: str = "primary",
                 fsync: Optional[bool] = None, fsync_batch: int = 8,
                 compact_every: int = 512,
                 lease: Optional[LeaseFile] = None):
        self.root = root
        self.name = name
        os.makedirs(root, exist_ok=True)
        self.path = os.path.join(root, f"{name}.journal.jsonl")
        self.snapshot_path = os.path.join(root, f"{name}.snapshot.json")
        self.lease = lease or LeaseFile(os.path.join(root, "lease.json"))
        self.fsync = durable_enabled() if fsync is None else bool(fsync)
        self.fsync_batch = max(1, int(fsync_batch))
        self.compact_every = max(1, int(compact_every))
        self.term = 0
        self.seq = 0                  # last seq written (or adopted)
        self.table: Dict[str, Dict[str, Any]] = {}
        self.torn_tail = 0            # replay: torn records at the tail
        self.torn_mid = 0             # replay: torn records mid-file
        self._fh = None
        self._recent: List[Dict[str, Any]] = []
        self._snapshot_seq = 0
        self._pending_fsync = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Open / replay / recover
    # ------------------------------------------------------------------

    def open(self, acquire_lease: bool = True) -> Dict[str, Dict[str, Any]]:
        """Replay snapshot + journal, compact, start accepting appends.

        With ``acquire_lease`` (a primary) the fencing token is bumped
        so any previous writer is fenced; a standby opens without it
        and only mirrors.  Returns a deep copy of the recovered table:
        the router serves (and reconciles) that copy as its live table.
        """
        with self._lock:
            self._replay_locked()
            if acquire_lease:
                self.term = self.lease.acquire(self.name)
            else:
                self.term = self.lease.term()
            # compact immediately: recovery must never leave a torn
            # tail sitting mid-file once new records append after it
            # (compaction also opens the truncated journal for appends)
            self._compact_locked()
            return copy.deepcopy(self.table)

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                try:
                    self._fh.flush()
                    if self.fsync:
                        os.fsync(self._fh.fileno())
                except (OSError, ValueError):
                    pass
                self._fh.close()
                self._fh = None

    def _replay_locked(self) -> None:
        self.table = {}
        self.seq = 0
        self.torn_tail = self.torn_mid = 0
        snap = self._read_snapshot()
        if snap is not None:
            self.table = snap.get("placements") or {}
            self.seq = int(snap.get("seq") or 0)
        self._snapshot_seq = self.seq
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.read().split("\n")
        except OSError:
            return
        records = [self._decode_record(ln) for ln in lines if ln.strip()]
        for i, record in enumerate(records):
            if record is None:
                if i == len(records) - 1:
                    self.torn_tail += 1
                    _TORN.inc(where="tail")
                else:
                    self.torn_mid += 1
                    _TORN.inc(where="mid")
                continue
            if record["seq"] <= self._snapshot_seq:
                continue              # already folded into the snapshot
            apply_record(self.table, record)
            self.seq = max(self.seq, record["seq"])
        if self.torn_tail or self.torn_mid:
            log.warning(
                "journal %s: dropped %d torn record(s) on replay "
                "(%d at the tail -- expected after a crash)",
                self.path, self.torn_tail + self.torn_mid,
                self.torn_tail)

    @staticmethod
    def _decode_record(line: str) -> Optional[Dict[str, Any]]:
        """One journal line -> record dict, or None when torn/corrupt."""
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            return None
        if not isinstance(record, dict):
            return None
        crc = record.get("crc32")
        if not isinstance(crc, int) or record_crc32(record) != crc:
            return None
        if record.get("op") not in JOURNAL_OPS:
            return None
        try:
            record["seq"] = int(record["seq"])
        except (KeyError, TypeError, ValueError):
            return None
        return record

    def _read_snapshot(self) -> Optional[Dict[str, Any]]:
        try:
            with open(self.snapshot_path, "r", encoding="utf-8") as fh:
                snap = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(snap, dict):
            return None
        crc = snap.get("crc32")
        if not isinstance(crc, int) or record_crc32(snap) != crc:
            log.warning("journal snapshot %s failed its CRC; replaying "
                        "from an empty table", self.snapshot_path)
            return None
        if snap.get("format") != JOURNAL_FORMAT:
            return None
        return snap

    # ------------------------------------------------------------------
    # Append path (primary)
    # ------------------------------------------------------------------

    def append(self, op: str, key: str, **fields: Any) -> Dict[str, Any]:
        """Author one record (primary only; fencing-checked).

        Raises :class:`FencedOut` when the lease moved past our term,
        and :class:`~repro.resilience.faults.InjectedFault` when the
        ``journal.write`` site fires (the record is left *torn on
        disk*, newline-terminated, so replay drops exactly it).
        """
        if op not in JOURNAL_OPS:
            raise ValueError(f"unknown journal op {op!r}")
        with self._lock:
            if self._fh is None:
                raise RuntimeError("journal is not open")
            lease_term = self.lease.term()
            if lease_term != self.term:
                raise FencedOut(self.term, lease_term)
            record = {"seq": self.seq + 1, "term": self.term,
                      "op": op, "key": key}
            record.update(fields)
            record["crc32"] = record_crc32(record)
            line = json.dumps(record, separators=(",", ":"))
            try:
                faults.inject("journal.write")
            except faults.InjectedFault:
                # tear the record the way a crash mid-append would:
                # half the bytes, then a terminator so the next record
                # still parses.  The seq is burnt; replay skips it.
                self._fh.write(line[:max(1, len(line) // 2)] + "\n")
                self._fh.flush()
                self.seq = record["seq"]
                _WRITE_ERRORS.inc()
                raise
            self._write_locked(record, line)
            _REC_TOTAL.inc(op=op)
            return record

    def append_mirror(self, record: Dict[str, Any]) -> None:
        """Replicate a primary-authored record verbatim (standby).

        No fencing check -- mirroring is replication, not authorship;
        the standby adopts the record's own seq/term so its cursor
        stays in the primary's sequence space.
        """
        with self._lock:
            if self._fh is None:
                raise RuntimeError("journal is not open")
            self._write_locked(
                record, json.dumps(record, separators=(",", ":")))

    def _write_locked(self, record: Dict[str, Any], line: str) -> None:
        self._fh.write(line + "\n")
        self._fh.flush()              # -> OS: survives SIGKILL
        self.seq = max(self.seq, int(record.get("seq") or 0))
        self._recent.append(record)
        apply_record(self.table, record)
        if self.fsync:
            self._pending_fsync += 1
            if self._pending_fsync >= self.fsync_batch:
                faults.inject("cache.fsync")
                os.fsync(self._fh.fileno())
                self._pending_fsync = 0
                _FSYNCS.inc()
        if len(self._recent) >= self.compact_every:
            self._compact_locked()

    # ------------------------------------------------------------------
    # Snapshot + compaction
    # ------------------------------------------------------------------

    def compact(self) -> None:
        with self._lock:
            self._compact_locked()

    def _compact_locked(self) -> None:
        snap = {"format": JOURNAL_FORMAT, "seq": self.seq,
                "term": self.term,
                "placements": self.table}
        snap["crc32"] = record_crc32(snap)
        _write_atomic(self.snapshot_path, snap, self.fsync)
        # the snapshot holds everything: truncate the journal
        if self._fh is not None:
            self._fh.close()
        self._fh = open(self.path, "w", encoding="utf-8")
        self._snapshot_seq = self.seq
        self._recent = []
        self._pending_fsync = 0
        _COMPACTIONS.inc()

    def adopt_snapshot(self, table: Dict[str, Dict[str, Any]],
                       seq: int, term: int) -> None:
        """Standby wholesale-adopts the primary's folded table (the
        tail answered ``reset`` because our cursor predated its
        snapshot) and persists it as a local snapshot."""
        with self._lock:
            self.table = copy.deepcopy(table)
            self.seq = int(seq)
            self.term = int(term)
            self._compact_locked()

    def promote(self, owner: Optional[str] = None) -> int:
        """Standby -> primary: take the lease (fencing the old writer)
        and snapshot under the new term.  Returns the new term."""
        term = self.lease.acquire(owner or self.name)
        with self._lock:
            self.term = term
            self._compact_locked()
        return term

    # ------------------------------------------------------------------
    # Tail cursor (the /v1/journal?since= payload)
    # ------------------------------------------------------------------

    def tail(self, since: int) -> Dict[str, Any]:
        """Records past ``since``, or a table reset when the cursor
        predates the last compaction (the records are gone -- the
        folded table *is* their reduction)."""
        with self._lock:
            if since < self._snapshot_seq:
                return {"reset": True, "term": self.term,
                        "next": self.seq,
                        "placements": copy.deepcopy(self.table),
                        "records": []}
            return {"reset": False, "term": self.term,
                    "next": self.seq, "placements": None,
                    "records": [r for r in self._recent
                                if r["seq"] > since]}

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {"seq": self.seq, "term": self.term,
                    "snapshot_seq": self._snapshot_seq,
                    "pending_records": len(self._recent),
                    "placements": len(self.table),
                    "torn_tail": self.torn_tail,
                    "torn_mid": self.torn_mid,
                    "fsync": self.fsync, "path": self.path}
