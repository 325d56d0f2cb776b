"""RouterJournal: replay, CRC, crash points, compaction, fencing.

The property-style tests drive the journal the way a crash does --
truncating the file at arbitrary byte offsets, tearing live appends
with the seeded ``journal.write`` fault -- and assert replay always
converges to the reduction of the records that survived intact.
"""

import json
import os
import random

import pytest

from repro.fleet.durable import (
    FencedOut, LeaseFile, RouterJournal, apply_record, record_crc32,
)
from repro.resilience import FaultPlan, InjectedFault, active_plan


#: journals the running test opened; closed when it ends
_OPENED = []


def journal_at(root, **kwargs):
    """A :class:`RouterJournal` closed when the test ends, as a
    router's shutdown closes its own."""
    journal = RouterJournal(root, **kwargs)
    _OPENED.append(journal)
    return journal


@pytest.fixture(autouse=True)
def close_journals():
    yield
    while _OPENED:
        _OPENED.pop().close()


def read_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def place(journal, i, runner="http://r1", done=False):
    return journal.append(
        "place", f"k{i:02d}",
        runner=runner, payload={"app": "kmeans", "scale": 1.0 + i},
        trace=None, done=done)


def fold(records):
    table = {}
    for record in records:
        apply_record(table, record)
    return table


# ----------------------------------------------------------------------
# Append / replay round trip
# ----------------------------------------------------------------------

class TestRoundTrip:
    def test_replay_reconstructs_the_table(self, tmp_path):
        journal = journal_at(str(tmp_path), compact_every=10_000)
        assert journal.open() == {}
        for i in range(5):
            place(journal, i)
        journal.append("done", "k02", status="succeeded")
        journal.append("reroute", "k03", runner="http://r2",
                       payload={"app": "kmeans", "scale": 4.0},
                       done=False)
        expected = dict(journal.table)
        journal.close()

        fresh = journal_at(str(tmp_path), compact_every=10_000)
        table = fresh.open(acquire_lease=False)
        assert table == expected
        assert table["k02"]["done"] is True
        assert table["k02"]["status"] == "succeeded"
        assert table["k03"]["runner"] == "http://r2"
        assert table["k03"]["done"] is False
        assert fresh.seq == journal.seq
        assert fresh.torn_tail == fresh.torn_mid == 0

    def test_records_and_snapshot_carry_valid_crcs(self, tmp_path):
        journal = journal_at(str(tmp_path), compact_every=10_000)
        journal.open()
        record = place(journal, 0)
        assert record_crc32(record) == record["crc32"]
        journal.close()
        # compact-on-open folds it into a snapshot that is CRC-checked
        # with the same discipline
        journal_at(str(tmp_path)).open(acquire_lease=False)
        snap = read_json(journal.snapshot_path)
        assert record_crc32(snap) == snap["crc32"]
        assert "k00" in snap["placements"]

    def test_unknown_op_is_rejected_at_append(self, tmp_path):
        journal = journal_at(str(tmp_path))
        journal.open()
        with pytest.raises(ValueError):
            journal.append("upsert", "k")
        with pytest.raises(RuntimeError):
            journal_at(str(tmp_path), name="x").append("place", "k")

    def test_reducer_ignores_done_for_unplaced_keys(self):
        table = {}
        apply_record(table, {"op": "done", "key": "ghost"})
        apply_record(table, {"op": "nonsense", "key": "k"})
        apply_record(table, {"op": "place", "key": ""})
        assert table == {}


# ----------------------------------------------------------------------
# Torn records: CRC failures, random crash points
# ----------------------------------------------------------------------

class TestTornRecords:
    def test_corrupt_mid_record_is_skipped_and_counted(self, tmp_path):
        journal = journal_at(str(tmp_path), compact_every=10_000)
        journal.open()
        for i in range(4):
            place(journal, i)
        journal.close()
        lines = read_text(journal.path).splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]       # torn mid-file
        lines[3] = lines[3][:-5]                        # torn tail
        with open(journal.path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

        fresh = journal_at(str(tmp_path), compact_every=10_000)
        table = fresh.open(acquire_lease=False)
        assert set(table) == {"k00", "k02"}
        assert fresh.torn_mid == 1 and fresh.torn_tail == 1

    def test_crc_mismatch_drops_the_record(self, tmp_path):
        journal = journal_at(str(tmp_path), compact_every=10_000)
        journal.open()
        record = place(journal, 0)
        journal.close()
        # flip a payload byte but keep the line well-formed JSON
        tampered = dict(record)
        tampered["runner"] = "http://evil"
        with open(journal.path, "w") as fh:
            fh.write(json.dumps(tampered, separators=(",", ":")) + "\n")
        fresh = journal_at(str(tmp_path), compact_every=10_000)
        assert fresh.open(acquire_lease=False) == {}
        assert fresh.torn_tail == 1

    def test_random_crash_points_always_converge(self, tmp_path):
        """Truncate the journal at 40 seeded byte offsets: replay must
        equal the fold of exactly the records whose bytes survived."""
        journal = journal_at(str(tmp_path / "full"),
                                compact_every=10_000)
        journal.open()
        records = [place(journal, i) for i in range(12)]
        records.append(journal.append("done", "k04", status="succeeded"))
        records.append(journal.append("done", "k09", status="failed"))
        journal.close()
        blob = read_bytes(journal.path)
        rng = random.Random(1234)
        offsets = [len(blob)] + [rng.randrange(1, len(blob))
                                 for _ in range(39)]
        for cut in offsets:
            root = tmp_path / f"crash-{cut}"
            os.makedirs(root)
            with open(root / "primary.journal.jsonl", "wb") as fh:
                fh.write(blob[:cut])
            replayed = journal_at(str(root), compact_every=10_000)
            table = replayed.open(acquire_lease=False)
            survived = blob[:cut].count(b"\n")
            expected = fold(records[:survived])
            assert table == expected, f"crash at byte {cut}"
            assert replayed.torn_mid == 0      # prefix cuts only tails
            assert replayed.torn_tail <= 1


# ----------------------------------------------------------------------
# Seeded journal.write storm: deterministic recovery
# ----------------------------------------------------------------------

class TestFaultStorm:
    def run_storm(self, root, seed):
        journal = journal_at(str(root), compact_every=10_000)
        journal.open()
        torn = []
        with active_plan(FaultPlan(seed=seed, rate=0.3,
                                   sites=("journal.write",))):
            for i in range(20):
                try:
                    place(journal, i)
                except InjectedFault:
                    torn.append(i)
        journal.close()
        replayed = journal_at(str(root), compact_every=10_000)
        return torn, replayed.open(acquire_lease=False), replayed

    def test_same_seed_same_recovered_table(self, tmp_path):
        torn_a, table_a, journal_a = self.run_storm(tmp_path / "a", 7)
        torn_b, table_b, journal_b = self.run_storm(tmp_path / "b", 7)
        assert torn_a and torn_a == torn_b        # the storm fired
        assert table_a == table_b                 # ... identically
        assert journal_a.torn_mid + journal_a.torn_tail == len(torn_a)
        assert set(table_a) == {f"k{i:02d}" for i in range(20)
                                if i not in torn_a}

    def test_different_seed_different_storm(self, tmp_path):
        torn_a, _, _ = self.run_storm(tmp_path / "a", 7)
        torn_b, _, _ = self.run_storm(tmp_path / "b", 8)
        assert torn_a != torn_b

    def test_torn_append_burns_the_seq_but_not_neighbours(self, tmp_path):
        journal = journal_at(str(tmp_path), compact_every=10_000)
        journal.open()
        place(journal, 0)
        with active_plan(FaultPlan(seed=0, rate=1.0,
                                   sites=("journal.write",))):
            with pytest.raises(InjectedFault):
                place(journal, 1)
        record = place(journal, 2)
        assert record["seq"] == 3          # seq 2 burnt by the tear
        journal.close()
        fresh = journal_at(str(tmp_path), compact_every=10_000)
        assert set(fresh.open(acquire_lease=False)) == {"k00", "k02"}


# ----------------------------------------------------------------------
# Snapshot + compaction
# ----------------------------------------------------------------------

class TestCompaction:
    def test_compaction_truncates_and_preserves_state(self, tmp_path):
        journal = journal_at(str(tmp_path), compact_every=4)
        journal.open()
        for i in range(11):
            place(journal, i)
        # every 4th append compacted: the live journal holds < 4 records
        assert len(read_text(journal.path).splitlines()) < 4
        snap = read_json(journal.snapshot_path)
        assert snap["format"] == 1 and len(snap["placements"]) >= 8
        expected = dict(journal.table)
        journal.close()
        fresh = journal_at(str(tmp_path), compact_every=4)
        assert fresh.open(acquire_lease=False) == expected
        assert fresh.seq == 11

    def test_corrupt_snapshot_falls_back_to_empty_replay(self, tmp_path):
        journal = journal_at(str(tmp_path), compact_every=2)
        journal.open()
        for i in range(4):
            place(journal, i)
        journal.close()
        snap = read_json(journal.snapshot_path)
        snap["crc32"] ^= 1
        with open(journal.snapshot_path, "w") as fh:
            json.dump(snap, fh)
        fresh = journal_at(str(tmp_path), compact_every=2)
        # snapshot rejected; only post-snapshot journal records remain
        table = fresh.open(acquire_lease=False)
        assert set(table).issubset({f"k{i:02d}" for i in range(4)})

    def test_tail_serves_records_then_resets_past_compaction(
            self, tmp_path):
        journal = journal_at(str(tmp_path), compact_every=10_000)
        journal.open()
        for i in range(3):
            place(journal, i)
        tail = journal.tail(1)
        assert tail["reset"] is False
        assert [r["key"] for r in tail["records"]] == ["k01", "k02"]
        assert tail["next"] == journal.seq
        journal.compact()
        reset = journal.tail(1)        # cursor predates the snapshot
        assert reset["reset"] is True
        assert set(reset["placements"]) == {"k00", "k01", "k02"}
        assert journal.tail(journal.seq)["records"] == []

    def test_adopt_snapshot_persists_wholesale(self, tmp_path):
        table = {"kx": {"runner": "http://r9", "payload": {"app": "fft"},
                        "trace": None, "done": False, "status": None}}
        journal = journal_at(str(tmp_path), name="standby")
        journal.adopt_snapshot(table, seq=41, term=3)
        journal.close()
        fresh = journal_at(str(tmp_path), name="standby")
        assert fresh.open(acquire_lease=False) == table
        assert fresh.seq == 41


# ----------------------------------------------------------------------
# Lease / fencing
# ----------------------------------------------------------------------

class TestFencing:
    def test_acquire_bumps_a_monotonic_term(self, tmp_path):
        lease = LeaseFile(str(tmp_path / "lease.json"))
        assert lease.term() == 0
        assert lease.acquire("primary") == 1
        assert lease.acquire("standby") == 2
        assert lease.term() == 2
        assert lease.read()["owner"] == "standby"

    def test_stale_primary_append_is_rejected_after_takeover(
            self, tmp_path):
        primary = journal_at(str(tmp_path), name="primary")
        primary.open()
        place(primary, 0)

        standby = journal_at(str(tmp_path), name="standby")
        standby.open(acquire_lease=False)
        term = standby.promote("standby")
        assert term == primary.term + 1

        with pytest.raises(FencedOut) as exc:
            place(primary, 1)
        assert exc.value.own_term == primary.term
        assert exc.value.lease_term == term
        # the fenced append must not have reached the journal
        fresh = journal_at(str(tmp_path), name="primary")
        assert set(fresh.open(acquire_lease=False)) == {"k00"}

    def test_mirroring_is_not_fenced(self, tmp_path):
        primary = journal_at(str(tmp_path), name="primary")
        primary.open()
        record = place(primary, 0)
        standby = journal_at(str(tmp_path), name="standby")
        standby.open(acquire_lease=False)
        standby.append_mirror(record)      # no lease, no FencedOut
        assert standby.table == primary.table
        assert standby.seq == record["seq"]

    def test_reopening_as_primary_fences_the_old_writer(self, tmp_path):
        old = journal_at(str(tmp_path), name="primary")
        old.open()
        place(old, 0)
        new = journal_at(str(tmp_path), name="primary")
        new.open(acquire_lease=True)       # restart on the same journal
        with pytest.raises(FencedOut):
            place(old, 1)
        assert set(new.table) == {"k00"}


# ----------------------------------------------------------------------
# Durability knob
# ----------------------------------------------------------------------

class TestDurable:
    def test_fsync_follows_the_env_knob(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_DURABLE", raising=False)
        assert journal_at(str(tmp_path)).fsync is False
        monkeypatch.setenv("REPRO_DURABLE", "1")
        assert journal_at(str(tmp_path)).fsync is True
        assert journal_at(str(tmp_path), fsync=False).fsync is False

    def test_fsync_batches(self, tmp_path):
        journal = journal_at(str(tmp_path), fsync=True,
                                fsync_batch=3, compact_every=10_000)
        journal.open()
        for i in range(7):
            place(journal, i)
        assert journal._pending_fsync == 1     # 2 batches of 3 flushed
        journal.close()

    def test_fsync_fault_site_fires(self, tmp_path):
        journal = journal_at(str(tmp_path), fsync=True,
                                fsync_batch=1, compact_every=10_000)
        journal.open()
        with active_plan(FaultPlan(seed=0, rate=1.0,
                                   sites=("cache.fsync",))):
            with pytest.raises(InjectedFault):
                place(journal, 0)
        # the record itself was flushed before the fsync failed
        journal.close()
        fresh = journal_at(str(tmp_path), compact_every=10_000)
        assert set(fresh.open(acquire_lease=False)) == {"k00"}
