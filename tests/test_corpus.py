"""The content-addressed failure corpus: ingest/list/replay round trips,
duplicate no-ops, crash-tolerant loading, and prune's never-lose-a-
behavior guarantee."""

import json

import pytest

from repro.api import record, replay, trace_to_bytes
from repro.campaign import Corpus, entry_name
from repro.vm.errors import UsageError
from repro.vm.machine import VMConfig
from repro.vm.timerdev import SeededJitterTimer
from repro.workloads.registry import get_workload

CFG = VMConfig(semispace_words=60_000)
BANK = {"tellers": 2, "deposits": 4}


def bank_blob(seed: int) -> bytes:
    """A small sealed bank trace, deterministic in *seed*."""
    spec = get_workload("bank")
    session = record(
        spec.build(BANK),
        config=CFG,
        timer=SeededJitterTimer(seed, 40, 160),
        extra_meta={"workload": spec.name, "workload_kwargs": BANK},
    )
    return trace_to_bytes(session.trace)


def meta_for(seed: int, behavior: str) -> dict:
    return {
        "kind": "explore",
        "workload": "racy_bank",
        "workload_kwargs": dict(BANK),
        "seed": seed,
        "behavior": behavior,
        "reason": "test fixture",
        "heap": CFG.semispace_words,
    }


class TestIngest:
    def test_round_trip_list_and_replay(self, tmp_path):
        blob = bank_blob(1)
        corpus = Corpus(tmp_path / "c", create=True)
        name, new = corpus.ingest(blob, meta_for(1, "b1"))
        assert new and name == entry_name(blob)

        reloaded = Corpus(tmp_path / "c")
        assert [e.name for e in reloaded.entries()] == [name]
        assert reloaded.blob(name) == blob
        entry = reloaded.get(name)
        assert entry.meta["workload"] == "racy_bank"
        assert entry.meta["sha256"].startswith(name)
        # the stored artifact is a standard replayable trace
        trace = reloaded.trace(name)
        result = replay(get_workload("bank").build(BANK), trace, config=CFG)
        assert result.output_text  # verified against the END witnesses

    def test_duplicate_ingest_is_a_noop(self, tmp_path):
        blob = bank_blob(1)
        corpus = Corpus(tmp_path / "c", create=True)
        name1, new1 = corpus.ingest(blob, meta_for(1, "b1"))
        index_after_first = (tmp_path / "c" / "index.json").read_bytes()
        name2, new2 = corpus.ingest(blob, meta_for(1, "b1"))
        assert (name1, new1, name2, new2) == (name1, True, name1, False)
        assert len(corpus) == 1
        assert (tmp_path / "c" / "index.json").read_bytes() == index_after_first

    def test_distinct_content_distinct_entries(self, tmp_path):
        corpus = Corpus(tmp_path / "c", create=True)
        corpus.ingest(bank_blob(1), meta_for(1, "b1"))
        corpus.ingest(bank_blob(2), meta_for(2, "b2"))
        assert len(corpus) == 2

    def test_missing_corpus_dir_is_usage_error(self, tmp_path):
        with pytest.raises(UsageError, match="no corpus directory"):
            Corpus(tmp_path / "nope")

    def test_unknown_entry_is_usage_error(self, tmp_path):
        corpus = Corpus(tmp_path / "c", create=True)
        with pytest.raises(UsageError, match="no corpus entry"):
            corpus.get("deadbeefdeadbeef")


class TestBatchIngest:
    def _count_index_writes(self, monkeypatch) -> list:
        writes = []
        real = Corpus._write_index

        def counting(corpus):
            writes.append(len(corpus))
            real(corpus)

        monkeypatch.setattr(Corpus, "_write_index", counting)
        return writes

    def test_a_batch_writes_the_index_once(self, tmp_path, monkeypatch):
        blobs = [bank_blob(seed) for seed in (1, 2, 3)]
        corpus = Corpus(tmp_path / "c", create=True)
        writes = self._count_index_writes(monkeypatch)
        items = [(blob, meta_for(i, f"b{i}")) for i, blob in enumerate(blobs)]
        results = corpus.ingest_many(items + [items[0]])
        assert writes == [3]
        assert results == [(entry_name(b), True) for b in blobs] + [(entry_name(blobs[0]), False)]
        assert corpus.ingest_many(items[1:]) == [(entry_name(b), False) for b in blobs[1:]]
        assert writes == [3]  # nothing new, nothing written
        reloaded = Corpus(tmp_path / "c")
        assert [e.name for e in reloaded.entries()] == sorted(entry_name(b) for b in blobs)
        assert reloaded.get(entry_name(blobs[2])).meta["behavior"] == "b2"

    def test_explore_sweep_writes_the_index_once(self, tmp_path, monkeypatch):
        from repro.campaign import run_explore_campaign

        writes = self._count_index_writes(monkeypatch)
        report = run_explore_campaign(
            "bank", bound=2, budget=30, seed=3, jobs=1, corpus_dir=tmp_path / "c"
        )
        assert report.corpus_new > 1
        assert writes == [report.corpus_new]

    def test_crash_before_the_batch_index_write_adopts_every_blob(
        self, tmp_path, monkeypatch
    ):
        blobs = [bank_blob(seed) for seed in (1, 2)]
        corpus = Corpus(tmp_path / "c", create=True)

        def killed(corpus):
            raise KeyboardInterrupt("killed between the blobs and the index")

        monkeypatch.setattr(Corpus, "_write_index", killed)
        with pytest.raises(KeyboardInterrupt):
            corpus.ingest_many([(b, meta_for(i, f"b{i}")) for i, b in enumerate(blobs)])
        monkeypatch.undo()
        assert not (tmp_path / "c" / "index.json").exists()
        reloaded = Corpus(tmp_path / "c")
        assert [e.name for e in reloaded.entries()] == sorted(entry_name(b) for b in blobs)
        assert all(e.meta["source"] == "adopted" for e in reloaded.entries())


class TestCrashTolerance:
    def test_torn_tmp_files_are_ignored(self, tmp_path):
        corpus = Corpus(tmp_path / "c", create=True)
        name, _ = corpus.ingest(bank_blob(1), meta_for(1, "b1"))
        # a crash mid-ingest leaves the writer's tmp behind
        (tmp_path / "c" / "feedfacefeedface.djv.tmp.999").write_bytes(b"torn")
        (tmp_path / "c" / "index.json.tmp.999").write_text("{")
        reloaded = Corpus(tmp_path / "c")
        assert [e.name for e in reloaded.entries()] == [name]

    def test_orphan_blob_is_adopted_from_trace_meta(self, tmp_path):
        corpus = Corpus(tmp_path / "c", create=True)
        name, _ = corpus.ingest(bank_blob(1), meta_for(1, "b1"))
        # a crash between blob write and index write: blob, no row
        (tmp_path / "c" / "index.json").unlink()
        reloaded = Corpus(tmp_path / "c")
        entry = reloaded.get(name)
        assert entry.meta["source"] == "adopted"
        assert entry.meta["workload"] == "racy_bank"  # from the trace itself
        assert entry.meta["workload_kwargs"] == BANK

    def test_damaged_index_is_rebuilt(self, tmp_path):
        corpus = Corpus(tmp_path / "c", create=True)
        name, _ = corpus.ingest(bank_blob(1), meta_for(1, "b1"))
        (tmp_path / "c" / "index.json").write_text("{not json")
        reloaded = Corpus(tmp_path / "c")
        assert len(reloaded) == 1 and reloaded.get(name)

    def test_index_row_without_blob_is_dropped(self, tmp_path):
        corpus = Corpus(tmp_path / "c", create=True)
        name, _ = corpus.ingest(bank_blob(1), meta_for(1, "b1"))
        (tmp_path / "c" / f"{name}.djv").unlink()
        assert len(Corpus(tmp_path / "c")) == 0


class TestPrune:
    def test_prune_keeps_one_per_behavior(self, tmp_path):
        corpus = Corpus(tmp_path / "c", create=True)
        for seed in (1, 2, 3):
            corpus.ingest(bank_blob(seed), meta_for(seed, "behaviorA"))
        for seed in (4, 5):
            corpus.ingest(bank_blob(seed), meta_for(seed, "behaviorB"))
        kept, removed = corpus.prune(keep_per_behavior=1)
        assert (kept, removed) == (2, 3)
        behaviors = {e.meta["behavior"] for e in corpus.entries()}
        assert behaviors == {"behaviorA", "behaviorB"}

    def test_prune_never_deletes_the_last_copy(self, tmp_path):
        corpus = Corpus(tmp_path / "c", create=True)
        corpus.ingest(bank_blob(1), meta_for(1, "only"))
        for keep in (1, 0, -5):  # hostile keep values clamp to 1
            kept, removed = corpus.prune(keep_per_behavior=keep)
            assert (kept, removed) == (1, 0)

    def test_prune_choice_is_deterministic(self, tmp_path):
        """Two equivalent corpora prune to the same survivors (the
        lexicographically-first names per group)."""
        survivors = []
        for d in ("c1", "c2"):
            corpus = Corpus(tmp_path / d, create=True)
            for seed in (1, 2, 3):
                corpus.ingest(bank_blob(seed), meta_for(seed, "same"))
            corpus.prune(keep_per_behavior=1)
            survivors.append([e.name for e in corpus.entries()])
        assert survivors[0] == survivors[1]

    def test_prune_survives_reload(self, tmp_path):
        corpus = Corpus(tmp_path / "c", create=True)
        for seed in (1, 2):
            corpus.ingest(bank_blob(seed), meta_for(seed, "same"))
        corpus.prune(keep_per_behavior=1)
        reloaded = Corpus(tmp_path / "c")
        assert len(reloaded) == 1
        data = json.loads((tmp_path / "c" / "index.json").read_text())
        assert len(data["entries"]) == 1


def _ingest_when_released(root, blob, meta, barrier):
    """Child body: open the corpus, line up at the barrier, ingest."""
    corpus = Corpus(root)
    barrier.wait()
    corpus.ingest(blob, meta)


def _die_mid_ingest(root, blob):
    """Child body: a remote worker killed between the tmp write and the
    atomic rename — exactly what `remote-kill-worker` leaves behind."""
    import os

    name = entry_name(blob)
    tmp = root / f"{name}.djv.tmp.{os.getpid()}"
    tmp.write_bytes(blob[: len(blob) // 2])
    os._exit(9)  # no rename, no index write


class TestConcurrentIngest:
    """Two campaign workers racing the same corpus directory.  The
    tmp-name-per-pid + atomic-rename discipline and the content address
    make the race harmless: same blob → one entry, distinct blobs →
    reconcile adopts whatever the last index write lost."""

    def fork(self, target, *args):
        import multiprocessing

        return multiprocessing.get_context("fork").Process(
            target=target, args=args
        )

    def test_same_blob_from_four_workers_is_one_entry(self, tmp_path):
        root = tmp_path / "c"
        Corpus(root, create=True)
        blob = bank_blob(1)
        import multiprocessing

        barrier = multiprocessing.get_context("fork").Barrier(4)
        children = [
            self.fork(_ingest_when_released, root, blob, meta_for(1, "b1"), barrier)
            for _ in range(4)
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=30)
            assert child.exitcode == 0
        entries = [p for p in root.iterdir() if p.suffix == ".djv"]
        assert [p.stem for p in entries] == [entry_name(blob)]
        assert entries[0].read_bytes() == blob  # never torn
        data = json.loads((root / "index.json").read_text())  # intact, valid
        assert list(data["entries"]) == [entry_name(blob)]
        assert len(Corpus(root)) == 1

    def test_distinct_blobs_from_racing_workers_both_survive(self, tmp_path):
        root = tmp_path / "c"
        Corpus(root, create=True)
        blobs = [bank_blob(1), bank_blob(2)]
        import multiprocessing

        barrier = multiprocessing.get_context("fork").Barrier(2)
        children = [
            self.fork(
                _ingest_when_released, root, blob, meta_for(i, f"b{i}"), barrier
            )
            for i, blob in enumerate(blobs)
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=30)
            assert child.exitcode == 0
        # the slower index write may have lost the other's row; reload
        # reconciles by adopting the orphan blob from its own trace meta
        reloaded = Corpus(root)
        assert len(reloaded) == 2
        for blob in blobs:
            assert reloaded.blob(entry_name(blob)) == blob

    def test_killed_worker_leaves_only_an_ignorable_tmp(self, tmp_path):
        root = tmp_path / "c"
        corpus = Corpus(root, create=True)
        keep, _ = corpus.ingest(bank_blob(1), meta_for(1, "b1"))
        victim_blob = bank_blob(2)
        child = self.fork(_die_mid_ingest, root, victim_blob)
        child.start()
        child.join(timeout=30)
        assert child.exitcode == 9
        assert any(".tmp" in p.name for p in root.iterdir())  # the wreckage
        reloaded = Corpus(root)
        assert [e.name for e in reloaded.entries()] == [keep]
        # the same failure, re-delivered by a healthy worker, lands clean
        name, new = reloaded.ingest(victim_blob, meta_for(2, "b2"))
        assert new and name == entry_name(victim_blob)
        assert reloaded.blob(name) == victim_blob


class TestStats:
    def test_stats_group_by_canonical_workload(self, tmp_path):
        corpus = Corpus(tmp_path / "c", create=True)
        corpus.ingest(bank_blob(1), meta_for(1, "b1"))
        corpus.ingest(bank_blob(2), meta_for(2, "b2"))
        stats = corpus.stats()
        assert stats["entries"] == 2
        assert stats["behaviors"] == 2
        assert stats["bytes"] > 0
        assert stats["by_workload"] == {"racy_bank(deposits=4,tellers=2)": 2}
