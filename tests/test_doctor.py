"""The replay-divergence doctor: one test per classification, plus the
failure-context capture (first divergent event, thread/method/bci,
stream neighborhoods)."""

import pytest

from repro.api import record
from repro.core.doctor import (
    CLASS_CLEAN,
    CLASS_CODEC,
    CLASS_CONFIG_MISMATCH,
    CLASS_CORRUPT,
    CLASS_KWARGS_MISMATCH,
    CLASS_NONDETERMINISM,
    CLASS_NOT_A_TRACE,
    CLASS_TRUNCATED,
    CLASS_VERSION_SKEW,
    classify_format_error,
    diagnose,
)
from repro.core.tracelog import MAGIC
from repro.core.verify import event_thread, format_neighborhood
from repro.faults.inject import segment_boundaries
from repro.vm import SeededJitterTimer
from repro.vm.errors import TraceFormatError
from repro.vm.machine import VMConfig
from repro.workloads import racy_bank, server

CFG = VMConfig(semispace_words=60_000)


def _program():
    return racy_bank(tellers=2, deposits=8)


@pytest.fixture
def sealed(tmp_path):
    """A clean recording of the small bank, with workload meta stamped."""
    path = tmp_path / "t.djv"
    record(
        _program(),
        config=CFG,
        timer=SeededJitterTimer(5, 40, 160),
        out=path,
        extra_meta={
            "workload": "racy_bank",
            "workload_kwargs": {"tellers": 2, "deposits": 8},
        },
    )
    return path


class TestClassifications:
    def test_clean(self, sealed):
        report = diagnose(sealed, program=_program(), config=CFG)
        assert report.classification == CLASS_CLEAN
        assert report.ok and report.exit_code == 0
        assert any("replay: faithful" in c for c in report.checks)

    def test_not_a_trace(self, tmp_path):
        path = tmp_path / "x.djv"
        path.write_bytes(b"definitely not a trace")
        report = diagnose(path)
        assert report.classification == CLASS_NOT_A_TRACE
        assert report.exit_code == 2

    @pytest.mark.parametrize("version", [2, 3, 99])
    def test_version_skew(self, tmp_path, version):
        # v2 and v3 are older formats, refused like an unknown one
        path = tmp_path / "x.djv"
        path.write_bytes(MAGIC + version.to_bytes(2, "little") + b"\x00" * 8)
        report = diagnose(path)
        assert report.classification == CLASS_VERSION_SKEW
        assert report.exit_code == 2

    def test_truncated_tail(self, sealed):
        blob = sealed.read_bytes()
        sealed.write_bytes(blob[:-9])  # tear off the footer's tail
        report = diagnose(sealed, program=_program(), config=CFG)
        assert report.classification == CLASS_TRUNCATED
        assert report.exit_code == 1
        assert report.salvage is not None
        assert any("prefix replay" in c for c in report.checks)
        assert report.prefix_replays is True

    def test_single_byte_corruption(self, sealed):
        blob = bytearray(sealed.read_bytes())
        # damage the middle of the first segment's payload
        first_end = segment_boundaries(bytes(blob))[0]
        blob[(len(MAGIC) + 2 + 9 + first_end) // 2] ^= 0x10
        sealed.write_bytes(bytes(blob))
        report = diagnose(sealed, program=_program(), config=CFG)
        assert report.classification == CLASS_CORRUPT
        assert report.exit_code == 1
        assert "segment" in report.detail

    @pytest.mark.parametrize(
        "format_class",
        [CLASS_TRUNCATED, CLASS_CORRUPT, CLASS_CODEC, CLASS_VERSION_SKEW,
         CLASS_NOT_A_TRACE],
    )
    def test_format_class_is_the_raisers_not_the_messages(self, format_class):
        # the message quotes every class's wording; only the field counts
        text = ("not a DejaVu trace; unsupported trace version; unknown "
                "segment codec; group-codec; CRC mismatch; undecodable; "
                "footer mismatch; trailing data; empty file")
        exc = TraceFormatError(text, stream="value", format_class=format_class)
        assert classify_format_error(exc) == format_class

    def test_engine_config_mismatch(self, sealed):
        report = diagnose(
            sealed,
            program=_program(),
            config=VMConfig(semispace_words=90_000),
        )
        assert report.classification == CLASS_CONFIG_MISMATCH
        assert report.exit_code == 1
        assert "heap" in report.detail

    def test_workload_kwargs_mismatch(self, sealed):
        report = diagnose(
            sealed,
            program=_program(),
            config=CFG,
            workload_kwargs={"tellers": 2, "deposits": 40},
        )
        assert report.classification == CLASS_KWARGS_MISMATCH
        assert report.exit_code == 1
        assert "deposits" in report.detail

    def test_genuine_nondeterminism(self, sealed):
        # replaying the wrong program against a sound file: the doctor's
        # last bucket — everything static checks out, the execution doesn't
        wrong = server(n_workers=2, n_requests=6, seed=3, work_scale=1)
        report = diagnose(sealed, program=wrong, config=CFG)
        assert report.classification == CLASS_NONDETERMINISM
        assert report.exit_code == 1


class TestFailureContext:
    def test_nondeterminism_report_carries_context(self, sealed):
        wrong = server(n_workers=2, n_requests=6, seed=3, work_scale=1)
        report = diagnose(sealed, program=wrong, config=CFG)
        text = report.format()
        assert "classification: nondeterminism" in text
        # the ±5-word stream windows around the cursors are included
        assert report.switch_neighborhood or report.value_neighborhood

    def test_static_only_without_program(self, sealed):
        report = diagnose(sealed, config=CFG)
        assert report.classification == CLASS_CLEAN
        assert any("replay: skipped" in c for c in report.checks)


class TestVerifyNeighborhood:
    def test_event_thread_extraction(self):
        assert event_thread(("switch", 1, 2, 300)) == 2
        assert event_thread(("thread_start", 4, "worker")) == 4
        assert event_thread(("clock", 9)) is None
        assert event_thread(None) is None

    def test_format_neighborhood_marks_divergence(self):
        recorded = [("clock", i) for i in range(10)]
        replayed = recorded[:6] + [("clock", 99)] + recorded[7:]
        text = format_neighborhood(recorded, replayed, 6, radius=2)
        lines = text.splitlines()
        assert len(lines) == 5  # ±2 around index 6
        assert any(line.startswith(">>") and "!=" in line for line in lines)
        assert sum("==" in line for line in lines) == 4
