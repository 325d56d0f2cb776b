"""FlowJob validation and content-hash key tests."""

import pytest

from repro.service.cache import CACHE_FORMAT_VERSION
from repro.service.jobs import FlowJob, JobValidationError


class TestValidation:
    def test_accepts_known_app_and_mode(self):
        job = FlowJob("kmeans", "informed")
        assert job.label == "kmeans/informed"

    def test_rejects_unknown_app(self):
        with pytest.raises(JobValidationError, match="unknown app"):
            FlowJob("not_an_app", "informed")

    def test_rejects_unknown_mode(self):
        with pytest.raises(JobValidationError, match="unknown mode"):
            FlowJob("kmeans", "clairvoyant")

    def test_rejects_bad_numbers(self):
        with pytest.raises(JobValidationError):
            FlowJob("kmeans", intensity_threshold=0.0)
        with pytest.raises(JobValidationError):
            FlowJob("kmeans", scale=-1.0)
        with pytest.raises(JobValidationError):
            FlowJob("kmeans", timeout_s=0)
        with pytest.raises(JobValidationError):
            FlowJob("kmeans", priority="high")
        for name in ("intensity_threshold", "scale", "priority",
                     "timeout_s"):
            with pytest.raises(JobValidationError, match="boolean"):
                FlowJob("kmeans", **{name: True})


class TestKeys:
    def test_key_is_deterministic(self):
        assert FlowJob("kmeans", "informed").key() \
            == FlowJob("kmeans", "informed").key()

    def test_key_varies_with_every_result_determining_field(self):
        base = FlowJob("kmeans", "informed")
        variants = [
            FlowJob("nbody", "informed"),
            FlowJob("kmeans", "uninformed"),
            FlowJob("kmeans", "informed", intensity_threshold=0.5),
            FlowJob("kmeans", "informed", scale=2.0),
        ]
        keys = {base.key()} | {v.key() for v in variants}
        assert len(keys) == len(variants) + 1

    def test_priority_and_limits_do_not_change_the_key(self):
        """Scheduling knobs are not content -- same work, same key."""
        base = FlowJob("kmeans", "informed")
        assert FlowJob("kmeans", "informed", priority=9).key() == base.key()
        assert FlowJob("kmeans", "informed",
                       timeout_s=60).key() == base.key()

    def test_spec_includes_source_hash_and_format(self):
        spec = FlowJob("kmeans", "informed").spec()
        assert spec["format"] == CACHE_FORMAT_VERSION
        assert len(spec["source_sha"]) == 64

    def test_from_spec_round_trip(self):
        job = FlowJob("bezier", "uninformed", intensity_threshold=0.3,
                      scale=1.5)
        rebuilt = FlowJob.from_spec(job.spec())
        assert rebuilt == job
        assert rebuilt.key() == job.key()


class TestExecution:
    def test_concurrent_jobs_share_one_lowering_and_leave_env_alone(self):
        """Jobs carry no per-process switch: running several at once
        neither reads nor writes the environment's REPRO_* state, and
        every unroll sweep runs the fit."""
        import os
        import threading

        from repro import obs
        from repro.service.jobs import execute_job

        before = dict(os.environ)
        collector = obs.add_sink(obs.SpanCollector())
        errors = []

        def run(scale):
            try:
                execute_job(FlowJob("kmeans", "uninformed", scale=scale))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(scale,))
                   for scale in (0.5, 0.75, 1.0)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            obs.remove_sink(collector)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert dict(os.environ) == before
        sweeps = [s for s in collector.snapshot() if s.name == "dse.sweep"]
        assert len(sweeps) >= 3
        assert {s.attrs["mode"] for s in sweeps
                if s.attrs["dse"] == "unroll"} == {"fit"}
