"""Tests for the serializable job spec."""

import pytest

from repro.engine import EngineConfig
from repro.jobs import JobSpec


class TestJobSpec:
    def test_defaults(self):
        spec = JobSpec(figure="fig9")
        assert spec.kind == "figure"
        assert not spec.fast
        assert spec.engine == EngineConfig()

    def test_round_trip(self):
        spec = JobSpec(
            figure="fig9",
            fast=True,
            engine=EngineConfig(cache_dir="/tmp/q", on_error="collect"),
        )
        assert JobSpec.from_dict(spec.as_dict()) == spec

    def test_fingerprint_is_content_addressed(self):
        a = JobSpec(figure="fig9")
        b = JobSpec.from_dict(a.as_dict())
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != JobSpec(figure="fig9", fast=True).fingerprint()
        assert (
            a.fingerprint()
            != JobSpec(figure="fig9", engine=EngineConfig(batched=True)).fingerprint()
        )

    def test_empty_figure_rejected(self):
        with pytest.raises(ValueError, match="figure must be non-empty"):
            JobSpec(figure="")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind must be one of"):
            JobSpec(figure="fig9", kind="simulation")

    def test_engine_must_be_config(self):
        with pytest.raises(TypeError, match="EngineConfig"):
            JobSpec(figure="fig9", engine={"batched": True})

    def test_invalid_engine_section_rejected_on_load(self):
        payload = JobSpec(figure="fig9").as_dict()
        payload["engine"]["tol"] = 0.0
        with pytest.raises(ValueError, match="tol must be positive"):
            JobSpec.from_dict(payload)
