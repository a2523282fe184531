"""Tests for argument-validation helpers."""

import numpy as np
import pytest

from repro.cluster import single_machine_cluster
from repro.config import APTConfig
from repro.featurestore import UnifiedFeatureStore
from repro.graph.datasets import small_dataset
from repro.parallel.supervisor import FaultPolicy
from repro.utils.validation import (
    check_dim,
    check_index_array,
    check_positive,
    check_probability,
    env_number,
)


class TestCheckPositive:
    def test_accepts_positive(self):
        check_positive("x", 1.5)

    def test_rejects_zero_when_strict(self):
        with pytest.raises(ValueError, match="must be > 0"):
            check_positive("x", 0)

    def test_accepts_zero_when_not_strict(self):
        check_positive("x", 0, strict=False)

    def test_rejects_negative_when_not_strict(self):
        with pytest.raises(ValueError, match="must be >= 0"):
            check_positive("x", -1, strict=False)


class TestCheckProbability:
    @pytest.mark.parametrize("v", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, v):
        check_probability("p", v)

    @pytest.mark.parametrize("v", [-0.1, 1.1])
    def test_rejects_outside(self, v):
        with pytest.raises(ValueError):
            check_probability("p", v)


class TestCheckDim:
    def test_accepts_positive_int(self):
        check_dim("d", 128)

    @pytest.mark.parametrize("v", [0, -3, 2.5])
    def test_rejects_bad_values(self, v):
        with pytest.raises(ValueError):
            check_dim("d", v)


class TestCheckIndexArray:
    def test_accepts_valid(self):
        check_index_array("idx", np.array([0, 3, 9]), 10)

    def test_accepts_empty(self):
        check_index_array("idx", np.array([], dtype=np.int64), 10)

    def test_rejects_float_dtype(self):
        with pytest.raises(TypeError):
            check_index_array("idx", np.array([0.5]), 10)

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            check_index_array("idx", np.array([10]), 10)

    def test_rejects_negative(self):
        with pytest.raises(IndexError):
            check_index_array("idx", np.array([-1]), 10)


class TestEnvNumber:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert env_number("REPRO_TEST_KNOB", 7) == 7

    def test_parses_int_and_float(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "12")
        assert env_number("REPRO_TEST_KNOB", 0) == 12
        monkeypatch.setenv("REPRO_TEST_KNOB", "2.5")
        assert env_number("REPRO_TEST_KNOB", 0.0, float) == 2.5

    @pytest.mark.parametrize(
        "name,build",
        [
            ("REPRO_NUM_WORKERS", lambda: APTConfig()),
            ("REPRO_TASK_DEADLINE_S", lambda: FaultPolicy()),
            ("REPRO_MAX_RETRIES", lambda: FaultPolicy()),
            ("REPRO_FAILURE_BUDGET", lambda: FaultPolicy()),
            (
                "REPRO_DISK_PROMOTE_MB",
                lambda: UnifiedFeatureStore(
                    small_dataset(n=50, feature_dim=4, num_classes=2),
                    single_machine_cluster(1),
                ).configure_disk_tier(),
            ),
        ],
    )
    def test_malformed_value_names_the_variable(self, monkeypatch, name, build):
        monkeypatch.setenv(name, "two")
        with pytest.raises(ValueError) as err:
            build()
        msg = str(err.value)
        assert name in msg and "'two'" in msg
        assert "\n" not in msg
