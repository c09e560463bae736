"""Unit tests for dependence annotations (repro.core.annotations)."""

import numpy as np
import pytest

from repro.core.annotations import ReadSpec, WorkHint, WriteSpec


class TestReadSpec:
    def test_plain_read(self):
        spec = ReadSpec(nbytes=1024)
        assert spec.nbytes == 1024
        assert not spec.shared
        assert spec.locality == 1.0
        assert spec.region is None

    def test_shared_read_requires_region(self):
        with pytest.raises(ValueError, match="region"):
            ReadSpec(nbytes=64, shared=True)

    def test_shared_read_with_region(self):
        spec = ReadSpec(nbytes=64, region="table", shared=True)
        assert spec.region == "table"

    def test_private_read_may_name_region(self):
        spec = ReadSpec(nbytes=64, region="mine")
        assert not spec.shared

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError, match="nbytes"):
            ReadSpec(nbytes=-1)

    def test_zero_bytes_allowed(self):
        assert ReadSpec(nbytes=0).nbytes == 0

    @pytest.mark.parametrize("nbytes", [64.5, 0.25, float("nan"),
                                        float("inf")])
    def test_fractional_bytes_rejected(self, nbytes):
        with pytest.raises(ValueError, match="whole number"):
            ReadSpec(nbytes=nbytes)

    @pytest.mark.parametrize("nbytes", [64.0, np.int64(64), np.float64(64)])
    def test_whole_bytes_of_any_type_allowed(self, nbytes):
        assert ReadSpec(nbytes=nbytes).nbytes == 64

    @pytest.mark.parametrize("locality", [-0.1, 1.1, 2.0])
    def test_locality_out_of_range(self, locality):
        with pytest.raises(ValueError, match="locality"):
            ReadSpec(nbytes=1, locality=locality)

    def test_frozen(self):
        spec = ReadSpec(nbytes=8)
        with pytest.raises(AttributeError):
            spec.nbytes = 16  # type: ignore[misc]


class TestWriteSpec:
    def test_basic(self):
        spec = WriteSpec(nbytes=256, locality=0.5)
        assert spec.nbytes == 256

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            WriteSpec(nbytes=-4)

    @pytest.mark.parametrize("nbytes", [64.5, 0.25, float("nan")])
    def test_fractional_rejected(self, nbytes):
        with pytest.raises(ValueError, match="whole number"):
            WriteSpec(nbytes=nbytes)

    @pytest.mark.parametrize("nbytes", [64.0, np.int32(64), np.float32(64)])
    def test_whole_sizes_of_any_type_allowed(self, nbytes):
        assert WriteSpec(nbytes=nbytes).nbytes == 64

    def test_locality_validated(self):
        with pytest.raises(ValueError):
            WriteSpec(nbytes=4, locality=1.5)


class TestWorkHint:
    def test_callable_estimate(self):
        hint = WorkHint(lambda args: args["n"] * 2)
        assert hint({"n": 21}) == 42.0

    def test_result_coerced_to_float(self):
        hint = WorkHint(lambda args: 7)
        assert isinstance(hint({}), float)

    def test_negative_estimate_rejected(self):
        hint = WorkHint(lambda args: -1)
        with pytest.raises(ValueError, match="work estimate"):
            hint({})

    def test_zero_estimate_allowed(self):
        assert WorkHint(lambda args: 0)({}) == 0.0
