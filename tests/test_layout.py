"""Partitioning layout: chunk geometry, spec validation, divisibility diagnostics."""

import numpy as np
import pytest

from qarsim.layout import (
    CHUNK_COLS,
    CHUNK_ELEMS,
    CHUNK_ROWS,
    Bf16Tensor,
    DivisibilityError,
    PartitionSpec,
    ShapeMismatchError,
    TensorBuf,
)


def test_chunk_geometry():
    assert (CHUNK_ROWS, CHUNK_COLS) == (8, 128)
    assert CHUNK_ELEMS == 1024


def test_divisibility_errors_name_the_failing_factor():
    spec = PartitionSpec(2, 1, 1)
    with pytest.raises(DivisibilityError, match="chunk"):
        spec.validate_element_count(1000)
    with pytest.raises(DivisibilityError, match="num_devices"):
        PartitionSpec(3, 1, 1).validate_element_count(CHUNK_ELEMS)
    with pytest.raises(DivisibilityError, match="minishards"):
        PartitionSpec(2, 3, 1).validate_element_count(4 * CHUNK_ELEMS)
    with pytest.raises(DivisibilityError, match="microshards"):
        PartitionSpec(2, 1, 3).validate_element_count(4 * CHUNK_ELEMS)


def test_single_chunk_per_device_example():
    # 8x128 per device at N=2: one chunk each, the smallest legal layout
    spec = PartitionSpec(2, 1, 1)
    spec.validate_element_count(2 * CHUNK_ELEMS)


def test_partition_spec_validation():
    with pytest.raises(ValueError):
        PartitionSpec(1, 1, 1)
    with pytest.raises(ValueError):
        PartitionSpec(2, 0, 1)
    with pytest.raises(ValueError):
        PartitionSpec(2, 1, 0)


def test_tensorbuf_size_check():
    with pytest.raises(ShapeMismatchError):
        TensorBuf(np.zeros(10, dtype=np.float32), 4, 4)
    for data in (np.zeros(16, dtype=np.float64), np.zeros((4, 4), dtype=np.float32)):
        with pytest.raises(ValueError, match="flat float32"):
            TensorBuf(data, 4, 4)


def test_bf16_tensor_checks_its_bits():
    with pytest.raises(ValueError, match="uint16"):
        Bf16Tensor(np.zeros(16, dtype=np.float32), 4, 4)
    with pytest.raises(ShapeMismatchError):
        Bf16Tensor(np.zeros(10, dtype=np.uint16), 4, 4)


def test_bf16_tensor_values_widen_into_a_fresh_array():
    # 1.0, -2.5, the smallest subnormal, +inf and a NaN payload, widened exactly
    bits = np.array([0x3F80, 0xC020, 0x0001, 0x7F80, 0xFFC1], np.uint16)
    t = Bf16Tensor(bits, 1, 5)
    want = np.array([0x3F800000, 0xC0200000, 0x00010000, 0x7F800000, 0xFFC10000], np.uint32)
    assert t.values().view(np.uint32).tolist() == want.tolist()
    assert t.values(slice(1, 3)).view(np.uint32).tolist() == want[1:3].tolist()
    part = t.values(slice(0, 2))
    part[:] = 7.0
    assert t.bits.tolist() == [0x3F80, 0xC020, 0x0001, 0x7F80, 0xFFC1]
