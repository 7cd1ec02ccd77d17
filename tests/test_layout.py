"""Partitioning layout: chunk geometry, spec validation, divisibility diagnostics."""

import numpy as np
import pytest

from qarsim.layout import (
    CHUNK_COLS,
    CHUNK_ELEMS,
    CHUNK_ROWS,
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
    assert spec.chunks_per_shard(2 * CHUNK_ELEMS) == 1
    assert spec.chunks_per_minishard(2 * CHUNK_ELEMS) == 1


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
