"""Table I — regenerate the operation/error-classification table.

Benchmarks every compressed-space operation on a representative 3-D workload and
writes the Table I error-classification rows (compressed-space result vs the same
operation on decompressed data) to ``benchmarks/.results/table1.txt``.
"""

import numpy as np
import pytest

from repro.core import CompressionSettings, Compressor, ops
from repro.experiments import table1_operations

from conftest import write_result


@pytest.fixture(scope="module")
def workload():
    settings = CompressionSettings(block_shape=(4, 4, 4), float_format="float32",
                                   index_dtype="int16")
    compressor = Compressor(settings)
    rng = np.random.default_rng(1)
    a = np.cumsum(rng.standard_normal((48, 48, 48)), axis=0) * 0.05
    b = np.cumsum(rng.standard_normal((48, 48, 48)), axis=1) * 0.05
    return compressor, compressor.compress(a), compressor.compress(b)


OPERATIONS = {
    "negate": lambda c, x, y: ops.negate(x),
    "add": lambda c, x, y: ops.add(x, y),
    "add_scalar": lambda c, x, y: ops.add_scalar(x, 1.5),
    "multiply_scalar": lambda c, x, y: ops.multiply_scalar(x, -2.0),
    "dot": lambda c, x, y: ops.dot(x, y),
    "mean": lambda c, x, y: ops.mean(x),
    "covariance": lambda c, x, y: ops.covariance(x, y),
    "variance": lambda c, x, y: ops.variance(x),
    "l2_norm": lambda c, x, y: ops.l2_norm(x),
    "cosine_similarity": lambda c, x, y: ops.cosine_similarity(x, y),
    "ssim": lambda c, x, y: ops.structural_similarity(x, y),
    "wasserstein": lambda c, x, y: ops.wasserstein_distance(x, y, order=2),
}


@pytest.mark.parametrize("operation", sorted(OPERATIONS))
def test_table1_operation_timing(benchmark, workload, operation):
    """Time each of the dozen Table I operations in the compressed space."""
    compressor, ca, cb = workload
    benchmark(OPERATIONS[operation], compressor, ca, cb)


def test_table1_error_classification(benchmark, results_dir):
    """Regenerate the Table I rows and verify the error classification."""
    result = benchmark.pedantic(table1_operations.run, rounds=1, iterations=1)
    write_result(results_dir, "table1", table1_operations.format_result(result))
    rows = {row[0]: row for row in result.rows}
    assert rows["negation"][3] == 0.0
    assert rows["multiplication by scalar"][3] < 1e-12
    for exact_op in ("dot product", "mean", "variance", "covariance", "L2 norm",
                     "cosine similarity", "SSIM"):
        assert rows[exact_op][3] < 1e-6
