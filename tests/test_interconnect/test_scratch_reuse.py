"""Allocation-free evaluation paths must be bit-identical to allocating ones."""

import numpy as np
import pytest

from repro.config import starnuma_config
from repro.interconnect.loads import LinkLoads
from repro.interconnect.queueing import mdl_wait_ns, mdl_wait_ns_array
from repro.topology import Topology


def sample_utilization(n=64, seed=3):
    rng = np.random.default_rng(seed)
    # Cover all three branches: idle, analytic, saturated.
    utilization = rng.uniform(-0.2, 1.4, size=n)
    service = rng.uniform(0.5, 12.0, size=n)
    return utilization, service


class TestMdlWaitOutPath:
    def test_bit_identical_to_allocating_path(self):
        utilization, service = sample_utilization()
        expected = mdl_wait_ns_array(utilization, service, burstiness=6.0)
        out = np.empty_like(expected)
        scratch = np.empty_like(expected)
        result = mdl_wait_ns_array(utilization, service, burstiness=6.0,
                                   out=out, scratch=scratch)
        assert result is out
        assert np.array_equal(result, expected)

    def test_matches_scalar_elementwise(self):
        utilization, service = sample_utilization()
        out = np.empty_like(utilization)
        mdl_wait_ns_array(utilization, service, burstiness=6.0, out=out)
        for u, s, w in zip(utilization, service, out):
            assert w == pytest.approx(
                mdl_wait_ns(float(u), float(s), burstiness=6.0), rel=1e-12)


class TestLinkLoadsScratchReuse:
    def test_wait_vector_reuse_bit_identical(self):
        loads = LinkLoads(Topology(starnuma_config()))
        rng = np.random.default_rng(11)
        loads.bytes_vector[:] = rng.uniform(0.0, 5e7,
                                            size=loads.bytes_vector.size)
        window_ns = 1e6
        fresh = loads.wait_ns_vector(window_ns)
        reused = loads.wait_ns_vector(window_ns, reuse_scratch=True)
        assert np.array_equal(reused, fresh)

    def test_reused_buffer_is_stable_across_calls(self):
        loads = LinkLoads(Topology(starnuma_config()))
        loads.bytes_vector[:] = 1e7
        first = loads.wait_ns_vector(1e6, reuse_scratch=True)
        second = loads.wait_ns_vector(2e6, reuse_scratch=True)
        # Same buffer object, overwritten in place.
        assert first is second
        assert np.array_equal(second, loads.wait_ns_vector(2e6))

    def test_utilization_out_path_bit_identical(self):
        loads = LinkLoads(Topology(starnuma_config()))
        rng = np.random.default_rng(5)
        loads.bytes_vector[:] = rng.uniform(0.0, 1e8,
                                            size=loads.bytes_vector.size)
        expected = loads.utilization_vector(3e5)
        out = np.empty_like(expected)
        assert np.array_equal(loads.utilization_vector(3e5, out=out),
                              expected)
