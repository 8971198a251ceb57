"""Consistency checks of the simulated device fleet (no training involved).

These tests pin down the cross-device behaviour the learned models are asked
to capture: faster devices are faster on heavy kernels, taxonomy matters for
particular operator families, and every device produces sane latencies for
every operator family in the library.
"""

import numpy as np
import pytest

from repro.devices.simulator import DeviceSimulator
from repro.devices.spec import get_device, list_devices
from repro.ops import build_op
from repro.tir.lower import lower
from repro.tir.schedule import random_schedule
from tests.test_ops import SAMPLE_KWARGS


@pytest.fixture(scope="module")
def heavy_conv_program():
    task = build_op("conv2d", batch=1, in_channels=64, out_channels=128, height=28, width=28,
                    model="consistency")
    return lower(task, random_schedule(task, np.random.default_rng(0), "gpu"))


class TestDeviceOrdering:
    def test_gpu_generation_ordering_on_heavy_conv(self, heavy_conv_program):
        latencies = {
            name: DeviceSimulator(get_device(name), seed=0).measure(heavy_conv_program)
            for name in ("k80", "t4", "v100", "a100")
        }
        assert latencies["a100"] < latencies["v100"] < latencies["k80"]
        assert latencies["t4"] < latencies["k80"]

    def test_every_device_slower_than_a100_on_heavy_conv(self, heavy_conv_program):
        a100 = DeviceSimulator(get_device("a100"), seed=0).measure(heavy_conv_program)
        for device in list_devices():
            if device.name == "a100":
                continue
            assert DeviceSimulator(device, seed=0).measure(heavy_conv_program) > a100

    def test_cpu_server_class_ordering_on_heavy_conv(self, heavy_conv_program):
        epyc = DeviceSimulator(get_device("epyc-7452"), seed=0).measure(heavy_conv_program)
        old_xeon = DeviceSimulator(get_device("e5-2673"), seed=0).measure(heavy_conv_program)
        assert epyc < old_xeon


class TestAllOpsOnAllDevices:
    @pytest.mark.parametrize("device_name", [d.name for d in list_devices()])
    def test_every_op_family_has_sane_latency(self, device_name):
        device = get_device(device_name)
        simulator = DeviceSimulator(device, seed=1)
        rng = np.random.default_rng(1)
        for op_name, kwargs in SAMPLE_KWARGS.items():
            task = build_op(op_name, **kwargs, model="consistency")
            program = lower(task, random_schedule(task, rng, device.taxonomy))
            latency = simulator.measure(program)
            # Between 1 microsecond and 1 second for these small workloads.
            assert 1e-6 < latency < 1.0, f"{op_name} on {device_name}: {latency}"

    def test_latency_ratio_between_devices_varies_by_op(self):
        """Relative device performance is operator-dependent (the reason a
        single scaling factor, as in simple roofline transfer, is not enough
        and a learned cross-device model is needed)."""
        rng = np.random.default_rng(2)
        ratios = []
        for op_name in ("dense", "embedding_lookup", "softmax", "conv2d"):
            task = build_op(op_name, **SAMPLE_KWARGS[op_name], model="consistency")
            program = lower(task, random_schedule(task, rng, "gpu"))
            a100 = DeviceSimulator(get_device("a100"), seed=0).measure(program)
            epyc = DeviceSimulator(get_device("epyc-7452"), seed=0).measure(program)
            ratios.append(epyc / a100)
        assert max(ratios) > 2 * min(ratios)
