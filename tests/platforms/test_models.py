"""Platform model tests: CPU roofline, GPU occupancy/issue model, FPGA
pipeline model, transfer models, profile scaling invariants."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.platforms import (
    ARRIA10, CPUModel, EPYC_7543, FPGAModel, GPUModel, GTX_1080_TI,
    KernelProfile, RTX_2080_TI, STRATIX10, TransferModel, get_platform,
)
from repro.platforms.fpga import FPGADesignPoint
from repro.platforms.gpu import GPUDesignPoint
from repro.platforms.profile import BufferProfile


def make_profile(**overrides):
    base = dict(
        kernel_name="k",
        flops=1e9,
        builtin_flops=0.0,
        int_ops=2e8,
        mem_bytes=4e8,
        outer_iterations=1_000_000,
        bytes_in=4e7,
        bytes_out=4e7,
        working_set_bytes=8e7,
        sp_fraction=1.0,
        transfer_amortization=1,
    )
    base.update(overrides)
    return KernelProfile(**base)


class TestCPUModel:
    def test_reference_time_compute_bound(self):
        cpu = CPUModel()
        profile = make_profile(sp_fraction=0.0, mem_bytes=0.0)
        expected = 1e9 / (EPYC_7543.st_gflops_dp * 1e9) \
            + 2e8 / (2 * EPYC_7543.st_gflops_dp * 1e9)
        assert cpu.reference_time(profile) == pytest.approx(expected)

    def test_memory_bound_reference(self):
        cpu = CPUModel()
        profile = make_profile(flops=1.0, int_ops=0, mem_bytes=1e9)
        expected = 1e9 / (EPYC_7543.st_cache_bw_gbs * 1e9)
        assert cpu.reference_time(profile) == pytest.approx(expected, rel=0.01)

    def test_omp_near_linear_scaling_compute(self):
        cpu = CPUModel()
        profile = make_profile(sp_fraction=0.0, mem_bytes=0.0,
                               flops=1e11, int_ops=0)
        speedup = cpu.omp_speedup(profile, 32)
        assert 25 <= speedup <= 32

    def test_omp_dram_saturation_for_huge_working_sets(self):
        cpu = CPUModel()
        profile = make_profile(flops=1.0, int_ops=0, mem_bytes=1e12,
                               working_set_bytes=2 * EPYC_7543.llc_bytes)
        speedup = cpu.omp_speedup(profile, 32)
        # capped by DRAM/cache bandwidth ratio, far below core count
        assert speedup < 10

    def test_omp_single_thread_is_reference(self):
        cpu = CPUModel()
        profile = make_profile()
        assert cpu.omp_time(profile, 1) == cpu.reference_time(profile)

    def test_more_threads_never_slower_compute_bound(self):
        cpu = CPUModel()
        profile = make_profile(mem_bytes=0.0, flops=1e11)
        times = [cpu.omp_time(profile, t) for t in (2, 4, 8, 16, 32)]
        assert all(a >= b for a, b in zip(times, times[1:]))


class TestGPUOccupancy:
    def test_full_occupancy_small_kernel(self):
        gpu = GPUModel(GTX_1080_TI)
        occ = gpu.occupancy(blocksize=256, registers_per_thread=32)
        assert occ.occupancy == 1.0

    def test_register_limited_rush_larsen_case(self):
        """255 regs/thread: 12.5% on Pascal, 25% on Turing (paper)."""
        pascal = GPUModel(GTX_1080_TI).occupancy(256, 255)
        turing = GPUModel(RTX_2080_TI).occupancy(256, 255)
        assert pascal.occupancy == pytest.approx(0.125)
        assert pascal.limited_by == "registers"
        assert turing.occupancy == pytest.approx(0.25)

    def test_block_limited_tiny_blocks(self):
        occ = GPUModel(GTX_1080_TI).occupancy(32, 16)
        assert occ.limited_by == "blocks"

    def test_shared_memory_limit(self):
        gpu = GPUModel(GTX_1080_TI)
        occ = gpu.occupancy(256, 32, shared_mem_per_block=48 * 1024)
        assert occ.limited_by == "shared"
        assert occ.blocks_per_sm == 2

    def test_oversized_registers_zero_blocks(self):
        occ = GPUModel(RTX_2080_TI).occupancy(512, 255)
        assert occ.blocks_per_sm == 0


class TestGPUModel:
    def test_dp_much_slower_than_sp(self):
        gpu = GPUModel(GTX_1080_TI)
        sp = gpu.kernel_time(make_profile(sp_fraction=1.0, mem_bytes=0.0),
                             GPUDesignPoint())
        dp = gpu.kernel_time(make_profile(sp_fraction=0.0, mem_bytes=0.0),
                             GPUDesignPoint())
        assert dp > 10 * sp  # GeForce DP is 1/32 rate

    def test_turing_coissue_beats_pascal_on_int_heavy(self):
        profile = make_profile(int_ops=1e9)  # int ~ fp
        pascal = GPUModel(GTX_1080_TI)
        turing = GPUModel(RTX_2080_TI)
        ratio = pascal.kernel_time(profile, GPUDesignPoint()) \
            / turing.kernel_time(profile, GPUDesignPoint())
        # co-issue + higher peak: well above the raw peak ratio
        assert ratio > 13450 / 11340

    def test_spill_penalty(self):
        gpu = GPUModel(GTX_1080_TI)
        profile = make_profile(mem_bytes=0.0)
        clean = gpu.kernel_time(profile, GPUDesignPoint())
        spilled = gpu.kernel_time(profile, GPUDesignPoint(spilled=True))
        assert spilled > 2 * clean

    def test_undersaturated_device_slower(self):
        gpu = GPUModel(GTX_1080_TI)
        big = gpu.kernel_time(make_profile(outer_iterations=10_000_000),
                              GPUDesignPoint())
        small_profile = make_profile(outer_iterations=2000)
        small = gpu.kernel_time(small_profile, GPUDesignPoint())
        assert small > big * 0.99  # same work, fewer threads: no faster

    def test_l2_resident_buffer_cheap(self):
        gpu = GPUModel(GTX_1080_TI)
        resident = make_profile(buffer_profiles=(
            BufferProfile("tab", 1e6, 1e10, False, "in"),))
        streaming = make_profile(buffer_profiles=(
            BufferProfile("big", 1e9, 1e10, False, "in"),))
        t_resident = gpu._memory_time(resident, GPUDesignPoint())
        t_streaming = gpu._memory_time(streaming, GPUDesignPoint())
        assert t_resident < t_streaming / 100

    def test_gather_pays_reduced_bandwidth(self):
        gpu = GPUModel(GTX_1080_TI)
        gathered = make_profile(buffer_profiles=(
            BufferProfile("w", 1e9, 1e9, True, "in"),))
        linear = make_profile(buffer_profiles=(
            BufferProfile("w", 1e9, 1e9, False, "in"),))
        assert gpu._memory_time(gathered, GPUDesignPoint()) \
            > 2 * gpu._memory_time(linear, GPUDesignPoint())

    def test_pinned_transfers_faster(self):
        gpu = GPUModel(GTX_1080_TI)
        profile = make_profile(bytes_in=1e9, bytes_out=1e9)
        slow = gpu.transfer_time(profile, GPUDesignPoint(pinned_memory=False))
        fast = gpu.transfer_time(profile, GPUDesignPoint(pinned_memory=True))
        assert fast < slow

    def test_transfer_amortization(self):
        gpu = GPUModel(GTX_1080_TI)
        once = gpu.transfer_time(make_profile(), GPUDesignPoint())
        amortized = gpu.transfer_time(
            make_profile(transfer_amortization=10), GPUDesignPoint())
        assert amortized == pytest.approx(once / 10)

    def test_zero_occupancy_infinite_time(self):
        gpu = GPUModel(RTX_2080_TI)
        time = gpu._compute_time(make_profile(),
                                 GPUDesignPoint(blocksize=512,
                                                registers_per_thread=255))
        assert math.isinf(time)


class TestFPGAModel:
    def test_pipeline_ii1_throughput(self):
        fpga = FPGAModel(STRATIX10)
        profile = make_profile(outer_iterations=33_000_000,
                               bytes_in=0, bytes_out=0, mem_bytes=0)
        point = FPGADesignPoint(unroll_factor=1, ii=1.0)
        # 33M iterations at 330 MHz = ~0.1 s
        assert fpga.pipeline_time(profile, point) == pytest.approx(0.1, rel=0.01)

    def test_unroll_scales_throughput(self):
        fpga = FPGAModel(ARRIA10)
        profile = make_profile()
        t1 = fpga.pipeline_time(profile, FPGADesignPoint(unroll_factor=1))
        t4 = fpga.pipeline_time(profile, FPGADesignPoint(unroll_factor=4))
        assert t4 < t1 / 3

    def test_variable_inner_loop_defeats_unroll(self):
        fpga = FPGAModel(ARRIA10)
        profile = make_profile()
        point = FPGADesignPoint(unroll_factor=8, variable_inner_trips=100)
        serial = fpga.pipeline_time(profile, point)
        clean = fpga.pipeline_time(profile, FPGADesignPoint(unroll_factor=8))
        assert serial > 50 * clean  # paper's N-Body situation

    def test_bram_resident_gather_table_free(self):
        fpga = FPGAModel(STRATIX10)
        small = make_profile(buffer_profiles=(
            BufferProfile("w", 1e5, 1e10, True, "in"),))
        large = make_profile(buffer_profiles=(
            BufferProfile("w", 1e9, 1e10, True, "in"),))
        assert fpga.memory_time(small, FPGADesignPoint()) \
            < fpga.memory_time(large, FPGADesignPoint()) / 10

    def test_zero_copy_requires_usm(self):
        fpga = FPGAModel(ARRIA10)
        with pytest.raises(ValueError):
            fpga.design_time(make_profile(), FPGADesignPoint(zero_copy=True))

    def test_zero_copy_overlaps_transfer(self):
        fpga = FPGAModel(STRATIX10)
        profile = make_profile(bytes_in=1e9, bytes_out=1e5)
        copied = fpga.design_time(profile, FPGADesignPoint())
        zero = fpga.design_time(profile, FPGADesignPoint(zero_copy=True))
        assert zero < copied


class TestAblationsOnAppDesigns:
    """One design choice switched off on a real generated design."""

    def test_dp_rush_larsen_gpu_design_much_slower(self, all_uninformed):
        """The SP transforms: the Rush Larsen HIP design forced back to
        double precision (GeForce DP is crippling)."""
        result = all_uninformed["rush_larsen"]
        design = result.design("hip-2080ti")
        gpu = GPUModel(RTX_2080_TI)

        def design_time(sp_fraction):
            point = GPUDesignPoint(
                blocksize=design.metadata["blocksize"],
                registers_per_thread=design.metadata[
                    "registers_per_thread"],
                pinned_memory=True, uses_intrinsics=True,
                spilled=design.metadata["register_spill"],
                sp_fraction=sp_fraction)
            return gpu.design_time(result.facts["kernel_profile"], point)

        assert design_time(0.0) > 3 * design_time(0.97)

    def test_pageable_kmeans_gpu_design_slower(self, all_uninformed):
        result = all_uninformed["kmeans"]
        design = result.design("hip-2080ti")
        gpu = GPUModel(RTX_2080_TI)

        def design_time(pinned):
            point = GPUDesignPoint(
                blocksize=design.metadata["blocksize"],
                registers_per_thread=design.metadata[
                    "registers_per_thread"],
                pinned_memory=pinned)
            return gpu.design_time(result.facts["kernel_profile"], point)

        assert design_time(False) > design_time(True)

    def test_zero_copy_changes_kmeans_stratix10_design(self,
                                                       all_uninformed):
        result = all_uninformed["kmeans"]
        design = result.design("oneapi-s10")
        fpga = FPGAModel(STRATIX10)

        def design_time(zero_copy):
            point = FPGADesignPoint(
                unroll_factor=design.metadata["unroll_factor"],
                ii=design.metadata["hls_report"].ii,
                zero_copy=zero_copy)
            return fpga.design_time(result.facts["kernel_profile"], point)

        assert design_time(True) != design_time(False)


class TestTransferModel:
    def test_bandwidth_ordering(self):
        xfer = TransferModel()
        assert xfer.pinned_time(1e9) < xfer.pageable_time(1e9)

    def test_latency_floor(self):
        xfer = TransferModel()
        assert xfer.pageable_time(1, transfers=1) >= xfer.spec.latency_s

    def test_zero_bytes_free(self):
        assert TransferModel().pageable_time(0) == 0.0


class TestRegistry:
    def test_all_platforms_resolve(self):
        for name in ("epyc7543", "gtx1080ti", "rtx2080ti",
                     "arria10", "stratix10"):
            assert get_platform(name) is not None

    def test_unknown_platform(self):
        with pytest.raises(KeyError):
            get_platform("tpu")


class TestProfileScaling:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=2.0, max_value=1e4))
    def test_speedup_ratio_size_stable(self, factor):
        """Speedups are invariant under linear workload scaling once
        fixed overheads are negligible."""
        cpu = CPUModel()
        gpu = GPUModel(RTX_2080_TI)
        base = make_profile(flops=1e12, int_ops=0, mem_bytes=1e10,
                            bytes_in=0, bytes_out=0,
                            outer_iterations=10_000_000)
        scaled = base.scaled(factor)
        s_base = cpu.reference_time(base) / gpu.kernel_time(
            base, GPUDesignPoint())
        s_scaled = cpu.reference_time(scaled) / gpu.kernel_time(
            scaled, GPUDesignPoint())
        assert s_scaled == pytest.approx(s_base, rel=0.05)

    def test_fixed_buffers_keep_size(self):
        profile = make_profile(buffer_profiles=(
            BufferProfile("table", 1e5, 1e7, True, "in"),
            BufferProfile("stream", 1e6, 1e7, False, "in"),
        ))
        scaled = profile.scaled(100.0, fixed_buffers=("table",))
        by_name = {b.name: b for b in scaled.buffer_profiles}
        assert by_name["table"].nbytes == 1e5          # unchanged
        assert by_name["table"].traffic_bytes == 1e9   # traffic scales
        assert by_name["stream"].nbytes == 1e8

    def test_scaled_recomputes_transfer_footprint(self):
        profile = make_profile(buffer_profiles=(
            BufferProfile("a", 1e6, 1e6, False, "in"),
            BufferProfile("b", 2e6, 2e6, False, "out"),
        ))
        scaled = profile.scaled(10.0)
        assert scaled.bytes_in == 1e7
        assert scaled.bytes_out == 2e7
        assert scaled.working_set_bytes == 3e7
