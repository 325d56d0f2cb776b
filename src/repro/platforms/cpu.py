"""CPU performance model (EPYC 7543): the reference baseline and the
OpenMP multi-thread target.

Roofline-style: execution time is the maximum of compute time (FP work
over the sustained FLOP rate, precision-split) and memory time (scalar
traffic over the relevant bandwidth).  The reference time of the
*unoptimised single-thread run* produced here is the denominator of
every speedup in Fig. 5.

OpenMP scaling follows the paper's observation that the five benchmarks
are embarrassingly parallel and reach speedups "close to the number of
cores": compute scales with ``threads x omp_efficiency``; memory scales
with threads while the working set stays cache-resident (the EPYC 7543
carries a 256 MB L3) and saturates at socket DRAM bandwidth beyond.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.platforms.profile import KernelProfile
from repro.platforms.spec import CPUSpec, EPYC_7543


@dataclass
class CPUModel:
    spec: CPUSpec = EPYC_7543

    # -- building blocks ---------------------------------------------------
    def _compute_time(self, profile: KernelProfile, threads: int = 1) -> float:
        sp = profile.total_flops * profile.sp_fraction
        dp = profile.total_flops - sp
        rate_scale = max(1, threads) * (self.spec.omp_efficiency
                                        if threads > 1 else 1.0)
        sp_rate = self.spec.st_gflops_sp * 1e9 * rate_scale
        dp_rate = self.spec.st_gflops_dp * 1e9 * rate_scale
        # integer/address arithmetic shares the scalar pipelines
        int_rate = 2.0 * self.spec.st_gflops_dp * 1e9 * rate_scale
        return sp / sp_rate + dp / dp_rate + profile.int_ops / int_rate

    def _memory_time(self, profile: KernelProfile, threads: int = 1) -> float:
        if profile.mem_bytes <= 0:
            return 0.0
        cache_resident = profile.working_set_bytes <= self.spec.llc_bytes
        if threads <= 1:
            bw = self.spec.st_cache_bw_gbs if cache_resident \
                else min(self.spec.st_cache_bw_gbs, self.spec.dram_bw_gbs)
            return profile.mem_bytes / (bw * 1e9)
        scaled = self.spec.st_cache_bw_gbs * threads * self.spec.omp_efficiency
        bw = scaled if cache_resident else min(scaled, self.spec.dram_bw_gbs)
        return profile.mem_bytes / (bw * 1e9)

    # -- public predictions ----------------------------------------------
    def reference_time(self, profile: KernelProfile) -> float:
        """Hotspot time of the unoptimised single-thread reference (s)."""
        return max(self._compute_time(profile, 1),
                   self._memory_time(profile, 1))

    def omp_time(self, profile: KernelProfile, threads: int) -> float:
        """Hotspot time of the OpenMP design with ``threads`` threads (s)."""
        threads = max(1, min(threads, self.spec.cores))
        if threads == 1:
            return self.reference_time(profile)
        body = max(self._compute_time(profile, threads),
                   self._memory_time(profile, threads))
        overhead = self.spec.omp_overhead_s * max(1, profile.kernel_calls)
        return body + overhead

    def omp_speedup(self, profile: KernelProfile, threads: int) -> float:
        return self.reference_time(profile) / self.omp_time(profile, threads)

    # perfbench/spans.py wraps this name (``cls.__dict__[name]``), so
    # it stays: one omp_time per thread count
    def omp_time_batch(self, profile: KernelProfile, threads):
        return [self.omp_time(profile, t) for t in threads]
