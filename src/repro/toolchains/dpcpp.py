"""Simulated dpcpp (Intel oneAPI HLS) toolchain.

Produces the high-level design report the "Unroll Until Overmap" DSE of
Fig. 2 consumes: estimated ALM/DSP usage and pipelining facts for a
kernel under its current unroll pragmas.

Resource estimation walks the kernel body charging per-operation
hardware costs (Intel FPGAs execute SP add/mul natively in hard DSP
blocks; DP and elementary functions are synthesised from logic, which
is why double-precision and ``exp``-heavy datapaths are enormously more
expensive -- the mechanism behind Rush Larsen's unsynthesisable FPGA
designs, §IV-B.iii).  Operations inside *unrolled* loops are replicated
per lane; pipelined (non-unrolled) loops reuse one datapath instance.

Pipelining analysis mirrors the HLS compiler's rules:

- an unrolled-inner, scalarised body pipelines the outer loop at II=1;
- a read-modify-write of a buffer element inside a pipelined loop
  forces II up to the memory round-trip (the "Remove Array +=
  Dependency" task exists to eliminate exactly this);
- a variable-bound inner loop cannot be unrolled, serialises the outer
  iteration, and makes outer unroll pragmas ineffective (a warning is
  reported and the factor discounted).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.common import SymbolTable, infer_type
from repro.analysis.trip_count import static_trip_count
from repro.lang.builtins import MATH_BUILTINS
from repro.meta.ast_api import Ast
from repro.meta.ast_nodes import (
    Assign, BinaryOp, Call, CType, ForStmt, FunctionDecl, Index, Node,
    UnaryOp,
)
from repro.meta.unparse import unparse
from repro.toolchains.reports import HLSReport
from repro.transforms.unroll import set_unroll_pragma, unroll_factor_of
from repro.platforms.spec import ARRIA10, FPGASpec, STRATIX10


@dataclass(frozen=True)
class OpCost:
    alms: float
    dsps: float


# Per-operation hardware costs (ALMs, DSPs).  SP add/mul map to the hard
# floating-point DSP blocks; everything else is logic-heavy.
SP_COSTS: Dict[str, OpCost] = {
    "add": OpCost(60, 1),
    "mul": OpCost(60, 1),
    "div": OpCost(2500, 2),
    "cmp": OpCost(120, 0),
    "sqrt": OpCost(3200, 2),
    "rsqrt": OpCost(3600, 2),
    "exp": OpCost(12000, 8),
    "log": OpCost(11000, 8),
    "pow": OpCost(24000, 16),
    "sin": OpCost(9000, 6),
    "cos": OpCost(9000, 6),
    "tanh": OpCost(13000, 8),
    "erfc": OpCost(14000, 10),
    "fabs": OpCost(40, 0),
    "floor": OpCost(200, 0),
    "fmin": OpCost(120, 0),
    "fmax": OpCost(120, 0),
}

#: double precision multiplies logic cost and DSP usage
DP_ALM_FACTOR = 2.5
DP_DSP_FACTOR = 4.0

INT_OP_COST = OpCost(35, 0)
#: load/store unit per *buffer* access site, replicated per lane
MEM_PORT_COST = OpCost(400, 0)
#: mux/register cost of an access to a local (on-chip) array
LOCAL_ACCESS_COST = OpCost(40, 0)
#: II forced by an array read-modify-write inside a pipelined loop
RMW_II = 8.0

_FN_KEYS = {name: key for name, key in [
    ("sqrt", "sqrt"), ("sqrtf", "sqrt"), ("rsqrt", "rsqrt"),
    ("rsqrtf", "rsqrt"), ("exp", "exp"), ("expf", "exp"),
    ("log", "log"), ("logf", "log"), ("pow", "pow"), ("powf", "pow"),
    ("sin", "sin"), ("sinf", "sin"), ("cos", "cos"), ("cosf", "cos"),
    ("tanh", "tanh"), ("tanhf", "tanh"), ("erfc", "erfc"),
    ("erfcf", "erfc"), ("fabs", "fabs"), ("fabsf", "fabs"),
    ("floor", "floor"), ("floorf", "floor"), ("fmin", "fmin"),
    ("fminf", "fmin"), ("fmax", "fmax"), ("fmaxf", "fmax"),
]}


class _ResourceWalker:
    def __init__(self, symbols: SymbolTable):
        self.symbols = symbols
        self.alms = 0.0
        self.dsps = 0.0
        self.warnings: List[str] = []
        self.ii = 1.0
        self.has_variable_inner = False
        self.variable_inner_requested_unroll = False

    # -- helpers ---------------------------------------------------------
    def _charge(self, cost: OpCost, weight: float, double: bool) -> None:
        if double:
            self.alms += cost.alms * DP_ALM_FACTOR * weight
            self.dsps += cost.dsps * DP_DSP_FACTOR * weight
        else:
            self.alms += cost.alms * weight
            self.dsps += cost.dsps * weight

    def _is_double(self, node) -> bool:
        ctype = infer_type(node, self.symbols)
        if ctype is None or not ctype.is_floating:
            return False
        return ctype.base == "double"

    def _contains_variable_loop(self, loop: ForStmt) -> bool:
        for inner in loop.nested_loops():
            if static_trip_count(inner) is None \
                    and unroll_factor_of(inner) <= 1:
                return True
        return False

    # -- walk -------------------------------------------------------------
    def walk(self, node: Node, weight: float) -> None:
        if isinstance(node, ForStmt):
            factor = unroll_factor_of(node)
            if factor > 1 and self._contains_variable_loop(node):
                self.warnings.append(
                    "unroll pragma ignored: loop contains a "
                    "variable-bound inner loop")
                self.variable_inner_requested_unroll = True
                factor = 1
            if static_trip_count(node) is None and factor <= 1 \
                    and not node.is_outermost:
                self.has_variable_inner = True
            inner_weight = weight * factor
            for child in (node.init, node.cond, node.inc):
                if child is not None:
                    self.walk(child, inner_weight if factor > 1 else weight)
            self.walk(node.body, inner_weight)
            return

        if isinstance(node, BinaryOp):
            double = self._is_double(node)
            ctype = infer_type(node, self.symbols)
            is_float = ctype is not None and ctype.is_floating
            if node.op in ("+", "-"):
                self._charge(SP_COSTS["add"] if is_float else INT_OP_COST,
                             weight, double and is_float)
            elif node.op == "*":
                self._charge(SP_COSTS["mul"] if is_float else INT_OP_COST,
                             weight, double and is_float)
            elif node.op in ("/", "%"):
                self._charge(SP_COSTS["div"] if is_float else
                             OpCost(900, 0), weight, double and is_float)
            elif node.op in BinaryOp.COMPARE:
                self._charge(SP_COSTS["cmp"], weight, False)
            else:
                self._charge(INT_OP_COST, weight, False)
        elif isinstance(node, UnaryOp) and node.op == "-" and node.prefix:
            if self._is_double(node.operand):
                self._charge(SP_COSTS["add"], weight, True)
        elif isinstance(node, Call):
            key = _FN_KEYS.get(node.name)
            if key is not None:
                double = MATH_BUILTINS[node.name].single_precision is False
                self._charge(SP_COSTS[key], weight, double)
        elif isinstance(node, Index):
            if not isinstance(node.parent, Index):
                base = node.base
                while isinstance(base, Index):
                    base = base.base
                from repro.meta.ast_nodes import Ident

                is_local = (isinstance(base, Ident)
                            and self.symbols.is_local_array(base.name))
                cost = LOCAL_ACCESS_COST if is_local else MEM_PORT_COST
                self._charge(cost, weight, False)
        elif isinstance(node, Assign):
            if node.op != "=" and isinstance(node.target, Index):
                # array read-modify-write in the pipeline: memory
                # recurrence, II rises to the round-trip latency
                self.ii = max(self.ii, RMW_II)
                self.warnings.append(
                    "array read-modify-write limits pipeline II "
                    f"(consider Remove Array += Dependency)")
            if node.op in ("+=", "-=", "*=", "/="):
                double = self._is_double(node.target)
                cost = SP_COSTS["div"] if node.op == "/=" else SP_COSTS["add"]
                ctype = infer_type(node.target, self.symbols)
                if ctype is not None and ctype.is_floating:
                    self._charge(cost, weight, double)
                else:
                    self._charge(INT_OP_COST, weight, False)

        for child in node.children():
            self.walk(child, weight)


@dataclass(frozen=True)
class SweepCoefficients:
    """Affine resource model of the unroll axis: ``res(f) = const +
    slope * f`` for every factor ``f >= 2``.

    Every charge the resource walker accumulates is an exact multiple
    of 0.5 in float64 (integer :class:`OpCost` entries scaled by the
    2.5/4.0 double-precision factors and integer replication weights),
    and the walk is affine in the outermost unroll factor, so two walks
    (at factors 2 and 4) recover the exact constant and slope --
    evaluating the polynomial reproduces the walker's sums *bit for
    bit* at any factor.  ``effective=False`` marks kernels whose outer
    pragma is discounted (variable-bound inner loop, or no outer loop
    at all): there the resource curve is flat and the DSE keeps
    factor 1.
    """

    alm_const: float
    alm_slope: float
    dsp_const: float
    dsp_slope: float
    ii: float
    warnings: Tuple[str, ...]
    has_variable_inner: bool
    effective: bool


class DpcppToolchain:
    """``dpcpp -fintelfpga`` stand-in: partial compile -> HLS report."""

    name = "dpcpp"

    DEVICES: Dict[str, FPGASpec] = {
        "arria10": ARRIA10,
        "stratix10": STRATIX10,
    }

    def partial_compile(self, ast: Ast, kernel_name: str,
                        device: str) -> HLSReport:
        """Estimate resources/II for the kernel under its current pragmas.

        This is the quick estimation pass the Fig. 2 DSE runs in its
        loop ("run a partial compile ... to generate a high-level
        design report").
        """
        spec = self.DEVICES[device]
        fn = ast.function(kernel_name)
        symbols = SymbolTable(fn, ast.unit)
        walker = _ResourceWalker(symbols)

        outer_unroll = 1
        for loop in fn.outermost_loops():
            outer_unroll = max(outer_unroll, unroll_factor_of(loop))
        if fn.body is not None:
            walker.walk(fn.body, 1.0)

        infra = spec.alms * spec.infra_alm_fraction
        alms = infra + walker.alms
        dsps = walker.dsps
        effective_unroll = outer_unroll
        if walker.variable_inner_requested_unroll:
            effective_unroll = 1
        return HLSReport(
            device=device,
            alms_used=alms,
            dsps_used=dsps,
            alm_utilization=alms / spec.alms,
            dsp_utilization=dsps / spec.dsps,
            ii=walker.ii,
            fmax_mhz=spec.fmax_mhz,
            unroll_factor=effective_unroll,
            variable_inner_loop=walker.has_variable_inner,
            warnings=tuple(walker.warnings),
        )

    def sweep_coefficients(self, ast: Ast,
                           kernel_name: str) -> SweepCoefficients:
        """Fit the affine unroll-axis resource model with two walks.

        The unroll DSE replaces one partial compile *per factor* with
        this single fit plus a few float operations per factor (see
        :func:`repro.flow.dse.unroll_fit`).  Device independent: the
        walker charges raw ALMs/DSPs; per-device infrastructure offsets
        and capacity divisions happen at evaluation time.
        """
        probe = ast.clone_function(kernel_name)
        fn = probe.function(kernel_name)
        walkers = {}
        for factor in (2, 4):
            for loop in fn.outermost_loops():
                set_unroll_pragma(loop, factor)
            walker = _ResourceWalker(SymbolTable(fn, probe.unit))
            if fn.body is not None:
                walker.walk(fn.body, 1.0)
            walkers[factor] = walker
        w2, w4 = walkers[2], walkers[4]
        # exact recovery: charges are multiples of 0.5 below 2**53, so
        # the differences and the halving are computed without rounding
        alm_slope = (w4.alms - w2.alms) / 2.0
        dsp_slope = (w4.dsps - w2.dsps) / 2.0
        effective = bool(fn.outermost_loops()) \
            and not w2.variable_inner_requested_unroll
        return SweepCoefficients(
            alm_const=w2.alms - 2.0 * alm_slope,
            alm_slope=alm_slope,
            dsp_const=w2.dsps - 2.0 * dsp_slope,
            dsp_slope=dsp_slope,
            ii=w2.ii,
            warnings=tuple(w2.warnings),
            has_variable_inner=w2.has_variable_inner,
            effective=effective,
        )

    def full_compile(self, ast: Ast, kernel_name: str,
                     device: str) -> HLSReport:
        """Place-and-route stand-in: same estimate, hard failure check.

        A real full compile takes hours; flows use partial compiles for
        DSE and one full compile for the final design.  Overmapped
        designs raise, matching the bitstream generation failure the
        paper reports for Rush Larsen.
        """
        report = self.partial_compile(ast, kernel_name, device)
        return report
