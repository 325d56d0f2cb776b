"""Seeded generator of small UHL kernels for differential testing.

Every kernel is a complete program -- ``main`` plus up to two pointer
helpers -- built from the constructs the execution engines must agree
on: loop nests of depth 1-3 (the outer loop affine over ``n >= 16``),
gathers through an index buffer, loop-carried dependences, calls with
pointer parameters (the same buffer twice, offset pointers), timers
around and inside loops, ``break``/``continue``/``return`` in loops,
``while``/``do``-``while``, int ``/`` and ``%`` on negative operands,
math builtins, ``rand01`` and ``ws_*`` inputs.  A few kernels fault on
purpose (out-of-bounds accesses, division by zero).

Each kernel carries *labels* naming the features it exercises, so a
test can check that a corpus covers them all.  The builder takes its
decisions from a chooser: :func:`generate` draws them from a seeded
:class:`random.Random`, :func:`kernels` from Hypothesis (which can then
shrink a failing kernel)::

    python -m tests.lang.kernelgen 7      # print kernel #7
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence

from repro.lang.interpreter import Workload

#: every label some kernel of a large enough corpus carries
FEATURES = frozenset({
    "depth1", "depth2", "depth3", "affine16", "gather", "carried",
    "call_ptr", "same_buffer", "offset_ptr", "timer_around",
    "timer_inside", "break", "continue", "return_in_loop", "while",
    "do_while", "neg_div", "neg_mod", "math", "rand01", "ws",
    "fault_oob", "fault_div0", "global", "pointer_walk", "cost_before_call",
    "int_helper", "recursion", "pointer_diff", "global_array", "bool",
    "mixed_return",
})


@dataclass
class Kernel:
    source: str
    scalars: Dict[str, float]
    arrays: Dict[str, List[float]]
    labels: set = field(default_factory=set)

    def workload(self) -> Workload:
        return Workload(self.scalars, self.arrays, seed=7)


class _Choices:
    """The decisions a kernel is built from."""

    def __init__(self, integer: Callable[[int, int], int]):
        self.integer = integer

    def pick(self, options: Sequence):
        return options[self.integer(0, len(options) - 1)]

    def chance(self, percent: int) -> bool:
        return self.integer(0, 99) < percent


_PRELUDE = """double gscale = 0.5;
int gcount = 0;
double garr[4];

int count_small(const int* v, int m, int limit) {
    int c = 0;
    for (int j = 0; j < m; j++) {
        if (v[j] < limit) {
            c++;
        }
    }
    return c;
}

int fib(int x) {
    if (x < 2) {
        return x;
    }
    return fib(x - 1) + fib(x - 2);
}"""

_FLOAT_LITS = ("0.5", "1.25", "2.0", "0.75", "3.5", "0.1")
_MATH1 = ("sqrt(fabs({}))", "exp(fmin({}, 4.0))", "sin({})", "cos({})",
          "floor({})", "fabs({})", "log(fabs({}) + 1.0)", "tanh({})",
          "erfc({})", "sqrtf(fabs({}))")


class _Builder:
    def __init__(self, ch: _Choices):
        self.ch = ch
        self.labels: set = set()
        self.helper_names: List[str] = []
        self.timers = 0
        self.loop_vars: List[str] = []   # innermost last
        self.const_vars: List[str] = []  # inner loop vars, values < 4
        self.nloop = 0
        self.in_helper = False
        self.fault_left = 1 if ch.chance(12) else 0

    # -- expressions ------------------------------------------------------
    def index(self) -> str:
        """An in-bounds index into a main buffer (n + 4 elements)."""
        ch = self.ch
        if not self.loop_vars:
            return str(ch.integer(0, 3))
        outer = self.loop_vars[0] if not self.in_helper else "j"
        step = 1 if self.in_helper else ch.integer(1, 3)
        forms = [outer, f"{outer} + {step}"]
        if not self.in_helper:
            forms += [f"n - 1 - {outer}", f"idx[{outer}]"]
            if self.const_vars:
                forms.append(f"{outer} + {self.const_vars[-1]}")
        form = ch.pick(forms)
        if form.startswith("idx"):
            self.labels.add("gather")
        return form

    def fexpr(self, depth: int = 0) -> str:
        ch = self.ch
        if depth > 2:
            names = ("t", "gscale") if self.in_helper else ("acc", "s")
            return ch.pick(_FLOAT_LITS + names)
        kind = ch.integer(0, 9)
        if kind == 0:
            return ch.pick(_FLOAT_LITS)
        if kind == 1:
            return ch.pick(("acc", "s", "gscale") if not self.in_helper
                           else ("t", "gscale"))
        if kind == 2:
            if self.in_helper:
                return f"{ch.pick(('p', 'q'))}[{self.index()}]"
            return f"{ch.pick(('a', 'b'))}[{self.index()}]"
        if kind == 3:
            op = ch.pick(("+", "-", "*"))
            return f"({self.fexpr(depth + 1)} {op} {self.fexpr(depth + 1)})"
        if kind == 4:
            return (f"({self.fexpr(depth + 1)} / "
                    f"(fabs({self.fexpr(depth + 1)}) + 1.0))")
        if kind == 5:
            self.labels.add("math")
            return ch.pick(_MATH1).format(self.fexpr(depth + 1))
        if kind == 6:
            self.labels.add("rand01")
            return "rand01()"
        if kind == 7:
            return f"(double){self.iexpr(depth + 1)}"
        if kind == 8:
            return (f"({self.cond(depth + 1)} ? {self.fexpr(depth + 1)} : "
                    f"{self.fexpr(depth + 1)})")
        if self.in_helper:
            return f"*(p + {self.index()})"
        if ch.chance(50):
            return f"tmp[{self.iexpr(depth + 1)} & 7]"
        return f"fmax({self.fexpr(depth + 1)}, {self.fexpr(depth + 1)})"

    def iexpr(self, depth: int = 0) -> str:
        ch = self.ch
        names = (["k", "n", "gcount"] if not self.in_helper
                 else ["m", "gcount"]) + self.loop_vars
        if depth > 2:
            return ch.pick(names + ["3", "7"])
        kind = ch.integer(0, 6)
        if kind == 0:
            return str(ch.integer(-5, 9))
        if kind == 1:
            return ch.pick(names)
        if kind == 2:
            op = ch.pick(("+", "-", "*"))
            return f"({self.iexpr(depth + 1)} {op} {self.iexpr(depth + 1)})"
        if kind == 3:
            div = ch.pick(("/", "%"))
            self.labels.add("neg_div" if div == "/" else "neg_mod")
            return (f"(({self.iexpr(depth + 1)} - 20) {div} "
                    f"{ch.pick(('3', '-4', '7', '-2'))})")
        if kind == 4 and not self.in_helper and self.loop_vars:
            self.labels.add("gather")
            return f"idx[{self.loop_vars[0]}]"
        if kind == 5:
            return f"({self.fexpr(depth + 1)} < {self.fexpr(depth + 1)})"
        return f"(int)floor(fmin(fmax({self.fexpr(depth + 1)}, -50.0), 50.0))"

    def cond(self, depth: int = 0) -> str:
        ch = self.ch
        kind = ch.integer(0, 3)
        if kind == 0:
            return f"({self.iexpr(depth + 1)} % 3 == {ch.integer(0, 2)})"
        if kind == 1:
            return f"({self.fexpr(depth + 1)} > {self.fexpr(depth + 1)})"
        if kind == 2:
            return (f"({self.iexpr(depth + 1)} > 2 && "
                    f"{self.fexpr(depth + 1)} < 1.5)")
        name = "m" if self.in_helper else "k"
        return f"(!({self.iexpr(depth + 1)} > 4) || {name} < 0)"

    # -- statements -------------------------------------------------------
    def simple(self) -> str:
        ch = self.ch
        kind = ch.integer(0, 11)
        if self.in_helper:
            if kind <= 2:
                return f"p[{self.index()}] = {self.fexpr()};"
            if kind == 3:
                return f"p[{self.index()}] += {self.fexpr()};"
            if kind == 4:
                return "gcount = gcount + 1;"
            return f"t = t + {self.fexpr()};"
        if kind == 0:
            return f"acc = acc + {self.fexpr()};"
        if kind == 1:
            return f"k = ({self.iexpr()}) % 97;"
        if kind == 2:
            arr = ch.pick(("a", "b"))
            return f"{arr}[{self.index()}] = {self.fexpr()};"
        if kind == 3 and self.loop_vars:
            self.labels.add("carried")
            i = self.loop_vars[0]
            return f"a[{i} + 1] = a[{i}] * 0.5 + {self.fexpr()};"
        if kind == 4 and self.helper_names and not self.const_vars:
            return self.call()
        if kind == 5:
            return f"tmp[{self.iexpr()} & 7] = {self.fexpr()};"
        if kind == 6:
            return f"*(b + {self.index()}) = {self.fexpr()};"
        if kind == 7:
            return f"{ch.pick(('a', 'b'))}[{self.index()}]++;"
        if kind == 8 and self.loop_vars:
            i = self.loop_vars[0]
            return f"idx[{i}] = (idx[{i}] + {ch.integer(1, 5)}) % n;"
        if kind == 10:
            return self.extra()
        if kind == 9:
            # a pointer walked through a buffer
            self.labels.add("pointer_walk")
            return (f"w = {ch.pick(('a', 'b'))} + {ch.integer(0, 3)}; "
                    f"acc = acc + *w; w++; *w = {self.fexpr()};")
        return f"b[{self.index()}] += {self.fexpr()};"

    def call(self) -> str:
        ch = self.ch
        name = ch.pick(self.helper_names)
        self.labels.add("call_ptr")
        form = ch.integer(0, 3)
        if form == 0:
            args = "a, b, n"
        elif form == 1:
            self.labels.add("same_buffer")
            args = f"{ch.pick(('a', 'b'))}, {ch.pick(('a', 'b'))}, n"
        else:
            self.labels.add("offset_ptr")
            args = f"a + {ch.integer(1, 2)}, b + {ch.integer(0, 2)}, n - 2"
        lhs = ch.pick(("acc = acc + ", "acc = gscale + ", "",
                       "acc = acc * 0.5 + "))
        if lhs == "acc = gscale + ":
            self.labels.add("global")
        if lhs.endswith("* 0.5 + "):
            # static cost evaluated before a call that may read the clock
            self.labels.add("cost_before_call")
        return f"{lhs}{name}({args});"

    def extra(self) -> str:
        """Less common shapes: int helpers, recursion, pointer
        arithmetic, globals arrays, bools."""
        ch = self.ch
        kind = ch.integer(0, 4)
        if kind == 0:
            self.labels.add("int_helper")
            return f"k = (k + count_small(idx, n, {ch.integer(0, 9)})) % 97;"
        if kind == 1:
            self.labels.add("recursion")
            return f"k = (k + fib({self.iexpr(2)} & 7)) % 97;"
        if kind == 2:
            self.labels.add("pointer_diff")
            return (f"w = &b[{self.index()}]; "
                    f"k = (k + (w - b) + (w == b)) % 97;")
        if kind == 3:
            self.labels.add("global_array")
            return (f"garr[{self.iexpr()} & 3] += {self.fexpr()}; "
                    f"acc = acc + garr[k & 3];")
        self.labels.add("bool")
        return f"flag = {self.cond()}; if (flag) {{ k = k + 1; }}"

    def fault(self) -> str:
        ch = self.ch
        kind = ch.integer(0, 4)
        if kind == 0:
            self.labels.add("fault_oob")
            return f"acc = acc + a[n + {ch.integer(4, 8)}];"
        if kind == 1:
            self.labels.add("fault_oob")
            return f"b[n + {ch.integer(4, 8)}] = 1.0;"
        if kind == 2:
            self.labels.add("fault_oob")
            return "acc = acc + a[k - 1000];"
        if kind == 3:
            self.labels.add("fault_oob")
            return "acc = acc + *(b - 1);"
        self.labels.add("fault_div0")
        return f"k = k {ch.pick(('/', '%'))} (n - n);"

    def block(self, depth: int, count: int) -> List[str]:
        out = []
        for _ in range(count):
            out.extend(self.stmt(depth))
        return out

    def stmt(self, depth: int) -> List[str]:
        ch = self.ch
        if self.fault_left and not self.in_helper and ch.chance(15):
            self.fault_left = 0
            return [self.fault()]
        roll = ch.integer(0, 9)
        if roll <= 2 and depth < 3:
            return self.loop(depth)
        if roll == 3 and self.loop_vars and not self.in_helper:
            return self.jump()
        if roll == 4:
            return [f"if {self.cond()} {{"] + self.indent(
                self.block(depth, ch.integer(1, 2))) + ["} else {"] \
                + self.indent(self.block(depth, 1)) + ["}"]
        if roll == 5 and not self.in_helper and self.timers < 3:
            return self.timed(depth)
        return [self.simple()]

    def jump(self) -> List[str]:
        kind = self.ch.pick(("break", "continue", "return"))
        self.labels.add("return_in_loop" if kind == "return" else kind)
        stmt = "return k;" if kind == "return" else f"{kind};"
        return [f"if {self.cond()} {{", f"    {stmt}", "}"]

    def timed(self, depth: int) -> List[str]:
        self.timers += 1
        key = f"t{self.timers}"
        self.labels.add("timer_inside" if self.loop_vars else "timer_around")
        body = self.loop(depth) if depth < 3 else [self.simple()]
        return [f'timer_start("{key}");'] + body + [f'timer_stop("{key}");']

    def loop(self, depth: int) -> List[str]:
        ch = self.ch
        self.nloop += 1
        var = f"i{self.nloop}"
        self.labels.add(f"depth{depth + 1}")
        if self.in_helper:
            head, tail = f"for (int {var} = 0; {var} < 2; {var}++) {{", []
        elif not self.loop_vars:
            self.labels.add("affine16")
            head, tail = f"for (int {var} = 0; {var} < n; {var}++) {{", []
        else:
            bound = ch.integer(2, 3)
            shape = ch.integer(0, 2)
            if shape == 0:
                head, tail = (f"for (int {var} = 0; {var} < {bound}; "
                              f"{var}++) {{"), []
            elif shape == 1:
                self.labels.add("while")
                head = f"int {var} = 0; while ({var} < {bound}) {{"
                tail = []
            else:
                self.labels.add("do_while")
                head = f"int {var} = 0; do {{"
                tail = [f"}} while ({var} < {bound});"]
        # the outer main loop's variable indexes buffers; inner ones
        # only offset it (their values stay below 4)
        scope = None
        if not self.in_helper:
            scope = self.const_vars if self.loop_vars else self.loop_vars
            scope.append(var)
        # while/do-while count first, so `continue` cannot skip it
        prefix = [] if head.startswith("for") else [f"{var}++;"]
        body = prefix + self.block(depth + 1, ch.integer(1, 3))
        if scope is not None:
            scope.pop()
        close = tail if tail else ["}"]
        return [head] + self.indent(body) + close

    @staticmethod
    def indent(lines: List[str]) -> List[str]:
        return ["    " + line for line in lines]

    # -- program ----------------------------------------------------------
    def helper(self, number: int) -> str:
        ch = self.ch
        name = f"h{number}"
        self.in_helper = True
        saved = self.loop_vars
        self.loop_vars = ["j"]
        body = self.block(1, ch.integer(1, 3))
        self.loop_vars = saved
        self.in_helper = False
        timed = ch.chance(30)
        lines = [f"double {name}(double* p, const double* q, int m) {{",
                 "    double t = 0.0;"]
        if timed:
            self.labels.add("timer_inside")
            lines.append(f'    timer_start("{name}");')
        lines += ["    for (int j = 0; j < m; j++) {"]
        lines += ["        " + line for line in body]
        if ch.chance(25):
            # an int return in a double function: callers cannot rely
            # on the result's kind
            self.labels.add("mixed_return")
            lines += ["        if (t > 40.0) {", "            return 0;",
                      "        }"]
        lines += ["    }"]
        if timed:
            lines.append(f'    timer_stop("{name}");')
        lines += ["    return t;", "}"]
        self.helper_names.append(name)
        return "\n".join(lines)

    def program(self) -> str:
        ch = self.ch
        self.labels.update(("ws", "global"))
        helpers = [self.helper(i) for i in range(ch.integer(0, 2))]
        body = self.block(0, ch.integer(2, 4))
        main = ["int main() {",
                '    int n = ws_int("n");',
                '    double s = ws_double("s");',
                '    double* a = ws_array_double("a", n + 4);',
                '    double* b = ws_array_double("b", n + 4);',
                '    int* idx = ws_array_int("idx", n + 4);',
                "    double tmp[8];",
                "    double acc = 0.0;",
                "    double* w = a;",
                "    bool flag = false;",
                "    int k = 1;"]
        main += self.indent(body)
        main += ['    printf("%g %d %d\\n", acc, k, gcount);',
                 "    return k;", "}"]
        return "\n\n".join([_PRELUDE] + helpers + ["\n".join(main)])


def build(integer: Callable[[int, int], int]) -> Kernel:
    """Build one kernel from an integer chooser ``integer(lo, hi)``."""
    ch = _Choices(integer)
    builder = _Builder(ch)
    source = builder.program()
    n = ch.integer(16, 20)
    scalars = {"n": n, "s": ch.pick((0.5, -1.25, 2.0))}
    data = random.Random(ch.integer(0, 1 << 16))
    arrays = {
        "a": [data.randint(-40, 40) / 8.0 for _ in range(n + 4)],
        "b": [data.randint(-40, 40) / 8.0 for _ in range(n + 4)],
        "idx": [data.randint(0, n - 1) for _ in range(n + 4)],
    }
    return Kernel(source, scalars, arrays, builder.labels)


def generate(seed: int) -> Kernel:
    """The kernel with number ``seed``."""
    rng = random.Random(seed)
    return build(rng.randint)


def kernels():
    """A Hypothesis strategy of kernels (shrinks toward small ones)."""
    from hypothesis import strategies as st

    @st.composite
    def strategy(draw):
        return build(lambda lo, hi: draw(st.integers(lo, hi)))

    return strategy()


if __name__ == "__main__":
    print(generate(int(sys.argv[1]) if len(sys.argv) > 1 else 0).source)
