"""Seeded input generators for the three benchmark workloads.

Everything here is plain Python and numpy: the generators build DSL
text, job specs and numpy reference evaluations without importing the
program under test, so the references cannot inherit its bugs.

The size and kind mixes are *stratified*: every block of ``BLOCK``
compile requests takes one kernel size from the midpoint of each of
``BLOCK`` quantile strata, and every job chunk has the same kind mix;
the seed picks the order and the content of every kernel, graph and
job. Two seeds therefore see different inputs with the same size and
kind distribution, which keeps percentiles comparable across seeds
while no input repeats.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

#: Why each workload exists (mirrored in BENCHMARK.json and README.md).
WORKLOADS: Dict[str, str] = {
    "compile-cold": (
        "distinct generated pipelines, so DSE pricing, IR passes, "
        "HLS scheduling/synthesis and backend codegen do the work and "
        "every cache lookup misses and stores"
    ),
    "recompile-warm": (
        "the repro-run edit loop on a small spec set with warm caches, "
        "so DSE and analysis only hit and the kernel-DSL frontend "
        "dominates"
    ),
    "service-drain": (
        "a closed-loop client and one launcher draining a job mix, so "
        "no compiler runs and the job store, workflow engines, "
        "simulator, chaos generation and journal do the work"
    ),
}

#: Requests per stratified block.
BLOCK = 20
#: Largest generated kernel, in fused statements (the ben-hotpath shape).
MAX_STATEMENTS = 300
#: Exponent shaping the heavy tail: statements = MAX ** (u ** SKEW).
SKEW = 1.6


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


#: Bounded activations: each maps to (DSL template, numpy function).
#: Every statement is ``act(prev) * U + V`` with |act| <= e and inputs in
#: [-1, 1], so values stay small and float32 error stays far below the
#: check tolerance however long the chain is.
ACTIVATIONS: Dict[str, Tuple[str, Callable]] = {
    "tanh": ("tanh({})", np.tanh),
    "sigmoid": ("sigmoid({})", _sigmoid),
    "exp-sigmoid": ("exp(sigmoid({}))", lambda x: np.exp(_sigmoid(x))),
    "relu-tanh": ("relu(tanh({}))", lambda x: np.maximum(np.tanh(x), 0)),
}


@dataclass
class Kernel:
    """One generated kernel: DSL text plus its numpy reference."""

    name: str
    source: str
    #: (parameter name, shape, sensitive) in signature order
    params: List[Tuple[str, Tuple[int, ...], bool]]
    result_shape: Tuple[int, ...]
    statements: int
    #: elementwise chain as (activation, U index, V index) over params;
    #: matmul kernels start from ``tanh(P0 @ P1 + P2)``
    chain: List[Tuple[str, int, int]]
    matmul: bool = False

    def reference(self, *arrays: np.ndarray) -> np.ndarray:
        """Evaluate the kernel's expression with numpy in float64."""
        values = [np.asarray(a, dtype=np.float64) for a in arrays]
        if self.matmul:
            prev = np.tanh(values[0] @ values[1] + values[2])
        else:
            prev = values[0]
        for act, u, v in self.chain:
            prev = ACTIVATIONS[act][1](prev) * values[u] + values[v]
        return prev + values[-1] if not self.matmul else prev

    def inputs(self, rng: np.random.Generator) -> List[np.ndarray]:
        """Seeded float32 arguments in [-1, 1]."""
        return [
            rng.uniform(-1.0, 1.0, size=shape).astype(np.float32)
            for _name, shape, _sensitive in self.params
        ]


@dataclass
class PipelineSpec:
    """A generated pipeline: kernels in task order plus their wiring."""

    name: str
    kernels: List[Kernel]
    #: per kernel, per parameter: ("source", None) or ("task", index)
    wiring: List[List[Tuple[str, int]]] = field(default_factory=list)
    sensitive: bool = False

    @property
    def statements(self) -> int:
        """Fused statements over all kernels."""
        return sum(kernel.statements for kernel in self.kernels)


def statements_for(u: float, largest: int = MAX_STATEMENTS) -> int:
    """Heavy-tailed statement count for quantile ``u`` in [0, 1)."""
    return max(1, int(round(largest ** (u ** SKEW))))


def _chain(rng: random.Random, length: int,
           params: int) -> List[Tuple[str, int, int]]:
    names = sorted(ACTIVATIONS)
    return [
        (rng.choice(names), rng.randrange(params), rng.randrange(params))
        for _ in range(length)
    ]


def _param_decl(name: str, shape: Tuple[int, ...], sensitive: bool) -> str:
    dims = "x".join(str(d) for d in shape)
    mark = " @sensitive" if sensitive else ""
    return f"{name}: tensor<{dims}xf32>{mark}"


def _render(kernel: Kernel) -> str:
    params = [name for name, _shape, _sensitive in kernel.params]
    lines = []
    if kernel.matmul:
        lines.append(f"  T0 = tanh({params[0]} @ {params[1]} + {params[2]})")
        prev, start = "T0", 1
    else:
        prev, start = params[0], 0
    for index, (act, u, v) in enumerate(kernel.chain, start=start):
        call = ACTIVATIONS[act][0].format(prev)
        lines.append(f"  T{index} = {call} * {params[u]} + {params[v]}")
        prev = f"T{index}"
    if not kernel.matmul:
        lines.append(f"  Y = {prev} + {params[-1]}")
        prev = "Y"
    decls = ", ".join(_param_decl(*p) for p in kernel.params)
    dims = "x".join(str(d) for d in kernel.result_shape)
    return (
        f"kernel {kernel.name}({decls})\n"
        f"        -> tensor<{dims}xf32> {{\n"
        + "\n".join(lines)
        + f"\n  return {prev}\n}}\n"
    )


def elementwise_kernel(rng: random.Random, name: str, statements: int,
                       shape: Tuple[int, ...], sensitive: bool,
                       count: int = 2) -> Kernel:
    """A fused elementwise chain of ``statements`` over ``count`` inputs."""
    params = [
        (f"P{index}", shape, sensitive and index == count - 1)
        for index in range(count)
    ]
    kernel = Kernel(
        name=name, source="", params=params, result_shape=shape,
        statements=statements,
        chain=_chain(rng, max(0, statements - 1), count),
    )
    kernel.source = _render(kernel)
    return kernel


def matmul_kernel(rng: random.Random, name: str, statements: int,
                  sensitive: bool, dims: Tuple[int, int, int]) -> Kernel:
    """``tanh(A @ W + B)`` followed by an elementwise chain over B."""
    m, k, n = dims
    params = [
        ("P0", (m, k), False),
        ("P1", (k, n), False),
        ("P2", (m, n), sensitive),
    ]
    kernel = Kernel(
        name=name, source="", params=params, result_shape=(m, n),
        statements=statements, matmul=True,
        # the chain may only use the m x n parameter
        chain=[(act, 2, 2) for act, _u, _v in
               _chain(rng, max(0, statements - 1), 3)],
    )
    kernel.source = _render(kernel)
    return kernel


#: Kinds of one block, 70% single kernels, 15% matmul, 15%
#: matmul-headed multi-kernel pipelines; and 30% of each block sensitive.
BLOCK_KINDS = ("single",) * 14 + ("matmul",) * 3 + ("multi",) * 3
BLOCK_SENSITIVE = (True,) * 6 + (False,) * 14
#: Elementwise shapes and matmul (m, k, n) sizes.
SHAPES = ((64,), (128,), (256,))
MATMUL_DIMS = ((8, 16, 8), (16, 8, 16), (16, 16, 16))


def _van_der_corput(n: int) -> float:
    """The n-th point of the base-2 low-discrepancy sequence in (0, 1)."""
    point, scale = 0.0, 1.0
    while n:
        scale /= 2
        n, bit = divmod(n, 2)
        point += bit * scale
    return point


def block_plan(block: int) -> List[Tuple[float, str, bool, int]]:
    """``(size quantile, kind, sensitive, variant)`` of one block's slots.

    The plan depends only on the block number, never on the seed: every
    block takes one size from each of ``BLOCK`` quantile strata, at an
    offset inside the stratum that differs per block, and rotates kinds,
    sensitivity and shapes across the strata. A run's blocks therefore
    cover the size distribution smoothly and identically for every seed;
    the seed picks the order and every kernel's expression.
    """
    offset = _van_der_corput(block + 1)
    return [
        ((slot + offset) / BLOCK,
         BLOCK_KINDS[(slot * 7 + block * 3) % BLOCK],
         BLOCK_SENSITIVE[(slot * 3 + block * 7) % BLOCK],
         slot + block)
        for slot in range(BLOCK)
    ]


def pipeline_stream(seed: int, stream: int = 0, streams: int = 1):
    """Endless seeded stream of distinct pipelines (compile-cold).

    Measurement process ``stream`` of ``streams`` takes every
    ``streams``-th block plan, so the processes of one run compile
    kernels no other process has seen and together cover the first
    blocks of the plan.
    """
    rng = random.Random(f"pipelines/{seed}/{stream}")
    index = 0
    for block in itertools.count(stream, streams):
        plan = block_plan(block)
        rng.shuffle(plan)
        for quantile, kind, sensitive, variant in plan:
            yield make_pipeline(
                rng, f"s{stream}r{index}", kind,
                statements_for(quantile), sensitive, variant,
            )
            index += 1


def make_pipeline(rng: random.Random, name: str, kind: str,
                  statements: int, sensitive: bool,
                  variant: int = 0) -> PipelineSpec:
    """One pipeline of ``kind`` with ``statements`` statements in total.

    ``variant`` fixes the tensor shapes, input count and pipeline
    length, so the seed varies only the expressions.
    """
    dims = MATMUL_DIMS[variant % len(MATMUL_DIMS)]
    if kind == "single":
        kernel = elementwise_kernel(rng, f"{name}k0", statements,
                                    SHAPES[variant % len(SHAPES)],
                                    sensitive, 2 + variant % 2)
        return PipelineSpec(name, [kernel], [[("source", 0)] * len(kernel.params)],
                            sensitive)
    if kind == "matmul":
        kernel = matmul_kernel(rng, f"{name}k0", statements, sensitive,
                               dims)
        return PipelineSpec(name, [kernel], [[("source", 0)] * 3], sensitive)
    # multi: a matmul head feeding one or two elementwise kernels
    tail = 1 + variant % 2
    head_size = max(1, statements // (tail + 1))
    head = matmul_kernel(rng, f"{name}k0", head_size, sensitive, dims)
    kernels = [head]
    wiring = [[("source", 0)] * 3]
    remaining = max(tail, statements - head_size)
    for position in range(1, tail + 1):
        size = max(1, remaining // tail)
        kernel = elementwise_kernel(rng, f"{name}k{position}", size,
                                    head.result_shape, False)
        kernels.append(kernel)
        wiring.append([("task", position - 1)]
                      + [("source", 0)] * (len(kernel.params) - 1))
    return PipelineSpec(name, kernels, wiring, sensitive)


# -- recompile-warm ------------------------------------------------------

#: Generated .edsl specs in the warm working set, next to the examples.
WARM_SPECS = 4
#: Largest warm-set kernel (edit-loop kernels are modest).
WARM_LARGEST = 40
#: The two examples that carry kernel DSL.
WARM_EXAMPLES = ("examples/quickstart.py", "examples/secure_pipeline.py")


def warm_specs(seed: int) -> List[Tuple[str, List[Kernel]]]:
    """``(file name, kernels)`` for the generated warm-set specs."""
    rng = random.Random(f"warm/{seed}")
    specs = []
    for index in range(WARM_SPECS):
        total = statements_for((index + 0.5) / WARM_SPECS, WARM_LARGEST)
        count = 1 if index % 2 == 0 else 2
        kernels = [
            elementwise_kernel(
                rng, f"w{index}k{position}", max(1, total // count),
                SHAPES[index % len(SHAPES)],
                sensitive=position == 0 and index == 1,
            )
            for position in range(count)
        ]
        specs.append((f"warm{index}.edsl", kernels))
    return specs


def warm_order(seed: int, stream: int, specs: int):
    """Endless seeded visiting order over ``specs`` spec indices."""
    rng = random.Random(f"warm-order/{seed}/{stream}")
    while True:
        cycle = list(range(specs))
        rng.shuffle(cycle)
        yield from cycle


#: numpy references for the example kernels, keyed by kernel name.
EXAMPLE_REFERENCES: Dict[str, Callable] = {
    "score": lambda x, g, b: _sigmoid(np.exp(x) * g + b),
    "detrend": lambda x, b: x - b,
    "classify": lambda x, w: np.sum(_sigmoid(x * w)).reshape(1),
}


# -- service-drain -------------------------------------------------------

#: Jobs per submitted chunk and the chunk's kind mix.
CHUNK = 20
CHUNK_MIX = ("noop",) * 15 + ("graph",) * 2 + ("chaos",) * 2 + ("durable",)
#: Task count of the first and second graph job of a chunk.
GRAPH_TASKS = (6, 12)
#: Finished jobs pre-filled into the store during set-up.
HISTORY_JOBS = 4000


def job_chunks(seed: int, stream: int = 0):
    """Endless seeded stream of job chunks: lists of (name, kind, spec).

    Each chunk holds one durable chaos job whose spec equals one of the
    chunk's plain chaos jobs plus ``durable: true``, so the durable
    result can be checked against its non-durable twin.
    """
    rng = random.Random(f"jobs/{seed}/{stream}")
    index = 0
    while True:
        kinds = list(CHUNK_MIX)
        rng.shuffle(kinds)
        chunk = []
        chaos_specs = []
        for slot, kind in enumerate(kinds):
            name = f"s{stream}j{index}"
            index += 1
            if kind == "noop":
                spec = {"n": index, "payload": rng.getrandbits(64)}
            elif kind == "graph":
                graphs = sum(1 for _n, k, _s in chunk if k == "graph")
                spec = {"seed": rng.getrandbits(31),
                        "tasks": GRAPH_TASKS[graphs], "workers": 2}
            else:
                spec = {"graph_seed": rng.getrandbits(31),
                        "fault_seed": rng.getrandbits(31),
                        "tasks": 9, "workers": 3}
                chaos_specs.append((slot, spec))
            chunk.append([name, "chaos" if kind == "durable" else kind,
                          spec])
        # pair every durable slot with a plain chaos twin in the chunk
        durable = [slot for slot, kind in enumerate(kinds)
                   if kind == "durable"]
        plain = [spec for slot, spec in chaos_specs
                 if kinds[slot] == "chaos"]
        for slot, twin in zip(durable, plain):
            chunk[slot][2] = dict(twin, durable=True)
        yield [tuple(job) for job in chunk]
