"""A reference interpreter for the IR: the executable semantics of the stack.

The real stack hands lowered IR to LLVM and runs native code; here the same
lowered programs are executed by walking the IR.  Two levels are supported and
produce identical results, bit for bit:

* **stencil level** — ``stencil.apply`` is evaluated *vectorised* with numpy
  over the whole store domain (fast; used as the reference semantics and by
  the frontends' "native" execution paths);
* **lowered level** — after ``convert-stencil-to-scf`` (and optionally the
  dmp/mpi lowerings) the loop nests, memref accesses, OpenMP/GPU structure and
  MPI calls are interpreted operation by operation (slow; the reference every
  compiled run is checked against, and the runner of a megakernel's
  *islands* — the ops :mod:`repro.interp.codegen` cannot fuse, walked in
  place in program order).

Every exchange blocks here: ``dmp.swap`` posts its sends and receives
(:func:`post_swap`) and lands them (:func:`complete_swap`) before the next
op, since a walker that reads cells one by one has nothing to overlap them
with.  Only a megakernel splits the pair around its interior boxes.

Every ``arith`` op computes what its record in the op table
(:data:`repro.dialects.arith.SEMANTICS`) says, and every level follows the
arithmetic rule stated beside it: widen on load, compute wide, round on
store (``memref.load``/``memref.store`` per cell, ``stencil.access``/
``stencil.store`` per region: :func:`_widened`).

Distributed programs execute against a :class:`~repro.interp.mpi_runtime.SimulatedMPI`
world: each rank runs one interpreter instance in its own thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..dialects import arith, builtin, dmp, func, gpu, hls, memref, mpi, omp, scf, stencil
from ..ir.core import Block, Operation, SSAValue
from ..transforms.mpi.mpi_to_func import MPICH_OP_CONSTANTS
from .mpi_runtime import Communicator
from .values import DataTypeValue, MemRefValue, PointerValue, RequestHandle

class InterpreterError(Exception):
    """Raised when a program cannot be executed (unknown op, bad structure...)."""


@dataclass
class ExecStatistics:
    """Counters describing one execution (consumed by tests and cost models)."""

    ops_executed: int = 0
    kernel_launches: int = 0
    host_synchronizations: int = 0
    omp_regions: int = 0
    omp_barriers: int = 0
    halo_swaps: int = 0
    halo_elements_exchanged: int = 0
    mpi_messages: int = 0
    cells_updated: int = 0
    #: Halo exchanges whose completion was deferred past interior compute
    #: (the communication/computation overlap of the hybrid runtime).
    halo_swaps_overlapped: int = 0


class _ReturnSignal(Exception):
    """Internal: unwinds the interpreter stack on func.return."""

    def __init__(self, values: list[Any]):
        self.values = values


Handler = Callable[["Interpreter", Operation, dict], None]
_HANDLERS: dict[str, Handler] = {}


def handler(op_name: str) -> Callable[[Handler], Handler]:
    def register(fn: Handler) -> Handler:
        _HANDLERS[op_name] = fn
        return fn

    return register


class PendingHalo:
    """A ``dmp.swap`` of ``array`` whose receives are (to be) in flight.

    ``plan`` is the swap's :class:`SwapMessagePlan`; ``staged`` holds one
    receive request per receive of the plan once :func:`post_swap` posted
    it, each on its ``recv_slice`` view of the array, and
    :func:`complete_swap` waits for them, which lands the halos.  Between
    the two, a megakernel computes every region it can prove independent of
    the plan's ``recv_slice`` boxes — the communication/computation overlap
    of the hybrid runtime.
    """

    __slots__ = ("array", "plan", "staged")

    def __init__(self, array: np.ndarray, plan: "SwapMessagePlan", staged=()):
        self.array = array
        self.plan = plan
        self.staged = staged


def post_swap(comm, array: np.ndarray, plan: "SwapMessagePlan") -> PendingHalo:
    """Post one ``dmp.swap``: buffered sends first, then the receives.

    Every transport's ``isend`` copies its payload at post time, so the
    sends read the array's ``send_slice`` views directly; and a receive
    writes its buffer only when waited on, so the receives are posted on the
    ``recv_slice`` views themselves and land in :func:`complete_swap`.  The
    one post/complete pair of the repo: the swap handler calls it back to
    back (wrapped in counters and spans), generated megakernels call its
    halves at the points they choose (their statistics are hoisted).
    """
    for send_slice, neighbor, tag in plan.sends:
        comm.isend(array[send_slice], neighbor, tag)
    return PendingHalo(array, plan, [
        comm.irecv(array[recv_slice], neighbor, tag)
        for recv_slice, neighbor, tag, _elements, _axis in plan.receives
    ])


def complete_swap(comm, halo: PendingHalo) -> None:
    """Wait for a posted swap's receives, landing them in posting order."""
    for request in halo.staged:
        comm.wait(request)


class RequestArray:
    """Runtime value of mpi.allocate_requests: a list of request slots."""

    def __init__(self, count: int):
        self.slots: list[RequestHandle] = [RequestHandle() for _ in range(count)]


class RequestRef:
    """Runtime value of mpi.get_request: one slot of a request array."""

    def __init__(self, array: RequestArray, index: int):
        self.array = array
        self.index = index

    @property
    def slot(self) -> RequestHandle:
        return self.array.slots[self.index]


class Interpreter:
    """Executes functions of one module, optionally as one rank of an MPI world."""

    def __init__(
        self,
        module: builtin.ModuleOp,
        *,
        comm: Optional[Communicator] = None,
        functions: Optional[dict[str, func.FuncOp]] = None,
        tracer: Optional[Any] = None,
    ):
        self.module = module
        self.comm = comm
        #: Span tracer (:class:`repro.obs.Tracer`) for this rank, or None.
        #: Hooks sit at phase boundaries (timestep, halo post/wait) — never
        #: inside the per-op dispatch loops — and each costs one ``is None``
        #: check when tracing is off.
        self.tracer = tracer
        self.stats = ExecStatistics()
        #: ``functions`` lets a caller that runs the same module many times
        #: (:func:`repro.core.rank.run_rank` passes the compiled program's
        #: table) skip the per-construction module walk.
        if functions is not None:
            self.functions = functions
        else:
            self.functions = {}
            for op in module.walk():
                if isinstance(op, func.FuncOp):
                    self.functions[op.sym_name] = op
        self._memory_registry: dict[int, np.ndarray] = {}
        self._next_address = 0x1000

    # -- public API -----------------------------------------------------------
    def call(self, function_name: str, *args: Any) -> list[Any]:
        """Call a function by name with python/numpy arguments."""
        if function_name not in self.functions:
            raise InterpreterError(f"unknown function {function_name!r}")
        function = self.functions[function_name]
        if function.is_declaration:
            raise InterpreterError(f"cannot call declaration {function_name!r}")
        block = function.body.block
        if len(args) != len(block.args):
            raise InterpreterError(
                f"{function_name} expects {len(block.args)} arguments, got {len(args)}"
            )
        env: dict[SSAValue, Any] = {}
        for block_arg, value in zip(block.args, args):
            env[block_arg] = _wrap_argument(value, block_arg.type)
        try:
            self.run_block(block, env)
        except _ReturnSignal as signal:
            return signal.values
        return []

    # -- core evaluation ----------------------------------------------------------
    def get(self, env: dict, value: SSAValue) -> Any:
        try:
            return env[value]
        except KeyError as err:
            hint = value.name_hint or "<unnamed>"
            raise InterpreterError(f"use of unevaluated SSA value %{hint}") from err

    def set(self, env: dict, value: SSAValue, result: Any) -> None:
        env[value] = result

    def run_block(self, block: Block, env: dict) -> list[Any]:
        """Run a block; return the operands of its terminating yield (if any)."""
        for op in block.ops:
            terminator_values = self._eval(op, env)
            if terminator_values is not None:
                return terminator_values
        return []

    def _eval(self, op: Operation, env: dict) -> Optional[list[Any]]:
        self.stats.ops_executed += 1
        name = op.name
        if name in ("scf.yield", "omp.yield", "stencil.return"):
            return [self.get(env, operand) for operand in op.operands]
        if name == "func.return":
            raise _ReturnSignal([self.get(env, operand) for operand in op.operands])
        if name == "omp.terminator":
            return []
        fn = _HANDLERS.get(name)
        if fn is None:
            raise InterpreterError(f"no interpreter support for operation {name!r}")
        fn(self, op, env)
        return None

    # -- memory / pointer plumbing ---------------------------------------------------
    def register_buffer(self, array: np.ndarray) -> int:
        address = self._next_address
        self._next_address += max(array.nbytes, 8)
        self._memory_registry[address] = array
        return address

    def buffer_at(self, address: int) -> np.ndarray:
        if address not in self._memory_registry:
            raise InterpreterError(f"dereference of unknown address {address:#x}")
        return self._memory_registry[address]

    def as_array(self, value: Any) -> np.ndarray:
        """View any buffer-like runtime value as a numpy array."""
        if isinstance(value, MemRefValue):
            return value.array
        if isinstance(value, PointerValue):
            return self.buffer_at(value.address)
        if isinstance(value, np.ndarray):
            return value
        if isinstance(value, (int, np.integer)):
            return self.buffer_at(int(value))
        raise InterpreterError(f"value {value!r} is not buffer-like")

    # -- MPI helpers ------------------------------------------------------------------
    def require_comm(self) -> Communicator:
        if self.comm is None:
            raise InterpreterError(
                "this program performs message passing but no communicator was "
                "provided; pass comm=... when constructing the Interpreter"
            )
        return self.comm

    def mpi_library_call(self, symbol: str, args: list[Any]) -> list[Any]:
        """Execute a lowered MPI_* function call against the simulated runtime."""
        call = _MPI_LIBRARY.get(symbol)
        if call is None:
            raise InterpreterError(f"unsupported MPI library call {symbol!r}")
        value = call(self, args)
        return [0 if value is None else value]


# ---------------------------------------------------------------------------
# argument wrapping
# ---------------------------------------------------------------------------

def _wrap_argument(value: Any, expected_type) -> Any:
    if isinstance(value, MemRefValue):
        return value
    if isinstance(value, np.ndarray):
        if isinstance(expected_type, stencil.FieldType) and expected_type.bounds is not None:
            return MemRefValue(value, origin=expected_type.bounds.lb)
        return MemRefValue(value)
    return value


# ---------------------------------------------------------------------------
# helpers shared by MPI handlers
# ---------------------------------------------------------------------------

def _request_slot(value: Any) -> RequestHandle:
    if isinstance(value, RequestRef):
        return value.slot
    if isinstance(value, RequestHandle):
        return value
    raise InterpreterError(f"value {value!r} is not an MPI request")


def _mark_send_complete(request_value: Any) -> None:
    slot = _request_slot(request_value)
    slot.pending = None
    slot.null = False


def _store_pending(request_value: Any, request: Any) -> None:
    slot = _request_slot(request_value)
    slot.pending = request
    slot.null = False


# One implementation per MPI operation: the ``mpi.*`` handlers and the lowered
# ``MPI_*`` symbols (``_MPI_LIBRARY``) only decode their operands and call
# these, so both forms move the same bytes, count the same messages and record
# the same ``halo.post`` / ``halo.wait`` spans.

def _flat(interp: Interpreter, buffer: Any, count: Any) -> np.ndarray:
    """The first ``count`` elements of a buffer-like value, as a flat view."""
    return interp.as_array(buffer).reshape(-1)[: int(count)]


def _mpi_send(interp: Interpreter, buffer: Any, count: Any, dest: Any, tag: Any,
              request: Any = None) -> None:
    """send / isend: sends are buffered, so ``request`` completes at once."""
    comm = interp.require_comm()
    tracer = interp.tracer
    span = tracer.begin("halo.post") if tracer is not None else 0.0
    comm.send(_flat(interp, buffer, count), int(dest), int(tag))
    interp.stats.mpi_messages += 1
    if request is not None:
        _mark_send_complete(request)
    if tracer is not None:
        tracer.end("halo.post", span)


def _mpi_recv(interp: Interpreter, buffer: Any, count: Any, source: Any,
              tag: Any) -> None:
    interp.require_comm().recv(_flat(interp, buffer, count), int(source), int(tag))


def _mpi_irecv(interp: Interpreter, buffer: Any, count: Any, source: Any,
               tag: Any, request: Any) -> None:
    comm = interp.require_comm()
    tracer = interp.tracer
    span = tracer.begin("halo.post") if tracer is not None else 0.0
    pending = comm.irecv(_flat(interp, buffer, count), int(source), int(tag))
    _store_pending(request, pending)
    if tracer is not None:
        tracer.end("halo.post", span)


def _mpi_wait(interp: Interpreter, requests: Sequence[RequestHandle]) -> None:
    """wait / waitall: complete every pending request among ``requests``."""
    comm = interp.require_comm()
    tracer = interp.tracer
    span = tracer.begin("halo.wait") if tracer is not None else 0.0
    for slot in requests:
        if slot.pending is not None:
            comm.wait(slot.pending)
            slot.pending = None
    if tracer is not None:
        tracer.end("halo.wait", span)


def _mpi_test(slot: RequestHandle) -> bool:
    """Whether ``slot``'s request has completed (an empty slot has)."""
    return True if slot.pending is None else slot.pending.test()


def _request_slots(requests_value: Any) -> list[RequestHandle]:
    if isinstance(requests_value, RequestArray):
        return requests_value.slots
    if isinstance(requests_value, RequestRef):
        return requests_value.array.slots
    raise InterpreterError("MPI_Waitall expects a request array")


def _mpi_reduce(interp: Interpreter, send: Any, recv: Any, operation: str,
                root: Any) -> None:
    result = interp.require_comm().reduce(
        interp.as_array(send), operation, int(root)
    )
    if result is not None:  # only the root receives
        np.copyto(interp.as_array(recv), result)


def _mpi_allreduce(interp: Interpreter, send: Any, recv: Any,
                   operation: str) -> None:
    np.copyto(
        interp.as_array(recv),
        interp.require_comm().allreduce(interp.as_array(send), operation),
    )


def _mpi_bcast(interp: Interpreter, buffer: Any, root: Any) -> None:
    array = interp.as_array(buffer)
    np.copyto(array, interp.require_comm().bcast(array, int(root)))


def _mpi_gather(interp: Interpreter, send: Any, recv: Any, root: Any) -> None:
    gathered = interp.require_comm().gather(interp.as_array(send), int(root))
    if gathered is not None:  # only the root receives
        np.copyto(interp.as_array(recv).reshape(gathered.shape), gathered)


#: mpich reduction handle -> operation name: the interpreter stands in for the
#: library ``lower_mpi_to_func`` targets, so it decodes that pass's table.
_MPICH_OPERATIONS = {handle: name for name, handle in MPICH_OP_CONSTANTS.items()}

#: Lowered ``MPI_*`` symbols -> shared implementation, operands decoded from
#: the C argument order ``lower_mpi_to_func`` emits (datatype and communicator
#: handles are ignored: buffers carry their dtype, there is one world).  What
#: an entry returns is the call's result; None stands for ``MPI_SUCCESS``.
_MPI_LIBRARY = {
    "MPI_Comm_rank": lambda interp, a: interp.require_comm().rank,
    "MPI_Comm_size": lambda interp, a: interp.require_comm().size,
    "MPI_Init": lambda interp, a: None,
    "MPI_Finalize": lambda interp, a: None,
    "MPI_Barrier": lambda interp, a: interp.require_comm().barrier(),
    "MPI_Send": lambda interp, a: _mpi_send(interp, a[0], a[1], a[3], a[4]),
    "MPI_Isend": lambda interp, a: _mpi_send(interp, a[0], a[1], a[3], a[4], a[6]),
    "MPI_Recv": lambda interp, a: _mpi_recv(interp, a[0], a[1], a[3], a[4]),
    "MPI_Irecv": lambda interp, a: _mpi_irecv(interp, a[0], a[1], a[3], a[4], a[6]),
    "MPI_Wait": lambda interp, a: _mpi_wait(interp, [_request_slot(a[0])]),
    "MPI_Test": lambda interp, a: _mpi_test(_request_slot(a[0])),
    "MPI_Waitall": lambda interp, a: _mpi_wait(interp, _request_slots(a[1])),
    "MPI_Reduce": lambda interp, a: _mpi_reduce(
        interp, a[0], a[1], _MPICH_OPERATIONS[int(a[4])], a[5]),
    "MPI_Allreduce": lambda interp, a: _mpi_allreduce(
        interp, a[0], a[1], _MPICH_OPERATIONS[int(a[4])]),
    "MPI_Bcast": lambda interp, a: _mpi_bcast(interp, a[0], a[3]),
    "MPI_Gather": lambda interp, a: _mpi_gather(interp, a[0], a[3], a[6]),
}


# ---------------------------------------------------------------------------
# builtin / func
# ---------------------------------------------------------------------------

@handler("builtin.unrealized_conversion_cast")
def _run_cast(interp: Interpreter, op: Operation, env: dict) -> None:
    value = interp.get(env, op.operands[0])
    interp.set(env, op.results[0], value)


@handler("func.call")
def _run_call(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, func.CallOp)
    args = [interp.get(env, operand) for operand in op.operands]
    callee = op.callee
    target = interp.functions.get(callee)
    if target is not None and not target.is_declaration:
        results = interp.call(callee, *args)
    elif callee.startswith("MPI_"):
        results = interp.mpi_library_call(callee, args)
    else:
        raise InterpreterError(f"call to unknown function {callee!r}")
    for result, value in zip(op.results, results):
        interp.set(env, result, value)


# ---------------------------------------------------------------------------
# arith
# ---------------------------------------------------------------------------

@handler("arith.constant")
def _run_constant(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, arith.ConstantOp)
    value = op.scalar()
    if value is None:
        raise InterpreterError("unsupported arith.constant payload")
    interp.set(env, op.results[0], value)


def _register(name: str, fn: Callable[..., Any], arity: int) -> None:
    """Run ``fn`` over the op's operands; one handler per arity, so dispatch
    calls the record's function directly."""
    if arity == 1:
        @handler(name)
        def _run_unary(interp: Interpreter, op: Operation, env: dict) -> None:
            interp.set(env, op.results[0], fn(interp.get(env, op.operands[0])))
    else:
        @handler(name)
        def _run_binary(interp: Interpreter, op: Operation, env: dict) -> None:
            lhs = interp.get(env, op.operands[0])
            rhs = interp.get(env, op.operands[1])
            interp.set(env, op.results[0], fn(lhs, rhs))


def _register_compare(name: str, predicates: Sequence[str]) -> None:
    by_predicate = {p: arith.SEMANTICS[f"{name}:{p}"].scalar for p in predicates}

    @handler(name)
    def _run_compare(interp: Interpreter, op: Operation, env: dict) -> None:
        lhs = interp.get(env, op.operands[0])
        rhs = interp.get(env, op.operands[1])
        interp.set(env, op.results[0], by_predicate[op.predicate](lhs, rhs))


for _key, _record in arith.SEMANTICS.items():
    if ":" not in _key:
        _register(_key, _record.scalar, _record.arity)
_register_compare(arith.CmpiOp.name, arith.CMPI_PREDICATES)
_register_compare(arith.CmpfOp.name, arith.CMPF_PREDICATES)


@handler("arith.select")
def _run_select(interp: Interpreter, op: Operation, env: dict) -> None:
    condition = interp.get(env, op.operands[0])
    chosen = op.operands[1] if condition else op.operands[2]
    interp.set(env, op.results[0], interp.get(env, chosen))


# ---------------------------------------------------------------------------
# scf
# ---------------------------------------------------------------------------

@handler("scf.for")
def _run_for(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, scf.ForOp)
    lower = int(interp.get(env, op.lower_bound))
    upper = int(interp.get(env, op.upper_bound))
    step = int(interp.get(env, op.step))
    if step <= 0:
        raise InterpreterError("scf.for requires a positive step")
    carried = [interp.get(env, value) for value in op.iter_args]
    block = op.body.block
    # Iteration-carried loops are the time loops of this codebase; each
    # iteration is one "step" span.  Inner bound-only loops stay unspanned.
    tracer = interp.tracer
    traced_step = tracer is not None and len(op.iter_args) > 0
    # The body runs in a scoped copy of the environment so loop-local SSA
    # bindings (induction variable, iter args, body values) never leak into —
    # or go stale inside — the caller's environment across nested reuse.
    local_env = dict(env)
    for iteration in range(lower, upper, step):
        span = tracer.begin("step") if traced_step else 0.0
        local_env[block.args[0]] = iteration
        for arg, value in zip(block.args[1:], carried):
            local_env[arg] = value
        yielded = interp.run_block(block, local_env)
        if yielded:
            carried = yielded
        if traced_step:
            tracer.end("step", span)
    for result, value in zip(op.results, carried):
        interp.set(env, result, value)


@handler("scf.parallel")
def _run_parallel(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, scf.ParallelOp)
    rank = op.rank
    lowers = [int(interp.get(env, v)) for v in op.lower_bounds]
    uppers = [int(interp.get(env, v)) for v in op.upper_bounds]
    steps = [int(interp.get(env, v)) for v in op.steps]
    if "gpu_kernel" in op.attributes:
        interp.stats.kernel_launches += 1
    block = op.body.block
    local_env = dict(env)  # scoped: body bindings must not leak to the caller

    # Reduction state: one accumulator per init value, folded in iteration
    # order (the deterministic left-fold the vectorized backend replicates).
    accumulators = [interp.get(env, value) for value in op.init_values]
    reduce_op = block.last_op if isinstance(block.last_op, scf.ReduceOp) else None
    if reduce_op is not None and len(reduce_op.operands) != len(accumulators):
        raise InterpreterError(
            f"scf.reduce carries {len(reduce_op.operands)} values but the "
            f"enclosing scf.parallel has {len(accumulators)} init values"
        )

    def loop(dim: int, indices: list[int]) -> None:
        if dim == rank:
            for arg, value in zip(block.args, indices):
                local_env[arg] = value
            interp.run_block(block, local_env)
            interp.stats.cells_updated += 1
            if reduce_op is not None:
                for slot, (value, region) in enumerate(
                    zip(reduce_op.operands, reduce_op.regions)
                ):
                    combine_block = region.block
                    local_env[combine_block.args[0]] = accumulators[slot]
                    local_env[combine_block.args[1]] = local_env[value]
                    yielded = interp.run_block(combine_block, local_env)
                    accumulators[slot] = yielded[0]
            return
        for position in range(lowers[dim], uppers[dim], steps[dim]):
            loop(dim + 1, indices + [position])

    loop(0, [])
    for result, value in zip(op.results, accumulators):
        interp.set(env, result, value)


@handler("scf.if")
def _run_if(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, scf.IfOp)
    condition = bool(interp.get(env, op.condition))
    region = op.then_region if condition else op.else_region
    values: list[Any] = []
    if region.blocks:
        values = interp.run_block(region.block, env)
    for result, value in zip(op.results, values):
        interp.set(env, result, value)


@handler("scf.reduce")
def _run_reduce(interp: Interpreter, op: Operation, env: dict) -> None:
    return


# ---------------------------------------------------------------------------
# memref
# ---------------------------------------------------------------------------

@handler("memref.alloc")
def _run_alloc(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.set(env, op.results[0], MemRefValue.for_type(op.results[0].type))


@handler("memref.dealloc")
def _run_dealloc(interp: Interpreter, op: Operation, env: dict) -> None:
    # Pointers taken into a freed buffer dangle: drop their registrations.
    freed = interp.get(env, op.operands[0]).array
    interp._memory_registry = {
        address: array for address, array in interp._memory_registry.items()
        if not np.may_share_memory(array, freed)
    }


@handler("memref.load")
def _run_load(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, memref.LoadOp)
    target = interp.get(env, op.memref)
    indices = tuple(int(interp.get(env, index)) for index in op.indices)
    interp.set(env, op.results[0], target.array[indices].item())


@handler("memref.store")
def _run_store(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, memref.StoreOp)
    target = interp.get(env, op.memref)
    indices = tuple(int(interp.get(env, index)) for index in op.indices)
    target.array[indices] = interp.get(env, op.value)


@handler("memref.subview")
def _run_subview(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, memref.SubviewOp)
    source = interp.get(env, op.source)
    interp.set(env, op.results[0], source.view(op.offsets, op.sizes))


@handler("memref.copy")
def _run_copy(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, memref.CopyOp)
    source = interp.get(env, op.source)
    target = interp.get(env, op.target)
    target.copy_from(source)


@handler("memref.extract_aligned_pointer_as_index")
def _run_extract_pointer(interp: Interpreter, op: Operation, env: dict) -> None:
    target = interp.get(env, op.operands[0])
    interp.set(env, op.results[0], interp.register_buffer(target.array))


# ---------------------------------------------------------------------------
# llvm
# ---------------------------------------------------------------------------

@handler("llvm.inttoptr")
def _run_inttoptr(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.set(env, op.results[0], PointerValue(int(interp.get(env, op.operands[0]))))


@handler("llvm.mlir.null")
def _run_null(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.set(env, op.results[0], PointerValue(0))


# ---------------------------------------------------------------------------
# stencil (vectorised evaluation)
# ---------------------------------------------------------------------------

@handler("stencil.load")
def _run_stencil_load(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.set(env, op.results[0], interp.get(env, op.operands[0]))


@handler("stencil.store")
def _run_stencil_store(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, stencil.StoreOp)
    temp = interp.get(env, op.temp)
    field = interp.get(env, op.field)
    bounds = op.bounds
    target_region = tuple(
        slice(lb - origin, ub - origin)
        for lb, ub, origin in zip(bounds.lb, bounds.ub, field.origin)
    )
    source_region = tuple(
        slice(lb - origin, ub - origin)
        for lb, ub, origin in zip(bounds.lb, bounds.ub, temp.origin)
    )
    field.array[target_region] = temp.array[source_region]


@handler("stencil.apply")
def _run_stencil_apply(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, stencil.ApplyOp)
    bounds = _apply_output_bounds(op)
    out_shape = bounds.shape
    interp.stats.kernel_launches += 1
    interp.stats.cells_updated += bounds.size()

    block = op.body.block
    local: dict[SSAValue, Any] = {}
    for arg, operand in zip(block.args, op.operands):
        local[arg] = interp.get(env, operand)

    returned: list[Any] = []
    for body_op in block.ops:
        if isinstance(body_op, stencil.AccessOp):
            source = local[body_op.temp]
            region = tuple(
                slice(lb + off - origin, ub + off - origin)
                for lb, ub, off, origin in zip(
                    bounds.lb, bounds.ub, body_op.offset, source.origin
                )
            )
            local[body_op.result] = _widened(source.array[region])
        elif isinstance(body_op, stencil.ReturnOp):
            for value in body_op.operands:
                result_array = local[value]
                if np.isscalar(result_array) or getattr(result_array, "shape", ()) == ():
                    result_array = np.full(out_shape, result_array, dtype=np.float64)
                returned.append(np.array(result_array))
        else:
            _eval_vectorised(interp, body_op, local)

    for result, array in zip(op.results, returned):
        interp.set(env, result, MemRefValue(array, origin=bounds.lb))


def _widened(region: np.ndarray) -> np.ndarray:
    """A loaded region, each cell widened as ``ndarray.item()`` would (see above)."""
    if region.dtype.kind == "f":
        return region.astype(np.float64, copy=False)
    return region if region.dtype.kind == "b" else region.astype(np.int64, copy=False)


def _apply_output_bounds(op: stencil.ApplyOp) -> stencil.StencilBoundsAttr:
    for result in op.results:
        result_type = result.type
        if isinstance(result_type, stencil.TempType) and result_type.bounds is not None:
            candidate = result_type.bounds
            break
    else:
        candidate = None
    for result in op.results:
        for use in result.uses:
            if isinstance(use.operation, stencil.StoreOp):
                return use.operation.bounds
    if candidate is None:
        raise InterpreterError(
            "cannot determine the iteration domain of a stencil.apply without "
            "bounds on its results or a consuming stencil.store"
        )
    return candidate


def _eval_vectorised(interp: Interpreter, op: Operation, local: dict) -> None:
    """Evaluate arith ops over numpy arrays inside a stencil.apply body."""
    if isinstance(op, arith.ConstantOp):
        local[op.results[0]] = op.literal()
        return
    values = [local[operand] for operand in op.operands]
    if isinstance(op, arith.SelectOp):
        local[op.results[0]] = np.where(values[0], values[1], values[2])
        return
    record = arith.SEMANTICS.get(arith.op_key(op))
    if record is not None and record.array is not None:
        local[op.results[0]] = record.numpy(*values)
        return
    raise InterpreterError(
        f"operation {op.name!r} is not supported inside a stencil.apply body"
    )


# ---------------------------------------------------------------------------
# dmp (high-level halo exchange execution)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class SwapMessagePlan:
    """Per-rank message geometry of one ``dmp.swap`` (no arrays, no comm).

    ``sends`` holds ``(send_slice, neighbor, tag)`` triples and ``receives``
    holds ``(recv_slice, neighbor, tag, elements, axis)``
    records, in the exchange order of the op.  Computed once per (op, rank)
    it parameterizes both the interpreter's swap handler and the emitted
    megakernel's posted exchanges, guaranteeing identical slices and tags —
    for a ``dmp.swap`` and for the ``MPI_*`` group lowered from one alike.
    """

    sends: list
    receives: list

    @property
    def elements(self) -> int:
        """Halo elements one completion of the swap lands on this rank."""
        return sum(record[3] for record in self.receives)


def message_plan(grid, exchanges, rank: int) -> SwapMessagePlan:
    """The messages of the declared ``exchanges`` over ``grid`` (the
    ``dmp.grid`` and ``dmp.exchange`` attributes of a swap) for one rank."""
    sends: list = []
    receives: list = []
    for exchange in exchanges:
        neighbor = grid.neighbor_of(rank, exchange.neighbor)
        if neighbor is None:
            continue
        send_offsets, send_sizes = exchange.send_region
        send_slice = tuple(slice(o, o + s) for o, s in zip(send_offsets, send_sizes))
        sends.append((send_slice, neighbor, exchange.travel_tag(sending=True)))
        recv_offsets, recv_sizes = exchange.recv_region
        recv_slice = tuple(slice(o, o + s) for o, s in zip(recv_offsets, recv_sizes))
        receives.append(
            (
                recv_slice,
                neighbor,
                exchange.travel_tag(sending=False),
                exchange.element_count(),
                exchange.axis,
            )
        )
    return SwapMessagePlan(sends, receives)


def swap_message_plan(op: Operation, rank: int) -> SwapMessagePlan:
    """Resolve the send/receive geometry ``op`` declares for one rank.

    ``op`` is a ``dmp.swap`` or the request array of its lowered group
    (:func:`repro.dialects.dmp.declared_exchanges`).
    """
    return message_plan(*dmp.declared_exchanges(op), rank)


@handler("dmp.swap")
def _run_swap(interp: Interpreter, op: Operation, env: dict) -> None:
    """Halo exchange, blocking: post sends and receives, then land them.

    The tree walker reads cells one by one, so it never overlaps an exchange
    with compute; the halves of the same pair are what a megakernel spreads
    around its interior boxes.
    """
    assert isinstance(op, dmp.SwapOp)
    interp.stats.halo_swaps += 1
    comm = interp.comm
    if comm is None or comm.size == 1:
        return
    tracer = interp.tracer
    span = tracer.begin("halo.post") if tracer is not None else 0.0
    plan = swap_message_plan(op, comm.rank)
    halo = post_swap(comm, interp.as_array(interp.get(env, op.data)), plan)
    interp.stats.mpi_messages += len(plan.sends)
    if tracer is not None:
        tracer.end("halo.post", span)
        span = tracer.begin("halo.wait")
    complete_swap(comm, halo)
    interp.stats.halo_elements_exchanged += plan.elements
    if tracer is not None:
        tracer.end("halo.wait", span)


# ---------------------------------------------------------------------------
# mpi dialect (pre-"magic constant" lowering)
# ---------------------------------------------------------------------------

@handler("mpi.init")
def _run_mpi_init(interp: Interpreter, op: Operation, env: dict) -> None:
    return


@handler("mpi.finalize")
def _run_mpi_finalize(interp: Interpreter, op: Operation, env: dict) -> None:
    return


@handler("mpi.barrier")
def _run_mpi_barrier(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.require_comm().barrier()


@handler("mpi.comm_rank")
def _run_comm_rank(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.set(env, op.results[0], interp.comm.rank if interp.comm else 0)


@handler("mpi.comm_size")
def _run_comm_size(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.set(env, op.results[0], interp.comm.size if interp.comm else 1)


@handler("mpi.unwrap_memref")
def _run_unwrap(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, mpi.UnwrapMemrefOp)
    target = interp.get(env, op.memref)
    address = interp.register_buffer(target.array)
    interp.set(env, op.ptr, PointerValue(address))
    interp.set(env, op.count, int(target.array.size))
    interp.set(env, op.dtype, DataTypeValue(str(target.array.dtype)))


@handler("mpi.allocate_requests")
def _run_allocate_requests(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, mpi.AllocateRequestsOp)
    interp.set(env, op.results[0], RequestArray(op.count))


@handler("mpi.get_request")
def _run_get_request(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, mpi.GetRequestOp)
    array = interp.get(env, op.requests)
    interp.set(env, op.results[0], RequestRef(array, op.index))


@handler("mpi.set_null_request")
def _run_set_null(interp: Interpreter, op: Operation, env: dict) -> None:
    _request_slot(interp.get(env, op.operands[0])).set_null()


@handler("mpi.send")
@handler("mpi.isend")
def _run_mpi_send(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, (mpi.SendOp, mpi.IsendOp))
    get = interp.get
    request = op.request  # mpi.send carries none
    _mpi_send(
        interp, get(env, op.buffer), get(env, op.count), get(env, op.peer),
        get(env, op.tag), get(env, request) if request is not None else None,
    )


@handler("mpi.recv")
def _run_mpi_recv(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, mpi.RecvOp)
    get = interp.get
    _mpi_recv(interp, get(env, op.buffer), get(env, op.count),
              get(env, op.peer), get(env, op.tag))


@handler("mpi.irecv")
def _run_mpi_irecv(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, mpi.IrecvOp)
    get = interp.get
    _mpi_irecv(interp, get(env, op.buffer), get(env, op.count),
               get(env, op.peer), get(env, op.tag), get(env, op.request))


@handler("mpi.wait")
def _run_mpi_wait(interp: Interpreter, op: Operation, env: dict) -> None:
    _mpi_wait(interp, [_request_slot(interp.get(env, op.operands[0]))])


@handler("mpi.test")
def _run_mpi_test(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.set(
        env, op.results[0], _mpi_test(_request_slot(interp.get(env, op.operands[0])))
    )


@handler("mpi.waitall")
def _run_mpi_waitall(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, mpi.WaitallOp)
    _mpi_wait(interp, _request_slots(interp.get(env, op.requests)))


@handler("mpi.reduce")
def _run_mpi_reduce(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, mpi.ReduceOp)
    _mpi_reduce(
        interp, interp.get(env, op.send_buffer), interp.get(env, op.recv_buffer),
        op.operation, interp.get(env, op.root),
    )


@handler("mpi.allreduce")
def _run_mpi_allreduce(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, mpi.AllreduceOp)
    _mpi_allreduce(
        interp, interp.get(env, op.send_buffer), interp.get(env, op.recv_buffer),
        op.operation,
    )


@handler("mpi.bcast")
def _run_mpi_bcast(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, mpi.BcastOp)
    _mpi_bcast(interp, interp.get(env, op.buffer), interp.get(env, op.root))


@handler("mpi.gather")
def _run_mpi_gather(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, mpi.GatherOp)
    _mpi_gather(
        interp, interp.get(env, op.send_buffer), interp.get(env, op.recv_buffer),
        interp.get(env, op.root),
    )


# ---------------------------------------------------------------------------
# gpu / omp / hls structural ops
# ---------------------------------------------------------------------------

@handler("gpu.host_synchronize")
def _run_host_sync(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.stats.host_synchronizations += 1


@handler("omp.parallel")
def _run_omp_parallel(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, omp.ParallelOp)
    interp.stats.omp_regions += 1
    interp.run_block(op.body.block, env)


@handler("omp.wsloop")
def _run_omp_wsloop(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, omp.WsLoopOp)
    rank = op.rank
    lowers = [int(interp.get(env, v)) for v in op.lower_bounds]
    uppers = [int(interp.get(env, v)) for v in op.upper_bounds]
    steps = [int(interp.get(env, v)) for v in op.steps]
    block = op.body.block
    local_env = dict(env)  # scoped: body bindings must not leak to the caller

    def loop(dim: int, indices: list[int]) -> None:
        if dim == rank:
            for arg, value in zip(block.args, indices):
                local_env[arg] = value
            interp.run_block(block, local_env)
            interp.stats.cells_updated += 1
            return
        for position in range(lowers[dim], uppers[dim], steps[dim]):
            loop(dim + 1, indices + [position])

    loop(0, [])


@handler("omp.barrier")
def _run_omp_barrier(interp: Interpreter, op: Operation, env: dict) -> None:
    interp.stats.omp_barriers += 1


@handler("hls.dataflow")
def _run_hls_dataflow(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, hls.DataflowOp)
    interp.run_block(op.body.block, env)


@handler("hls.stage")
def _run_hls_stage(interp: Interpreter, op: Operation, env: dict) -> None:
    assert isinstance(op, hls.StageOp)
    if op.regions and op.regions[0].blocks:
        interp.run_block(op.regions[0].block, env)
