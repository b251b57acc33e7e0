"""Compilation passes and the pass manager.

A :class:`ModulePass` transforms (or, for an analysis, only reads) a module in
place.  A pipeline is data: an ordered sequence of :class:`Stage`\\ s, each a
name plus already-parameterised pass objects, mirroring ``mlir-opt`` pipelines
such as ``--cse --loop-invariant-code-motion --convert-stencil-to-ll-mlir``
(:func:`repro.core.pipeline.pipeline_for` declares the one of each target).
The :class:`PassManager` is the one site where passes run, are timed (as
:mod:`repro.obs` spans), are verified and are counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

from ..obs import compile_tracing
from .core import Operation


class PassFailedError(Exception):
    """Raised when a pass cannot be applied to the given module."""


class ModulePass:
    """Base class for module-level passes."""

    name: str = "unnamed-pass"
    #: Attributes holding this instance's parameters, shown in pipeline strings.
    options: tuple[str, ...] = ()
    #: An analysis only reads the module: nothing is re-verified or re-counted
    #: after it.
    analysis: bool = False
    #: A conversion lowers the module to another level of abstraction (and
    #: multiplies its operation count): per-pass verification stops with it.
    conversion: bool = False

    def apply(self, module: Operation) -> None:
        raise NotImplementedError

    def __str__(self) -> str:
        """``name`` or ``name{option=value ...}`` (mlir-opt style; unset options hidden)."""
        shown = " ".join(
            f"{option}={value}"
            for option in self.options
            if (value := getattr(self, option)) is not None
        )
        return f"{self.name}{{{shown}}}" if shown else self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<pass {self}>"


class VerifyPass(ModulePass):
    """Check the module's invariants (first pass of a pipeline on foreign input)."""

    name = "verify"
    analysis = True

    def apply(self, module: Operation) -> None:
        module.verify()


class LambdaPass(ModulePass):
    """Wrap a plain callable as a pass (useful in tests and pipelines)."""

    def __init__(self, name: str, fn: Callable[[Operation], None]):
        self.name = name
        self._fn = fn

    def apply(self, module: Operation) -> None:
        self._fn(module)


class Stage(NamedTuple):
    """A named group of passes: what one ``pipeline.<name>`` span covers."""

    name: str
    passes: tuple[ModulePass, ...]


@dataclass
class PassStatistics:
    """Change information for a single pass execution."""

    pass_name: str
    ops_before: int
    ops_after: int

    @property
    def ops_delta(self) -> int:
        return self.ops_after - self.ops_before


@dataclass
class PipelineReport:
    """Statistics for a whole pipeline run (wall times are ``pass.*`` spans)."""

    statistics: list[PassStatistics] = field(default_factory=list)

    def summary(self) -> str:
        lines = ["pass".ljust(42) + "ops".rjust(8) + "delta".rjust(8)]
        for stat in self.statistics:
            lines.append(
                stat.pass_name.ljust(42)
                + f"{stat.ops_after:8d}"
                + f"{stat.ops_delta:+8d}"
            )
        return "\n".join(lines)


class PassManager:
    """Runs a declared pipeline — stages of passes — over a module.

    Every stage lands in the thread's :func:`repro.obs.compile_tracing` scope
    as a ``pipeline.<stage>`` span and every pass as a ``pass.<name>`` span
    nested in it; those spans are the only clock.

    The verification policy, for every pipeline: the module is verified after
    each pass until the first conversion has run, and after the last pass, so
    a pipeline exits verified; one that does not trust its input starts with
    :class:`VerifyPass`.  (Verification is linear in the operation count and
    conversions multiply it: verifying after every pass of every stage adds a
    quarter to ``transforms.pipeline_ms`` on the ledger's ``compile-corpus``.)
    A failing pass or verification raises :class:`PassFailedError` naming the
    pass and its stage.
    """

    def __init__(self, stages: Iterable[Stage]):
        self.stages: tuple[Stage, ...] = tuple(stages)
        self.report = PipelineReport()

    def run(self, module: Operation) -> PipelineReport:
        """Apply every pass of every stage in order; return the pipeline report."""
        with compile_tracing() as tracer:
            ops = _count_ops(module)
            verify_each = True
            transforming = [
                p for stage in self.stages for p in stage.passes if not p.analysis
            ]
            exit_pass = transforming[-1] if transforming else None
            for stage in self.stages:
                with tracer.span(f"pipeline.{stage.name}"):
                    for pass_ in stage.passes:
                        where = f"pass {pass_.name!r} of stage {stage.name!r}"
                        try:
                            with tracer.span(f"pass.{pass_.name}"):
                                pass_.apply(module)
                        except Exception as err:
                            raise PassFailedError(f"{where} failed: {err}") from err
                        if pass_.analysis:
                            continue
                        verify_each = verify_each and not pass_.conversion
                        if verify_each or pass_ is exit_pass:
                            try:
                                module.verify()
                            except Exception as err:
                                raise PassFailedError(
                                    f"IR verification failed after {where}: {err}"
                                ) from err
                        before, ops = ops, _count_ops(module)
                        self.report.statistics.append(
                            PassStatistics(pass_.name, before, ops)
                        )
        return self.report

    def pipeline_string(self) -> str:
        """A human-readable description of the pipeline (mlir-opt style)."""
        return " ".join(
            f"{stage.name}({','.join(str(p) for p in stage.passes)})"
            for stage in self.stages
        )


def _count_ops(op: Operation) -> int:
    """Operations at and under ``op``.

    A direct recursion: ``walk()`` stacks one generator per nesting level and
    costs six times as much, once per pass.
    """
    count = 1
    for region in op.regions:
        for block in region.blocks:
            for nested in block.ops:
                count += _count_ops(nested) if nested.regions else 1
    return count
