"""Structural verification of IR.

The verifier checks invariants that every well-formed program must satisfy:
operand/result consistency, trait constraints, dominance within blocks, and
dialect-specific invariants via ``Operation.verify_``.
"""

from __future__ import annotations

from .core import Block, IRError, Operation, OpResult, SSAValue
from .traits import OpTrait


class VerificationError(IRError):
    """Raised when the IR violates a structural or dialect invariant."""


def verify_operation(op: Operation) -> None:
    """Verify ``op`` and all nested operations; raise on the first violation."""
    _verify_single(op)
    for region in op.regions:
        for block in region.blocks:
            _verify_block(block)
            for nested in block.ops:
                if nested.regions:
                    verify_operation(nested)
                else:
                    _verify_single(nested)


#: Per operation class: its traits that check something, and whether the
#: class overrides ``verify_``.
_CHECKS: dict[type, tuple[tuple[OpTrait, ...], bool]] = {}


def _verify_single(op: Operation) -> None:
    for i, operand in enumerate(op._operands):
        if not isinstance(operand, SSAValue):
            raise VerificationError(
                f"{op.name}: operand {i} is not an SSA value ({operand!r})"
            )
    cls = op.__class__
    checks = _CHECKS.get(cls)
    if checks is None:
        traits = tuple(t for t in cls.traits if type(t).verify is not OpTrait.verify)
        checks = _CHECKS[cls] = (traits, cls.verify_ is not Operation.verify_)
    traits, custom = checks
    for trait in traits:
        try:
            trait.verify(op)
        except ValueError as err:
            raise VerificationError(str(err)) from err
    if not custom:
        return
    try:
        op.verify_()
    except VerificationError:
        raise
    except (ValueError, TypeError, AssertionError) as err:
        raise VerificationError(f"{op.name}: {err}") from err


def _verify_block(block: Block) -> None:
    """Check intra-block dominance: every use must follow its definition.

    (Block arguments are always visible: a sibling block's cannot be reached
    through the construction APIs.)
    """
    defined: set[Operation] = set()
    for op in block.ops:
        for operand in op._operands:
            if operand.__class__ is OpResult:
                defining = operand.op
                if defining.parent is block and defining not in defined:
                    raise VerificationError(
                        f"{op.name}: operand defined later in the same block "
                        f"(use before def of a result of {defining.name})"
                    )
        defined.add(op)
