"""The from-scratch compile loop, bypassing the prefix trie."""

from __future__ import annotations

from repro.core.program import PRIMITIVE_REGISTRY, ProgramState, TransformProgram
from repro.errors import LegalityError, ScheduleError, TransformError
from repro.poly.statement import ConvolutionShape
from repro.tenir.schedule import Stage


def compile_from_scratch(program: TransformProgram,
                         shape: ConvolutionShape) -> list[Stage]:
    """Apply every step of ``program`` to a fresh state, storing nothing.

    Usable as a drop-in for ``TransformProgram.compile`` (it takes the
    program first), which is how the engine throughput benchmark restores
    the pre-trie behaviour.
    """
    state = ProgramState(shape, name=program.name)
    for app in program.steps:
        primitive = PRIMITIVE_REGISTRY.get(app.primitive)
        if primitive is None:
            raise LegalityError(f"unknown primitive '{app.primitive}'",
                                primitive=app.primitive,
                                reason="not registered")
        # A skipped optional step must be a no-op even when it fails
        # partway through a multi-nest application, so snapshot the
        # stages it may touch and restore them on failure.
        backup = [stage.clone() for stage in state.stages] if app.optional else None
        try:
            primitive.apply(state, app)
        except LegalityError as error:
            if app.optional:
                state.stages = backup
                continue
            raise LegalityError(
                f"{program.name}: {app.describe()} rejected: {error.reason}",
                primitive=app.primitive, reason=error.reason) from error
        except (TransformError, ScheduleError) as error:
            if app.optional:
                state.stages = backup
                continue
            raise LegalityError(
                f"{program.name}: {app.describe()} rejected: {error}",
                primitive=app.primitive, reason=str(error)) from error
    return state.stages
