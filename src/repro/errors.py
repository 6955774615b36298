"""Exception hierarchy for the LIFEGUARD reproduction.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single except clause while still letting
programming errors (TypeError, etc.) propagate.

Errors carry a structured ``context`` dict (component, sim_time, subject,
plus the vp/target pair for measurement-side failures) so the
observability layer can serialize failures uniformly — see
:func:`error_context` — instead of parsing free-form text.  The
human-readable context is still appended to the message for operators.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class ReproError(Exception):
    """Base class for all errors raised by this library."""

    @property
    def context(self) -> Dict[str, Any]:
        """Structured context: component, sim_time, subject, …

        Empty for errors raised without any; populated by
        :class:`_ContextualError` subclasses (and anyone else who sets
        ``_context``).  Read-only by convention — treat it as a record
        of the raise site, not a mutable scratchpad.
        """
        return getattr(self, "_context", {})


def error_context(exc: BaseException) -> Dict[str, Any]:
    """A uniform, JSON-serializable description of any exception.

    Always contains ``type`` and ``message``; :class:`ReproError`
    subclasses contribute their structured ``context`` on top.  This is
    what observability events embed when an operation fails, so every
    failure serializes the same way regardless of which layer raised it.
    """
    blob: Dict[str, Any] = {
        "type": type(exc).__name__,
        "message": str(exc),
    }
    extra = getattr(exc, "context", None)
    if extra:
        for key, value in extra.items():
            blob.setdefault(key, value)
    return {key: blob[key] for key in sorted(blob)}


class AddressError(ReproError, ValueError):
    """An IPv4 address or prefix string/value was malformed."""


class TopologyError(ReproError):
    """The AS or router topology was inconsistent or a lookup failed."""


class PolicyError(ReproError):
    """A routing-policy operation was invalid (e.g. unknown relationship)."""


class BGPError(ReproError):
    """A BGP message or speaker operation was invalid."""


class SimulationError(ReproError):
    """The discrete-event simulation was driven incorrectly."""


class _ContextualError(ReproError):
    """An error annotated with where and when it happened.

    *vp* / *target* name the measured pair (kept as attributes for the
    degraded control loop); *component* names the subsystem that raised
    (dotted, e.g. ``"isolation.isolator"``); *sim_time* is the
    simulation clock at the raise site; *subject* is the pair/entity the
    operation concerned (defaults to ``vp|target`` when both are known).
    """

    def __init__(
        self,
        message: str,
        *,
        vp: Optional[str] = None,
        target: Optional[str] = None,
        component: Optional[str] = None,
        sim_time: Optional[float] = None,
        subject: Optional[str] = None,
    ) -> None:
        self.vp = vp
        self.target = target
        self.component = component
        self.sim_time = sim_time
        if subject is None and vp is not None and target is not None:
            subject = f"{vp}|{target}"
        self.subject = subject
        ctx: Dict[str, Any] = {}
        if component is not None:
            ctx["component"] = component
        if sim_time is not None:
            ctx["sim_time"] = float(sim_time)
        if subject is not None:
            ctx["subject"] = subject
        if vp is not None:
            ctx["vp"] = vp
        if target is not None:
            ctx["target"] = target
        self._context = ctx
        human = []
        if vp is not None:
            human.append(f"vp={vp}")
        if target is not None:
            human.append(f"target={target}")
        if human:
            message = f"{message} [{', '.join(human)}]"
        super().__init__(message)


class MeasurementError(_ContextualError):
    """A probe or monitoring operation could not be carried out."""


class ControlError(ReproError):
    """The remediation controller was asked to do something invalid."""


class DegradedError(_ContextualError):
    """An operation cannot run at full fidelity right now (infrastructure
    faults: dead vantage points, missing atlas coverage).  Callers should
    defer and retry rather than act on partial evidence."""


class RetryExhausted(MeasurementError):
    """A bounded retry budget ran out without a usable result."""
