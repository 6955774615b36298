"""Construction of converged simulation baselines.

Nearly every experiment and benchmark starts the same way: generate a
synthetic Internet, optionally attach a multihomed origin AS, originate
every prefix, and bring the BGP control plane to quiescence.  Two paths
produce that converged state:

* ``mode="solver"`` — the analytic Gao-Rexford solver
  (:mod:`repro.bgp.solver`) computes the unique stable routing directly
  and :meth:`~repro.bgp.engine.BGPEngine.warm_start` installs it.  No
  events run, so this is O(V+E) per prefix instead of simulating the
  full update storm (~1.7 s at the medium scale).
* ``mode="event"`` — classic event-driven convergence, required when the
  configuration has features the solver cannot model (sibling links,
  local-pref overrides, damping, ...).

The default ``mode="auto"`` picks the solver whenever
:func:`~repro.bgp.solver.solver_unsupported_reason` clears the config
and falls back to the event engine otherwise (counted as
``solver.fallbacks`` and ``solver.fallbacks.<slug>``).  Deployments,
studies and the CLI all converge in ``auto``.  Both modes yield
identical Loc-RIB/Adj-RIB and session state; they differ in bookkeeping
byproducts (the event engine's ``change_log``/``updates_sent`` record
the convergence storm, its RNG stream has advanced, and its clock sits
at the convergence time), which no baseline consumer reads — trial
drivers reseed and advance the clock before perturbing.

Snapshots shipped to trial workers are pickles of the engine, which
restore it *exactly* (including its RNG stream), zlib-compressed at
level 1: the sweet spot — pickled engines are highly redundant, and
heavier levels cost more time than the bytes they save.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.bgp.engine import BGPEngine, EngineConfig
from repro.bgp.solver import (
    Origination,
    count_refusal,
    solve,
    solver_unsupported_reason,
)
from repro.errors import SimulationError
from repro.runner.stats import RunStats
from repro.topology.as_graph import ASGraph
from repro.topology.generate import (
    assign_defense_configs,
    generate_multihomed_origin,
)

#: ``origin_asn`` policies for :func:`converged_internet`.
ORIGIN_ASN_NEXT = "next"  # max(ases) + 1 (the convergence/diversity choice)
ORIGIN_ASN_EVEN = "even"  # next even ASN with a dark odd sibling (sentinel)

#: ``mode`` values for :func:`converged_internet`.
MODE_AUTO = "auto"
MODE_SOLVER = "solver"
MODE_EVENT = "event"

#: zlib level for snapshot payloads: level 1 already shrinks pickled
#: engines ~5x; higher levels trade measurable CPU for few extra bytes.
_SNAPSHOT_COMPRESSION_LEVEL = 1


def pack_snapshot(obj: object) -> bytes:
    """Pickle and compress a snapshot payload."""
    return zlib.compress(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL),
        _SNAPSHOT_COMPRESSION_LEVEL,
    )


def unpack_snapshot(payload: bytes) -> object:
    """Restore :func:`pack_snapshot` output."""
    return pickle.loads(zlib.decompress(payload))


@dataclass
class ConvergedBaseline:
    """A converged control plane ready for an experiment to perturb."""

    graph: ASGraph
    engine: BGPEngine
    #: the attached origin AS, when one was requested.
    origin_asn: Optional[int] = None

    def snapshot(self) -> bytes:
        """Compressed pickle of the engine (which carries the graph) for
        trial workers, its pending rows written first
        (:meth:`BGPEngine.materialize`): unpickling written rows costs a
        trial less than deriving them would."""
        self.engine.materialize()
        return pack_snapshot((self.engine, self.origin_asn))


def restore_snapshot(payload: bytes) -> Tuple[BGPEngine, Optional[int]]:
    """Rebuild (engine, origin_asn) from :meth:`ConvergedBaseline.snapshot`.

    Each call returns an independent copy — trial workers may mutate it
    freely without touching each other.
    """
    return unpack_snapshot(payload)


def _even_origin_asn(graph: ASGraph) -> int:
    """An unused even ASN whose odd sibling is also unused (the covering
    /15 sentinel needs the sibling /16 to be dark space)."""
    candidate = max(graph.ases()) + 1
    if candidate % 2:
        candidate += 1
    return candidate


def converged_internet(
    scale: str = "small",
    seed: int = 0,
    *,
    engine_config: Optional[EngineConfig] = None,
    origin_providers: Optional[int] = None,
    origin_asn_policy: str = ORIGIN_ASN_NEXT,
    defense_rate: float = 0.0,
    mode: Optional[str] = None,
    cache: None = None,
    stats: Optional[RunStats] = None,
) -> ConvergedBaseline:
    """Build a converged Internet at one of the named scales.

    With *origin_providers* set, a fresh multihomed origin AS (the
    BGP-Mux deployer) is attached before convergence and its prefixes are
    **not** originated — the experiment announces them itself.  Without
    it, every AS originates its prefixes.

    *mode* selects how convergence is produced (module docstring);
    ``"solver"`` raises :class:`~repro.bgp.solver.SolverUnsupported` when
    the config has features the solver cannot model, ``"auto"`` (the
    default) falls back to the event engine instead.

    *defense_rate* deploys the measured anti-poisoning defenses
    (:func:`~repro.topology.generate.assign_defense_configs`) on that
    fraction of ASes before convergence; the origin AS never defends.
    Any nonzero rate puts defense import filters in play, so ``auto``
    mode falls back to the event engine via the solver gate.
    """
    # Deferred: workloads.scenarios imports the control stack, which
    # reaches back into repro.runner — importing it at module scope would
    # make the import order between the two packages matter.
    from repro.workloads.scenarios import build_internet

    # Only ``cache=None`` is accepted: bench/workloads.py still passes it.
    if cache is not None:
        raise TypeError("converged_internet() has no disk cache; omit cache=")
    requested = mode or MODE_AUTO
    if requested not in (MODE_AUTO, MODE_SOLVER, MODE_EVENT):
        raise SimulationError(
            f"unknown baseline mode {requested!r}; pick from "
            f"{[MODE_AUTO, MODE_SOLVER, MODE_EVENT]}"
        )
    stats = stats if stats is not None else RunStats()
    config = engine_config or EngineConfig(seed=seed)

    with stats.timer("baseline.topology"):
        graph, _shape = build_internet(scale, seed)
        origin_asn: Optional[int] = None
        if origin_providers is not None:
            asn = (
                _even_origin_asn(graph)
                if origin_asn_policy == ORIGIN_ASN_EVEN
                else None
            )
            origin_asn = generate_multihomed_origin(
                graph,
                num_providers=origin_providers,
                seed=seed,
                asn=asn,
            )

    defense_configs = (
        assign_defense_configs(
            graph,
            defense_rate,
            seed=seed,
            skip=() if origin_asn is None else (origin_asn,),
        )
        if defense_rate > 0.0
        else None
    )
    engine = BGPEngine(graph, config, defense_configs)
    originations = [
        Origination.make(node.asn, prefix)
        for node in graph.nodes()
        if origin_asn is None or node.asn != origin_asn
        for prefix in node.prefixes
    ]

    # In solver mode, ``solve`` runs the gate and raises on a refusal.
    solved = requested != MODE_EVENT
    if requested == MODE_AUTO:
        refusal = solver_unsupported_reason(engine, originations)
        if refusal is not None:
            solved = False
            count_refusal(stats, "solver", refusal)

    with stats.timer("baseline.convergence"):
        if solved:
            engine.warm_start(solve(engine, originations, stats=stats))
        else:
            for org in originations:
                engine.originate(org.asn, org.prefix)
            engine.run()
    return ConvergedBaseline(
        graph=graph, engine=engine, origin_asn=origin_asn
    )
