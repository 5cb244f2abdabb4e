"""Central analysis registry — the one front door to every analysis.

Every caller that resolves an analysis or a checker by name — the
session, the CLI, the service — goes through this table. Three name
families live here:

* **checker algorithms** (``aerodrome``, ``velodrome``, …) — every
  :class:`~repro.core.checker.StreamingChecker`, instantiable directly
  via :func:`make_checker` or as a session analysis (in any run mode)
  via :func:`create_analysis`;
* **built-in analyses** (``races``, ``lockset``, ``profile``,
  ``viewserial``, ``causal``, ``explain``) — the ``repro.analysis``
  passes wrapped as :class:`~repro.api.analysis.Analysis` adapters;
* **plugins** — anything registered through :func:`register_analysis`
  in-process, or discovered from ``importlib.metadata`` entry points in
  the ``repro.analyses`` group (each entry point loads to a zero-or-
  keyword-argument factory returning an ``Analysis``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .analysis import (
    Analysis,
    CausalAnalysis,
    CheckerAnalysis,
    ExplainAnalysis,
    LocksetAnalysis,
    ProfileAnalysis,
    RacesAnalysis,
    ViewSerialAnalysis,
)

#: Entry-point group scanned for third-party analyses.
ENTRY_POINT_GROUP = "repro.analyses"


def _checker_factories() -> Dict[str, Callable[[], object]]:
    # Imported lazily: the algorithm modules import repro.core.checker
    # (and transitively this package) for the base class.
    from ..baselines.atomizer import AtomizerChecker
    from ..baselines.doublechecker import DoubleCheckerChecker
    from ..baselines.velodrome import VelodromeChecker
    from ..core.aerodrome import AeroDromeChecker
    from ..core.aerodrome_opt import OptimizedAeroDromeChecker
    from ..core.sharded import ShardedAeroDromeChecker

    return {
        "aerodrome": OptimizedAeroDromeChecker,
        "aerodrome-basic": AeroDromeChecker,
        "aerodrome-sharded": ShardedAeroDromeChecker,
        "velodrome": lambda: VelodromeChecker(garbage_collect=True),
        "velodrome-nogc": lambda: VelodromeChecker(garbage_collect=False),
        "velodrome-pk": lambda: VelodromeChecker(incremental_topology=True),
        "doublechecker": DoubleCheckerChecker,
        "atomizer": AtomizerChecker,
    }


def checker_names() -> List[str]:
    """Registry names of the streaming checkers, sorted."""
    return sorted(_checker_factories())


def make_checker(algorithm: str = "aerodrome"):
    """Instantiate a fresh :class:`StreamingChecker` by registry name."""
    registry = _checker_factories()
    try:
        factory = registry[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(registry)}"
        ) from None
    return factory()


@dataclass(frozen=True)
class AnalysisSpec:
    """One registry row.

    Attributes:
        name: The registry key (also the default report key).
        factory: Callable returning a fresh :class:`Analysis`; keyword
            arguments from :func:`create_analysis` are forwarded when
            the factory accepts them.
        kind: Family tag (``"checker"``, ``"races"``, …).
        summary: One-line description for ``repro algorithms`` /docs.
    """

    name: str
    factory: Callable[..., Analysis]
    kind: str = "analysis"
    summary: str = ""


_BUILTIN_ANALYSES = (
    AnalysisSpec("races", RacesAnalysis, "races",
                 "FastTrack happens-before data races"),
    AnalysisSpec("lockset", LocksetAnalysis, "lockset",
                 "Eraser lockset race warnings"),
    AnalysisSpec("profile", ProfileAnalysis, "profile",
                 "workload shape report"),
    AnalysisSpec("viewserial", ViewSerialAnalysis, "viewserial",
                 "exact view serializability (small traces)"),
    AnalysisSpec("causal", CausalAnalysis, "causal",
                 "per-transaction causal atomicity"),
    AnalysisSpec("explain", ExplainAnalysis, "explain",
                 "witness cycle extraction"),
)

#: In-process plugin registrations (name -> spec).
_PLUGINS: Dict[str, AnalysisSpec] = {}

_entry_points_loaded = False


def register_analysis(
    name: str,
    factory: Callable[..., Analysis],
    kind: str = "analysis",
    summary: str = "",
) -> None:
    """Register (or replace) an analysis under ``name``.

    Checker algorithm names are reserved; registering over one raises.
    """
    if name in _checker_factories():
        raise ValueError(f"{name!r} is a checker algorithm name; pick another")
    _PLUGINS[name] = AnalysisSpec(name, factory, kind, summary)


def unregister_analysis(name: str) -> None:
    """Remove a plugin registration (built-ins cannot be removed)."""
    _PLUGINS.pop(name, None)


def _lazy_entry_factory(entry) -> Callable[..., Analysis]:
    """Defer ``entry.load()`` until the analysis is actually created.

    Listing analyses (every CLI startup does, for ``--analysis`` help)
    must not import third-party plugin modules; only resolving the name
    pays that cost — and a broken plugin fails loudly there, not
    silently at discovery.
    """

    def factory(**options) -> Analysis:
        loaded = entry.load()
        return loaded(**options) if options else loaded()

    return factory


def _load_entry_points() -> None:
    """Best-effort discovery of ``repro.analyses`` entry points."""
    global _entry_points_loaded
    if _entry_points_loaded:
        return
    _entry_points_loaded = True
    try:
        from importlib.metadata import entry_points
    except ImportError:  # pragma: no cover - py<3.8
        return
    try:
        found = entry_points(group=ENTRY_POINT_GROUP)
    except TypeError:  # pragma: no cover - py<3.10 select API
        found = entry_points().get(ENTRY_POINT_GROUP, [])
    for entry in found:
        if entry.name in _PLUGINS or entry.name in _checker_factories():
            continue
        _PLUGINS[entry.name] = AnalysisSpec(
            entry.name,
            _lazy_entry_factory(entry),
            "plugin",
            f"entry point {entry.value}",
        )


def _specs() -> Dict[str, AnalysisSpec]:
    _load_entry_points()
    table: Dict[str, AnalysisSpec] = {}
    for name, factory in _checker_factories().items():
        table[name] = AnalysisSpec(
            name,
            _checker_analysis_factory(name),
            "checker",
            "conflict-serializability checker",
        )
    for spec in _BUILTIN_ANALYSES:
        table[spec.name] = spec
    table.update(_PLUGINS)
    return table


def _checker_analysis_factory(algorithm: str) -> Callable[..., Analysis]:
    def factory(**options) -> Analysis:
        return CheckerAnalysis(algorithm=algorithm, **options)

    return factory


def available_analyses() -> List[str]:
    """Every name :func:`create_analysis` accepts, sorted."""
    return sorted(_specs())


def analysis_specs() -> List[AnalysisSpec]:
    """All registry rows, sorted by name."""
    return [spec for _, spec in sorted(_specs().items())]


def create_analysis(name: str, **options) -> Analysis:
    """Instantiate a fresh analysis by registry name.

    Keyword ``options`` (e.g. ``mode=\"report_all\"``, ``dedupe=True``,
    ``top=5``) are forwarded to the factory; factories that take no
    options reject unexpected keywords naturally.
    """
    specs = _specs()
    try:
        spec = specs[name]
    except KeyError:
        raise ValueError(
            f"unknown analysis {name!r}; choose from {sorted(specs)}"
        ) from None
    return spec.factory(**options) if options else spec.factory()
