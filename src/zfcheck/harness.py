"""Configuration, suite driver, and deterministic reporting.

A run is described by a JSON config (every key optional, unknown keys
rejected), executed suite by suite in dependency order

    rmatrix -> fock -> vertex -> boundary -> hierarchy

and reported as a flat list of check records plus a summary.  One table,
``RELATIONS``, lists every relation tag with what it needs (suite, the
reflection gate, momentum plan, evaluator factory); a single loop over it
produces the records.
Apart from the reflection gate's own checks in ``rmatrix``, it is the only
place in the package that names a relation: each identity row builds its
evaluator from the (lhs, rhs) pairs of a builder in the relation's layer
module.

Two runs with the same config, seed, and suite selection produce
byte-identical reports: sampling is driven by one seeded generator consumed
in a fixed order, and the report carries no timestamps or environment state.

The reflection whitelist acts as a prepass.  Whenever a suite that uses the
dressed reflection operator is selected, the matrix-level gate (pointwise
B-unitarity plus the quadratic reflection identity over all grid pairs) runs
first and its outcomes are recorded under the rmatrix suite.  If the gate
fails, every dependent check is recorded with status ``skip`` and an
explanatory cause instead of being silently dropped; the bulk layers
(exchange matrix checks, Fock algebra, the vertex operator itself) still
run, since they never touch the reflection matrix.

A sample is likewise recorded as a skip if its evaluator creates particles,
as many as its ``headroom`` (which ``relations.identity`` derives from the
compiled factor products), and its sector leaves less room than that under
the cap, and so is a configured sample of a sector longer than the grid,
which no word of distinct momenta fills.
Coverage is never silently narrowed, with one exception: ``H-eigen``
samples only the vacuum and the one-particle sector (its ``low-sectors``
sample source) and records no skips for the configured samples of higher
sectors.
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import groupby
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from . import boundary, fock, hierarchy, relations, vertex
from .boundary import BoundaryContext
from .errors import ConfigError
from .fock import FockSpace, FockState, SpectralGrid, Word
from .rmatrix import (
    ReflectionMatrixSpec,
    Residual,
    check_unitarity,
    check_yang_baxter,
    constant_diagonal_b,
    identity_b,
    load_table_b,
    phase_diagonal_b,
    rational_r,
)
from .vertex import VertexContext

__version__ = "0.1.0"

SUITE_ORDER = ("rmatrix", "fock", "vertex", "boundary", "hierarchy")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on.  Defaults give the standard desk check."""

    N: int = 2
    g: float = 0.7
    grid: tuple[float, ...] = (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)
    n_max: int = 3
    reflection: Mapping[str, object] = field(
        default_factory=lambda: {"family": "identity"}
    )
    suites: tuple[str, ...] = SUITE_ORDER
    tolerance: float = 1e-10
    seed: int = 2026
    samples_per_sector: Mapping[int, int] = field(
        default_factory=lambda: {1: 3, 2: 3, 3: 2}
    )
    rmatrix_samples: int = 50
    prune: float = 1e-14

    def to_dict(self) -> dict:
        """Normalized JSON-ready echo of the configuration."""
        return {
            "N": self.N,
            "g": self.g,
            "grid": list(self.grid),
            "n_max": self.n_max,
            "reflection": dict(self.reflection),
            "suites": list(self.suites),
            "tolerance": self.tolerance,
            "seed": self.seed,
            "samples_per_sector": {
                str(n): c for n, c in sorted(self.samples_per_sector.items())
            },
            "rmatrix_samples": self.rmatrix_samples,
            "prune": self.prune,
        }


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


def _is_number(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _sixth_power_finite(k: float) -> bool:
    """Whether k^6, the largest charge weight a run forms (H(2) H(4)), is a finite float."""
    try:
        return math.isfinite((float(k) * float(k)) ** 3)
    except OverflowError:  # k or k^6 is past the float range
        return False


def _as_float(x: int | float) -> float:
    """x as a float; an int past the float range gives inf, as only finiteness is read then."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _parse_entry(x: object, where: str) -> complex:
    """One finite reflection matrix entry: a real number, an [re, im] pair, or a string."""
    if _is_number(x):
        z = complex(_as_float(x))
    elif isinstance(x, list) and len(x) == 2 and all(_is_number(v) for v in x):
        z = complex(_as_float(x[0]), _as_float(x[1]))
    elif isinstance(x, str):
        try:
            z = complex(x.replace(" ", ""))
        except ValueError:
            raise ConfigError(f"{where}: cannot parse complex entry {x!r}") from None
    else:
        raise ConfigError(
            f"{where}: entries must be numbers, [re, im] pairs, or complex strings, "
            f"got {x!r}"
        )
    _require(cmath.isfinite(z), f"{where}: entry {x!r} is not a finite complex number")
    return z


# Per reflection family: the config keys it takes besides "family", and the
# builder of its spec from N and the checked reflection object.
_FAMILIES: dict[str, tuple[tuple[str, ...], Callable[[int, dict], ReflectionMatrixSpec]]] = {
    "identity": ((), lambda N, refl: identity_b(N)),
    "constant-diagonal": (("entries",), lambda N, refl: constant_diagonal_b([complex(*e) for e in refl["entries"]])),
    "k-dependent-diagonal": (("c", "signs"), lambda N, refl: phase_diagonal_b(N, float(refl["c"]), refl.get("signs"))),
    "table": (("path",), lambda N, refl: load_table_b(refl["path"], N)),
}


def _check_reflection(refl: object, N: int, base_dir: Path | None) -> dict:
    """The checked reflection object, as the report echoes it: each of
    ``entries`` is an [re, im] pair, and a relative table ``path`` is anchored
    at ``base_dir``."""
    _require(isinstance(refl, dict), "reflection must be an object")
    assert isinstance(refl, dict)
    family = refl.get("family")
    _require(
        isinstance(family, str) and family in _FAMILIES,
        f"reflection.family must be one of {list(_FAMILIES)}, got {family!r}",
    )
    keys = _FAMILIES[family][0]
    extra = sorted(set(refl) - set(keys) - {"family"})
    _require(not extra, f"reflection: unknown keys for family {family!r}: {extra}")
    out = dict(refl)
    if "entries" in keys:
        entries = refl.get("entries")
        _require(
            isinstance(entries, list) and len(entries) == N,
            f"reflection.entries must be a list of {N} entries",
        )
        parsed = (_parse_entry(e, "reflection.entries") for e in entries)
        out["entries"] = [[z.real, z.imag] for z in parsed]
    if "c" in keys:
        c = refl.get("c")
        _require(
            _is_number(c) and math.isfinite(_as_float(c)),
            f"reflection.c must be a finite real number, got {c!r}",
        )
    if "signs" in refl:
        signs = refl["signs"]
        _require(
            isinstance(signs, list)
            and len(signs) == N
            and all(_is_int(s) and s in (-1, 1) for s in signs),
            f"reflection.signs must be a list of {N} values from {{-1, 1}}",
        )
    if "path" in keys:
        path = refl.get("path")
        _require(isinstance(path, str), "reflection.path must be a string")
        if base_dir is not None and not Path(path).is_absolute():
            out["path"] = str(base_dir / path)
    return out


_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig))


def config_from_dict(data: object, base_dir: Path | None = None) -> RunConfig:
    """Validate a parsed JSON object into a RunConfig.

    ``base_dir`` anchors relative reflection table paths, normally the
    directory containing the config file.
    """
    _require(isinstance(data, dict), "config root must be a JSON object")
    assert isinstance(data, dict)
    unknown = sorted(set(data) - set(_CONFIG_KEYS))
    _require(not unknown, f"unknown config keys: {unknown}")
    base = RunConfig()

    N = data.get("N", base.N)
    _require(_is_int(N) and N >= 1, f"N must be an integer >= 1, got {N!r}")
    g = data.get("g", base.g)
    _require(_is_number(g), f"g must be a real number, got {g!r}")
    _require(
        g != 0,
        "g must be nonzero: the Fock basis keeps equal-momentum color orders "
        "as independent states, which assumes R(k, k) = P, and g = 0 gives R = I",
    )
    _require(  # False for NaN; an int compares exactly, even past the float range
        sys.float_info.min <= abs(g) <= sys.float_info.max,
        f"g must be a normal float, {sys.float_info.min!r} to {sys.float_info.max!r} "
        f"in magnitude, got {g!r}: R(k, k) = (i g P)/(i g) is not finite otherwise",
    )
    grid_raw = data.get("grid", list(base.grid))
    _require(
        isinstance(grid_raw, list) and all(_is_number(k) for k in grid_raw),
        "grid must be a list of real momenta",
    )
    for k in grid_raw:
        _require(
            _sixth_power_finite(k), f"grid momentum {k!r} is too large: the charges form k^6"
        )
    n_max = data.get("n_max", base.n_max)
    _require(
        _is_int(n_max) and n_max >= 1, f"n_max must be an integer >= 1, got {n_max!r}"
    )
    refl = _check_reflection(data.get("reflection", dict(base.reflection)), N, base_dir)

    suites_raw = data.get("suites", ["all"])
    _require(
        isinstance(suites_raw, list)
        and suites_raw
        and all(isinstance(s, str) for s in suites_raw),
        "suites must be a nonempty list of suite names",
    )
    suites = resolve_suites(suites_raw)

    tol = data.get("tolerance", base.tolerance)
    _require(
        _is_number(tol) and 0 < tol < 1, f"tolerance must be in (0, 1), got {tol!r}"
    )
    seed = data.get("seed", base.seed)
    _require(
        _is_int(seed) and 0 <= seed < 2**64,
        f"seed must be an unsigned 64-bit integer, got {seed!r}",
    )
    sps_raw = data.get(
        "samples_per_sector",
        {str(k): v for k, v in base.samples_per_sector.items() if k <= n_max},
    )
    _require(
        isinstance(sps_raw, dict), "samples_per_sector must be an object"
    )
    sps: dict[int, int] = {}
    key_of: dict[int, str] = {}
    for key, val in sps_raw.items():
        try:
            sector = int(key)
        except (TypeError, ValueError):
            raise ConfigError(
                f"samples_per_sector: key {key!r} is not an integer sector"
            ) from None
        _require(
            1 <= sector <= n_max,
            f"samples_per_sector: sector {sector} outside 1..n_max={n_max}",
        )
        _require(
            sector not in key_of,
            f"samples_per_sector: keys {key_of.get(sector)!r} and {key!r} "
            f"both name sector {sector}",
        )
        key_of[sector] = key
        _require(
            _is_int(val) and val >= 0,
            f"samples_per_sector[{key}] must be a nonnegative integer, got {val!r}",
        )
        sps[sector] = val
    rsamples = data.get("rmatrix_samples", base.rmatrix_samples)
    _require(
        _is_int(rsamples) and rsamples >= 1,
        f"rmatrix_samples must be an integer >= 1, got {rsamples!r}",
    )
    prune = data.get("prune", base.prune)
    _require(
        _is_number(prune) and 0 <= prune <= 1e-10,
        f"prune must lie in [0, 1e-10], got {prune!r}",
    )

    return RunConfig(
        N=N,
        g=float(g),
        grid=tuple(float(k) for k in grid_raw),
        n_max=n_max,
        reflection=refl,
        suites=suites,
        tolerance=float(tol),
        seed=seed,
        samples_per_sector=sps,
        rmatrix_samples=rsamples,
        prune=float(prune),
    )


def load_config(path: str | Path) -> RunConfig:
    """Read and validate a JSON config file.

    Parse failures report file, line, and column; semantic failures, and a
    key repeated in one object, name the offending key.  All raise
    ConfigError.
    """
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {p}: {e}") from None

    def unique(pairs: list[tuple[str, object]]) -> dict:
        out: dict = {}
        for key, value in pairs:
            _require(key not in out, f"{p}: key {key!r} is given twice in one object")
            out[key] = value
        return out

    try:
        data = json.loads(text, object_pairs_hook=unique)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{p}:{e.lineno}:{e.colno}: {e.msg}") from None
    return config_from_dict(data, base_dir=p.parent)


def resolve_suites(names: Sequence[str]) -> tuple[str, ...]:
    """Expand 'all' and order the selection by suite dependency."""
    chosen: set[str] = set()
    for name in names:
        if name == "all":
            chosen.update(SUITE_ORDER)
        elif name in SUITE_ORDER:
            chosen.add(name)
        else:
            raise ConfigError(
                f"unknown suite {name!r}; choose from {['all', *SUITE_ORDER]}"
            )
    return tuple(s for s in SUITE_ORDER if s in chosen)


def build_reflection(cfg: RunConfig) -> ReflectionMatrixSpec:
    """The reflection matrix spec of a config's checked reflection object."""
    return _FAMILIES[cfg.reflection["family"]][1](cfg.N, cfg.reflection)


# ---------------------------------------------------------------------------
# Records and reports


@dataclass(frozen=True)
class CheckRecord:
    """One measured (or skipped) identity instance."""

    suite: str
    relation: str
    momenta: tuple[float, ...]
    sample: str
    residual: float | None
    status: str  # "pass" | "fail" | "skip"
    cause: str | None = None

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "relation": self.relation,
            "momenta": list(self.momenta),
            "sample": self.sample,
            "residual": self.residual,
            "status": self.status,
            "cause": self.cause,
        }


@dataclass(frozen=True)
class Report:
    config: RunConfig
    records: tuple[CheckRecord, ...]

    @property
    def counts(self) -> dict[str, int]:
        out = {"checks": len(self.records), "pass": 0, "fail": 0, "skip": 0}
        for r in self.records:
            out[r.status] += 1
        return out

    @property
    def max_residual(self) -> float:
        vals = [r.residual for r in self.records if r.residual is not None]
        return max(vals, default=0.0)

    @property
    def failed(self) -> bool:
        return any(r.status == "fail" for r in self.records)

    def summary(self) -> dict:
        suites: dict[str, dict] = {}
        for r in self.records:
            s = suites.setdefault(
                r.suite,
                {"checks": 0, "pass": 0, "fail": 0, "skip": 0, "max_residual": 0.0},
            )
            s["checks"] += 1
            s[r.status] += 1
            if r.residual is not None:
                s["max_residual"] = max(s["max_residual"], r.residual)
        return {
            "overall": {**self.counts, "max_residual": self.max_residual},
            "suites": suites,
        }

    def to_dict(self) -> dict:
        return {
            "provenance": {
                "package": "zfcheck",
                "version": __version__,
                "seed": self.config.seed,
                "tolerance": self.config.tolerance,
                "config": self.config.to_dict(),
            },
            "summary": self.summary(),
            "records": [r.to_dict() for r in self.records],
        }


def render_json(report: Report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def render_text(report: Report) -> str:
    lines = [
        "zfcheck report",
        f"package=zfcheck version={__version__} seed={report.config.seed} "
        f"tolerance={report.config.tolerance:g}",
        "",
        f"{'suite':<10} {'relation':<16} {'momenta':<22} {'sample':<10} "
        f"{'status':<6} residual",
    ]
    for r in report.records:
        momenta = "(" + ",".join(f"{k:g}" for k in r.momenta) + ")"
        residual = "-" if r.residual is None else f"{r.residual:.3e}"
        line = (
            f"{r.suite:<10} {r.relation:<16} {momenta:<22} {r.sample:<10} "
            f"{r.status:<6} {residual}"
        )
        if r.cause:
            line += f"  [{r.cause}]"
        lines.append(line)
    lines.append("")
    for name, s in report.summary()["suites"].items():
        lines.append(
            f"suite {name}: checks={s['checks']} pass={s['pass']} "
            f"fail={s['fail']} skip={s['skip']} max_residual={s['max_residual']:.3e}"
        )
    c = report.counts
    lines.append(
        f"overall: checks={c['checks']} pass={c['pass']} fail={c['fail']} "
        f"skip={c['skip']} max_residual={report.max_residual:.3e}"
    )
    lines.append("result: " + ("FAIL" if report.failed else "PASS"))
    return "\n".join(lines) + "\n"


def emit_report(report: Report, path: str | Path | None = None, fmt: str = "json") -> str:
    """Render a report and optionally write it to a file.

    The rendered bytes are a pure function of the report content; repeated
    runs with identical config, seed, and suite selection emit identical
    files.
    """
    if fmt == "json":
        rendered = render_json(report)
    elif fmt == "text":
        rendered = render_text(report)
    else:
        raise ConfigError(f"unknown report format {fmt!r}; use 'text' or 'json'")
    if path is not None:
        try:
            Path(path).write_text(rendered)
        except OSError as e:
            raise ConfigError(f"cannot write report {path}: {e}") from None
    return rendered


# ---------------------------------------------------------------------------
# Deterministic sampling

_SAMPLE_TERMS = 2  # words per sample state, fewer only if a sector has too few


def _random_word(rng: np.random.Generator, space: FockSpace, n: int) -> Word:
    """A canonical word with n pairwise-distinct momenta and random colors."""
    gs = sorted(int(x) for x in rng.choice(len(space.grid), size=n, replace=False))
    cs = [int(c) for c in rng.integers(0, space.N, size=n)]
    return tuple(zip(gs, cs))


def random_state(rng: np.random.Generator, space: FockSpace, n: int) -> FockState:
    """A random n-particle state: ``_SAMPLE_TERMS`` canonical words, unit peak amplitude."""
    words: list[Word] = []
    guard = 0
    while len(words) < _SAMPLE_TERMS:
        w = _random_word(rng, space, n)
        if w not in words:
            words.append(w)
        guard += 1
        if guard > 100 * _SAMPLE_TERMS:
            break
    amps = {
        w: complex(rng.standard_normal(), rng.standard_normal()) for w in words
    }
    state = FockState(amps)
    peak = state.maxamp()
    return state.scaled(1.0 / peak) if peak else state


@dataclass(frozen=True)
class Undrawable:
    """A configured sample its sector cannot hold; each of its records is a skip."""

    cause: str


@dataclass(frozen=True)
class SamplePlan:
    """Named sample states per sector plus shared random momenta draws."""

    by_sector: Mapping[int, tuple[tuple[str, FockState | Undrawable], ...]]
    ybe_triples: tuple[tuple[float, float, float], ...]
    unitarity_pairs: tuple[tuple[float, float], ...]
    shuffles: tuple[tuple[str, FockState], ...]
    roundtrips: tuple[tuple[str, FockState], ...]

    def up_to(self, max_sector: int) -> list[tuple[str, FockState | Undrawable]]:
        out: list[tuple[str, FockState | Undrawable]] = []
        for n in sorted(self.by_sector):
            if n <= max_sector:
                out.extend(self.by_sector[n])
        return out


def build_sample_plan(cfg: RunConfig, space: FockSpace) -> SamplePlan:
    """Draw every random object a run can need, in one fixed order.

    Drawing everything up front keeps reports for a suite subset consistent
    with the full run: selection changes which checks execute, never which
    random samples exist.  A sample word has pairwise-distinct momenta, so a
    sector longer than the grid draws nothing: its configured samples are
    ``Undrawable``, recorded as skips.
    """
    rng = np.random.default_rng(cfg.seed)
    by_sector: dict[int, tuple[tuple[str, FockState | Undrawable], ...]] = {
        0: (("vac", space.vacuum()),)
    }
    G = len(space.grid)
    for n in range(1, cfg.n_max + 1):
        count = cfg.samples_per_sector.get(n, 0)
        if n > G:
            sample = Undrawable(f"sector {n} needs {n} distinct momenta, the grid has {G}")
            by_sector[n] = tuple((f"{n}p-{i}", sample) for i in range(count))
        else:
            by_sector[n] = tuple((f"{n}p-{i}", random_state(rng, space, n)) for i in range(count))

    window = 3.0
    ybe = tuple(
        tuple(float(x) for x in rng.uniform(-window, window, size=3))
        for _ in range(cfg.rmatrix_samples)
    )
    unit = tuple(
        tuple(float(x) for x in rng.uniform(-window, window, size=2))
        for _ in range(cfg.rmatrix_samples)
    )

    # Each shuffle reverses a canonical word: of three letters' orders only the
    # reversal starts the leftmost and rightmost schedules at different pairs.
    shuffle_sector = min(3, cfg.n_max, len(space.grid))
    shuffles = []
    for i in range(4):
        w = _random_word(rng, space, shuffle_sector)
        shuffles.append((f"shuffle-{i}", FockState({w[::-1]: 1.0 + 0j})))

    # Each roundtrip word is one adjacent pair, which every grid (at least
    # +-k) holds; the roundtrip creates no particles, so no cap skips it.
    roundtrips = []
    for i in range(4):
        roundtrips.append((f"word-{i}", space.basis_state(_random_word(rng, space, 2))))

    return SamplePlan(
        by_sector=by_sector,
        ybe_triples=ybe,
        unitarity_pairs=unit,
        shuffles=tuple(shuffles),
        roundtrips=tuple(roundtrips),
    )


def _momentum_pairs(grid: SpectralGrid) -> tuple[tuple[float, float], ...]:
    """A small deterministic pair set covering the relation channels.

    Generic (k1 != +-k2), equal, opposite, and a mixed-sign generic pair;
    degenerate grids (a single +-k pair) fall back to what exists.
    """
    pos = grid.positive()
    p0 = pos[0]
    pairs = [(p0, p0), (p0, -p0)]
    if len(pos) >= 2:
        pairs.insert(0, (p0, pos[1]))
        pairs.append((-pos[1], pos[-1]))
    seen: list[tuple[float, float]] = []
    for p in pairs:
        if p not in seen:
            seen.append(p)
    return tuple(seen)


# ---------------------------------------------------------------------------
# The relation table


@dataclass(frozen=True)
class Relation:
    """One relation tag of one suite, and how a run measures it.

    At each point of the momentum plan ``plan`` (see ``_Run.plans``),
    ``factory(context, *args)`` is called on the suite's context object and
    returns the row's per-sample evaluator.  An identity row's factory is
    ``_identity(builder[, i])``: the layer's builder gives the (lhs, rhs)
    pairs, of one relation or of a family whose i-th pair is the row's, and
    ``relations.identity`` turns them into the evaluator.  An evaluator
    returns the residual, or a Residual whose context may carry the record's
    cause.  One built by ``relations.identity`` carries a ``headroom``: if
    nonzero, a sample whose sector leaves less under n_max is skipped.

    ``samples`` names the sample source (see ``_Run.samples``).  When the
    reflection gate fails, rows that ``needs_b`` get one skip record each.
    The ``gate`` rows are that gate: they also run ahead of any selected
    suite that needs b.
    """

    suite: str
    tag: str
    needs_b: bool
    plan: str
    factory: Callable
    samples: str = "sectors"
    gate: bool = False


# The object each suite's factories are called on, as an attribute of _Run.
_CONTEXT = {
    "rmatrix": "rspec",
    "fock": "space",
    "vertex": "vertex",
    "boundary": "boundary",
    "hierarchy": "boundary",
}


def _identity(builder: Callable, i: int | None = None) -> Callable:
    """The factory of an identity row: the residual function of the (lhs, rhs)
    pairs that ``builder(context, *args)`` returns, or of its i-th pair alone."""

    def factory(context, *args) -> Callable:
        pairs = builder(context, *args)
        return relations.identity(context.N, *(pairs if i is None else [pairs[i]]))

    return factory


def _once(check: Callable) -> Callable:
    """A check measured once per plan point; its one record takes no sample."""
    return lambda context, *args: lambda _: check(context, *args)


def _ssb(ctx: BoundaryContext) -> Residual:
    """The vacuum test of b(k); the broken generators become the cause."""
    report = hierarchy.check_symmetry_breaking(ctx)
    broken = ",".join(f"({i},{j})" for i, j in report.broken) or "none"
    return Residual(report.residual.value, {"cause": f"broken={broken}"})


def _boundary_rbrb(ctx: BoundaryContext, k1: float, _k2: float) -> list[relations.Pair]:
    """b(k1) b(-k1) = 1 among the boundary relations of a momentum pair."""
    return vertex.b_involution(ctx.vertex, k1)


_WHITELIST = _once(lambda _context, check: check)  # measured when the vertex context was built

# Every relation a run measures, in report order.  run_suites asserts that
# the records of each selected suite cover exactly its rows here.
#   suite, tag, needs b, momentum plan, evaluator factory[, samples]
RELATIONS: tuple[Relation, ...] = (
    Relation("rmatrix", "B-unitarity", False, "B-unitarity", _WHITELIST, "matrix", gate=True),
    Relation("rmatrix", "RBRB", False, "RBRB", _WHITELIST, "matrix", gate=True),
    Relation("rmatrix", "YBE", False, "ybe", _once(check_yang_baxter), "triple-{i}"),
    Relation("rmatrix", "unitarity", False, "unitarity", _once(check_unitarity), "pair-{i}"),
    Relation("fock", "AN-1", False, "pairs", _identity(fock.zf_exchange, 0)),
    Relation("fock", "AN-2", False, "pairs", _identity(fock.zf_exchange, 1)),
    Relation("fock", "AN-3", False, "pairs", _identity(fock.zf_exchange, 2)),
    Relation("fock", "confluence", False, "none", _identity(fock.confluence), "shuffles"),
    Relation("fock", "roundtrip", False, "none", _identity(fock.transposition_roundtrip), "roundtrips"),
    Relation("vertex", "TOmega", False, "aux", _identity(vertex.t_vacuum), "vac"),
    Relation("vertex", "defT-adag", False, "aux-particle", _identity(vertex.t_push, 0)),
    Relation("vertex", "defT-a", False, "aux-particle", _identity(vertex.t_push, 1)),
    Relation("vertex", "rtt", False, "rtt", _identity(vertex.rtt)),
    Relation("vertex", "T-inverse", False, "aux", _identity(vertex.t_inverse)),
    Relation("vertex", "b-vacuum", True, "grid", _identity(vertex.b_vacuum), "vac"),
    Relation("vertex", "rbrb", True, "reflected", _identity(vertex.b_involution)),
    Relation("vertex", "eq:ab", True, "pairs", _identity(vertex.b_exchange, 0)),
    Relation("vertex", "eq:bad", True, "pairs", _identity(vertex.b_exchange, 1)),
    Relation("vertex", "eq:bb", True, "pairs", _identity(vertex.b_exchange, 2)),
    Relation("boundary", "BNl-1", True, "pairs", _identity(boundary.boundary_exchange, 0)),
    Relation("boundary", "BNl-2", True, "pairs", _identity(boundary.boundary_exchange, 1)),
    Relation("boundary", "BNl-3", True, "pairs", _identity(boundary.boundary_exchange, 2)),
    Relation("boundary", "BNl-4", True, "pairs", _identity(boundary.boundary_exchange, 3)),
    Relation("boundary", "BNl-5", True, "pairs", _identity(boundary.boundary_exchange, 4)),
    Relation("boundary", "eq:bb", True, "pairs", _identity(boundary.boundary_exchange, 5)),
    Relation("boundary", "rbrb", True, "pairs", _identity(_boundary_rbrb)),
    Relation("boundary", "rho", True, "reflected", _identity(boundary.rho)),
    Relation("boundary", "rhoB-aa", True, "pairs", _identity(boundary.substitution_exchange, 0)),
    Relation("boundary", "rhoB-adad", True, "pairs", _identity(boundary.substitution_exchange, 1)),
    Relation("boundary", "rhoB-aad", True, "pairs", _identity(boundary.substitution_exchange, 2)),
    Relation("boundary", "rhoB-involution", True, "pairs", _identity(boundary.substitution_involution)),
    Relation("boundary", "coset", True, "pairs", _identity(boundary.coset)),
    Relation("hierarchy", "H-odd", True, "odd-orders", _identity(hierarchy.odd_vanishing)),
    Relation("hierarchy", "H-eigen", True, "eigen", _identity(hierarchy.eigenrelation), "low-sectors"),
    Relation("hierarchy", "H-commute", True, "order-pairs", _identity(hierarchy.flow_commute)),
    Relation("hierarchy", "H-iom", True, "iom", _identity(hierarchy.integral_of_motion)),
    Relation("hierarchy", "ssb", True, "none", _once(_ssb), "vac"),
)


# ---------------------------------------------------------------------------
# Running the table


class _Run:
    """Everything one run measures, built once from its config."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.grid = SpectralGrid(cfg.grid)
        self.rspec = rational_r(cfg.N, cfg.g)
        bspec = build_reflection(cfg)
        self.space = FockSpace(self.grid, self.rspec, n_max=cfg.n_max, prune=cfg.prune)
        self.vertex = VertexContext(self.space, bspec, whitelist_tol=cfg.tolerance)
        self.plan = build_sample_plan(cfg, self.space)
        # The outcome of each measured (tag, momenta, sample), for reuse.
        self.outcomes: dict[tuple, tuple] = {}

    @cached_property
    def boundary(self) -> BoundaryContext:
        """Built on first use, which only a run that passed the gate reaches."""
        return BoundaryContext(self.vertex)

    @cached_property
    def plans(self) -> dict[str, list[tuple[tuple[float, ...], tuple]]]:
        """Momentum plans by name, as (record momenta, factory arguments) pairs.

        Aux momenta need not live on the grid: two off-grid values plus a
        grid point exercise that.  Charge orders are recorded as floats and
        passed on as integers.  The reflected plan records (k, -k) for a
        factory that takes k.
        """
        pos = self.grid.positive()
        aux = (0.37, -1.6)
        ends = (pos[0], -pos[-1])

        def same(momenta) -> list:
            return [(tuple(m), tuple(m)) for m in momenta]

        plans = {
            "ybe": same(self.plan.ybe_triples),
            "unitarity": same(self.plan.unitarity_pairs),
            "pairs": same(_momentum_pairs(self.grid)),
            "none": [((), ())],
            "aux": same((k0,) for k0 in (*aux, pos[0])),
            "aux-particle": same((k0, k) for k0 in aux for k in ends),
            "rtt": same((aux, (pos[0], 2.2))),
            "grid": same((k,) for k in self.grid),
            "reflected": [((k, -k), (k,)) for k in pos],
            "odd-orders": [((float(n),), (n,)) for n in (1, 3, 5)],
            "eigen": [((float(n), k), (n, k)) for n in (2, 4) for k in pos],
            "order-pairs": [((float(n), float(m)), (n, m)) for n, m in ((2, 4), (0, 2))],
            "iom": [((2.0, k), (2, k)) for k in ends],
        }
        for r in self.vertex.whitelist.checks:  # one plan per gate relation, by its tag
            plans.setdefault(r.context["relation"], []).append((tuple(r.context["momenta"]), (r,)))
        return plans

    def samples(self, source: str, i: int) -> Sequence[tuple[str, object]]:
        """Named samples of the i-th plan point.

        A source that is not one of the sample plan's lists names the single
        record of a check that takes no sample; ``{i}`` in it is the index.
        """
        n_max = self.cfg.n_max
        if source == "sectors":
            return self.plan.up_to(n_max)
        if source == "vac":
            return self.plan.by_sector[0]
        if source == "low-sectors":
            # Each eigenrelation check applies the charge four times per
            # color, the hot loop of the whole run: stay in low sectors.
            return self.plan.up_to(min(1, n_max - 1))
        if source in ("shuffles", "roundtrips"):
            return getattr(self.plan, source)
        return [(source.format(i=i), None)]


def _outcome(fn: Callable, s: object, tol: float, n_max: int) -> tuple:
    """The residual, status and cause of one evaluator on one sample."""
    if isinstance(s, Undrawable):
        return None, "skip", s.cause
    headroom = getattr(fn, "headroom", 0)  # 0 if it creates no particles
    if headroom and (sector := s.max_particles()) > n_max - headroom:
        return None, "skip", f"sector {sector} needs headroom {headroom} over cap n_max={n_max}"
    got = fn(s)
    value, cause = (got.value, got.context.get("cause")) if isinstance(got, Residual) else (got, None)
    return float(value), "pass" if value < tol else "fail", cause


def _measure(run: _Run, group: Sequence[Relation]) -> Iterator[CheckRecord]:
    """Records of consecutive rows that share a suite and a plan: by momenta, then
    tag, then sample.  Each row's factory builds its evaluator at each plan point.

    A tag names one identity, so a (tag, momenta, sample) that an earlier
    suite measured takes that outcome and is not evaluated again.
    """
    head = group[0]
    cause = run.vertex.gate_cause() if head.needs_b else None
    if cause:
        for row in group:
            yield CheckRecord(row.suite, row.tag, (), "-", None, "skip", cause)
        return
    context = getattr(run, _CONTEXT[head.suite])
    tol, n_max = run.cfg.tolerance, run.cfg.n_max
    for i, (momenta, args) in enumerate(run.plans[head.plan]):
        for row in group:
            fn = None
            for name, s in run.samples(row.samples, i):
                key = (row.tag, momenta, name)
                outcome = run.outcomes.get(key)
                if outcome is None:
                    fn = fn or row.factory(context, *args)
                    outcome = run.outcomes[key] = _outcome(fn, s, tol, n_max)
                yield CheckRecord(row.suite, row.tag, momenta, name, *outcome)


def run_suites(cfg: RunConfig, suites: Sequence[str] | None = None) -> Report:
    """Execute the selected suites and return the full report.

    ``suites`` overrides the config's selection (names or 'all').  Suites
    always run in dependency order.  When the reflection whitelist prepass
    fails, checks that rely on the dressed reflection operator are recorded
    as skips with the gate's verdict as cause.
    """
    selected = resolve_suites(cfg.suites if suites is None else suites)
    run = _Run(cfg)
    needs_b = any(r.needs_b for r in RELATIONS if r.suite in selected)
    rows = [r for r in RELATIONS if r.suite in selected or (r.gate and needs_b)]
    records: list[CheckRecord] = []
    for _, group in groupby(rows, key=attrgetter("suite", "plan")):
        records.extend(_measure(run, list(group)))
    _assert_coverage(records, selected)
    return Report(config=replace(cfg, suites=selected), records=tuple(records))


def _assert_coverage(records: Sequence[CheckRecord], selected: Sequence[str]) -> None:
    """The records of every selected suite must cover exactly its table rows."""
    for suite in selected:
        expected = {r.tag for r in RELATIONS if r.suite == suite}
        seen = {r.relation for r in records if r.suite == suite}
        if seen != expected:
            raise RuntimeError(
                f"suite {suite!r} emitted records for {sorted(seen)} but the "
                f"relation table lists {sorted(expected)}; coverage was lost"
            )
