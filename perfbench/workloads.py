"""The three benchmark workloads and the checks on their outputs.

Each workload has

* ``setup()``: everything built before the first operation, repeatable so
  the benchmark can time it several times;
* ``operation(i)``: the ``i``-th full pass, returning an :class:`Outcome`
  with the number of measured identity instances and any broken output
  property; ``rounds_of`` passes make one round, in which every input of
  the workload is used once;
* ``controls()``: one-off checks outside the timed region (the negative
  control of the verify workloads, the independent counts of the sweep).

Only public zfcheck names are used.  The workload seed reaches the program
solely as the config ``seed`` (verify workloads) or through the choice of
momenta in the rewrite words (fock sweep).
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field

from zfcheck import FockSpace, SpectralGrid, VertexContext, fock, harness, rational_r
from zfcheck.harness import RunConfig, config_from_dict

SUITES = ("rmatrix", "fock", "vertex", "boundary", "hierarchy")

# Skips of a passing run come only from particle headroom under the cap.
_HEADROOM_CAUSE = re.compile(r"^sector \d+ needs headroom \d+ over cap n_max=\d+$")

# Relations of the vertex suite that use the dressed reflection operator b.
_VERTEX_B_TAGS = {"b-vacuum", "rbrb", "eq:ab", "eq:bad", "eq:bb"}


@dataclass
class Outcome:
    checks: int
    problems: list[str] = field(default_factory=list)
    report: object = None  # the verify workloads' Report
    rendered: str = ""
    key: int = 0  # which of the workload's configs the operation ran


class VerifyWorkload:
    """``run_suites`` followed by ``render_json`` on fixed configs.

    The workload seed gives ``rounds_of`` config seeds, ``seed * rounds_of``
    up to ``seed * rounds_of + rounds_of - 1``.  Operation ``i`` runs the
    config with the ``i % rounds_of``-th of them, so one round of
    ``rounds_of`` operations covers every config once.  A workload whose
    cost depends on the sampled states uses several, so that a round's time
    does not hang on a few samples.
    """

    def __init__(self, name: str, overrides: dict, seed: int, rounds_of: int = 1):
        self.name = name
        self.rounds_of = rounds_of
        self.data = [
            {**overrides, "seed": seed * rounds_of + j} for j in range(rounds_of)
        ]
        self.cfgs: list[RunConfig] = []
        self._first_json: dict[int, str] = {}

    @property
    def cfg(self) -> RunConfig:
        return self.cfgs[0]

    def setup(self) -> None:
        cfgs = []
        for data in self.data:
            cfg = config_from_dict(data)
            grid = SpectralGrid(cfg.grid)
            bspec = harness.build_reflection(cfg)
            space = FockSpace(grid, rational_r(cfg.N, cfg.g), n_max=cfg.n_max, prune=cfg.prune)
            VertexContext(space, bspec, whitelist_tol=cfg.tolerance)
            harness.build_sample_plan(cfg, space)
            cfgs.append(cfg)
        self.cfgs = cfgs

    def operation(self, i: int = 0) -> Outcome:
        key = i % self.rounds_of
        report = harness.run_suites(self.cfgs[key])
        rendered = harness.render_json(report)
        checks = report.counts["pass"] + report.counts["fail"]
        return Outcome(checks, report=report, rendered=rendered, key=key)

    def check(self, out: Outcome) -> None:
        records = out.report.records
        fails = [r for r in records if r.status == "fail"]
        if fails:
            out.problems.append(
                f"{len(fails)} fail records, first {fails[0].relation} {fails[0].momenta} "
                f"{fails[0].sample} residual {fails[0].residual:.3e}"
            )
        odd = [r for r in records if r.status == "skip" and not _HEADROOM_CAUSE.match(r.cause or "")]
        if odd:
            out.problems.append(f"{len(odd)} skips without a headroom cause: {odd[0].cause!r}")
        first = self._first_json.setdefault(out.key, out.rendered)
        if out.rendered != first:
            out.problems.append(
                f"rendered JSON of config seed {self.data[out.key]['seed']} differs "
                "from its first operation in this run"
            )

    def spaces(self) -> list:
        return []  # run_suites builds its own; the tracer captures them

    def controls(self) -> list[str]:
        """Negative control: a reflection that fails B(k)B(-k) = I by exactly 3."""
        N = self.cfg.N
        entries = [2.0] + [1.0] * (N - 1)
        data = {**self.data[0], "reflection": {"family": "constant-diagonal", "entries": entries}}
        report = harness.run_suites(config_from_dict(data))
        problems = []
        if not report.failed:
            problems.append("negative control did not FAIL")
        bu = [r.residual for r in report.records if r.relation == "B-unitarity"]
        if not bu or max(bu) != 2.0 * 2.0 - 1.0:
            problems.append(f"negative control B-unitarity residual {max(bu, default=None)!r}, expected 3")
        gated = [
            r
            for r in report.records
            if r.suite in ("boundary", "hierarchy")
            or (r.suite == "vertex" and r.relation in _VERTEX_B_TAGS)
        ]
        loose = [r for r in gated if r.status != "skip" or "whitelist gate" not in (r.cause or "")]
        if loose:
            problems.append(f"negative control ran b-dependent check {loose[0].suite}/{loose[0].relation}")
        covered = {(r.suite, r.relation) for r in gated}
        if not {s for s, _ in covered} >= {"vertex", "boundary", "hierarchy"} or not (
            {t for s, t in covered if s == "vertex"} == _VERTEX_B_TAGS
        ):
            problems.append(f"negative control skipped too little: {sorted(covered)}")
        return problems


def _multinomial(counts) -> int:
    out = math.factorial(sum(counts))
    for c in counts:
        out //= math.factorial(c)
    return out


class FockSweep:
    """Exhaustive AN-1..AN-3 on basis words plus long reversed-word rewrites."""

    PAIRS = ((1.0, 2.0), (1.0, 1.0), (1.0, -1.0), (-2.0, 3.0))
    # Particles each bulk relation creates beyond the input: a†a† adds two,
    # a a† one, a a none.
    HEADROOM = {"AN-1": 0, "AN-2": 2, "AN-3": 1}
    N_MAX = 5
    MAX_SECTOR = 3
    REWRITE_GRID = (-4.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 4.0)
    REWRITE_LENGTHS = (4, 5, 6, 7)
    RESIDUAL_TOL = 1e-10
    NORM_TOL = 1e-12

    rounds_of = 1

    def __init__(self, seed: int):
        self.name = "fock-sweep"
        self.seed = seed

    def setup(self) -> None:
        base = RunConfig()
        self.space = FockSpace(SpectralGrid(base.grid), rational_r(2, base.g), n_max=self.N_MAX)
        self.words = [w for n in range(self.MAX_SECTOR + 1) for w in self.space.canonical_words(n)]
        wide = SpectralGrid(self.REWRITE_GRID)
        self.rewrite_spaces = {
            N: FockSpace(wide, rational_r(N, base.g), n_max=max(self.REWRITE_LENGTHS))
            for N in (2, 3)
        }
        rng = random.Random(self.seed)
        self.rewrites = []
        for N in (2, 3):
            for L in self.REWRITE_LENGTHS:
                gs = sorted(rng.sample(range(len(wide)), L), reverse=True)
                word = tuple((g, i % N) for i, g in enumerate(gs))
                expect = _multinomial([sum(1 for i in range(L) if i % N == c) for c in range(N)])
                self.rewrites.append((N, word, expect))

    def spaces(self) -> list:
        return [self.space, *self.rewrite_spaces.values()]

    def expected_evaluations(self) -> int:
        """sum over relations and sectors of C(G+n-1, n) N^n, times the pairs."""
        G, N = len(self.space.grid), self.space.N
        total = 0
        for headroom in self.HEADROOM.values():
            top = min(self.MAX_SECTOR, self.N_MAX - headroom)
            total += sum(math.comb(G + n - 1, n) * N**n for n in range(top + 1))
        return total * len(self.PAIRS)

    def operation(self, i: int = 0) -> Outcome:
        out = Outcome(0)
        space = self.space
        worst, bad = 0.0, 0
        for k1, k2 in self.PAIRS:
            for tag, fn in fock.zf_relation_evaluators(space, k1, k2).items():
                cap = self.N_MAX - self.HEADROOM[tag]
                for w in self.words:
                    if len(w) > cap:
                        continue
                    res = fn(space.basis_state(w))
                    out.checks += 1
                    worst = max(worst, res)
                    bad += not res <= self.RESIDUAL_TOL
        if bad:
            out.problems.append(f"{bad} AN residuals above {self.RESIDUAL_TOL:g}, worst {worst:.3e}")
        if out.checks != self.expected_evaluations():
            out.problems.append(f"{out.checks} AN evaluations, expected {self.expected_evaluations()}")
        for N, word, expect in self.rewrites:
            state = self.rewrite_spaces[N].canonicalize({word: 1.0 + 0j})
            out.problems.extend(_rewrite_problems(word, state, expect, self.NORM_TOL))
        return out

    def check(self, out: Outcome) -> None:
        pass  # the properties are checked inside operation()

    def controls(self) -> list[str]:
        G, N = len(self.space.grid), self.space.N
        expect = sum(math.comb(G + n - 1, n) * N**n for n in range(self.MAX_SECTOR + 1))
        if len(self.words) != expect:
            return [f"{len(self.words)} canonical words in sectors 0..3, expected {expect}"]
        return []


def _rewrite_problems(word, state, expect: int, norm_tol: float) -> list[str]:
    """Term count, unit norm, and letter content of one canonicalized word."""
    problems = []
    if len(state) != expect:
        problems.append(f"reversed word {word} gave {len(state)} terms, expected {expect}")
    norm = math.sqrt(sum(abs(a) ** 2 for a in state.amps.values()))
    if not abs(norm - 1.0) <= norm_tol:
        problems.append(f"reversed word {word} canonicalized to 2-norm {norm!r}")
    momenta = sorted(g for g, _ in word)
    colors = sorted(c for _, c in word)
    for w in state.amps:
        if [g for g, _ in w] != momenta or sorted(c for _, c in w) != colors:
            problems.append(f"reversed word {word} produced foreign word {w}")
            break
    return problems


VERIFY_COLORS3 = {
    "N": 3,
    "reflection": {"family": "k-dependent-diagonal", "c": 1.0, "signs": [1, -1, 1]},
}
VERIFY_DEEP = {
    "n_max": 5,
    "samples_per_sector": {"1": 3, "2": 3, "3": 2, "4": 2, "5": 2},
}

# The sampled states in sectors 4 and 5 set most of verify-deep's cost, and
# one config seed draws only two of each; a round runs three config seeds.
VERIFY_DEEP_CONFIGS = 3

WORKLOADS = ("verify-colors3", "verify-deep", "fock-sweep")


def make(name: str, seed: int):
    if name == "verify-colors3":
        return VerifyWorkload(name, VERIFY_COLORS3, seed)
    if name == "verify-deep":
        return VerifyWorkload(name, VERIFY_DEEP, seed, rounds_of=VERIFY_DEEP_CONFIGS)
    if name == "fock-sweep":
        return FockSweep(seed)
    raise ValueError(f"unknown workload {name!r}; choose from {list(WORKLOADS)}")
