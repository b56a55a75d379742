"""Configuration validation, the suite driver, report rendering, and the CLI."""

import hashlib
import json
import re
from pathlib import Path

import pytest

from zfcheck import vertex
from zfcheck.cli import main
from zfcheck.errors import ConfigError, GridValidationError
from zfcheck.harness import (
    _CONTEXT,
    RELATIONS,
    SUITE_ORDER,
    RunConfig,
    _Run,
    build_reflection,
    build_sample_plan,
    config_from_dict,
    emit_report,
    load_config,
    render_json,
    render_text,
    resolve_suites,
    run_suites,
)

SMALL = {
    "grid": [-1.0, 1.0],
    "n_max": 2,
    "samples_per_sector": {"1": 1, "2": 1},
    "rmatrix_samples": 5,
}


def small_cfg(**overrides):
    return config_from_dict({**SMALL, **overrides})


def suite_tags(suite):
    return {r.tag for r in RELATIONS if r.suite == suite}


@pytest.fixture(scope="module")
def small_report():
    return run_suites(small_cfg())


class TestConfigValidation:
    def test_empty_object_gives_defaults(self):
        cfg = config_from_dict({})
        assert cfg.to_dict() == RunConfig().to_dict()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys.*momenta"):
            config_from_dict({"momenta": [1.0]})

    def test_root_must_be_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            config_from_dict([1, 2, 3])

    @pytest.mark.parametrize("bad", ["2", True, 0, -1, 2.5])
    def test_bad_N_rejected(self, bad):
        with pytest.raises(ConfigError, match="N must be"):
            config_from_dict({"N": bad})

    @pytest.mark.parametrize("bad", [0, 1.0, -1e-3, "tight"])
    def test_bad_tolerance_rejected(self, bad):
        with pytest.raises(ConfigError, match="tolerance"):
            config_from_dict({"tolerance": bad})

    @pytest.mark.parametrize("bad", [-1, 2**64, 1.5])
    def test_bad_seed_rejected(self, bad):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict({"seed": bad})

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigError, match="grid"):
            config_from_dict({"grid": [1.0, "x"]})

    def test_samples_per_sector_validation(self):
        with pytest.raises(ConfigError, match="not an integer sector"):
            config_from_dict({"samples_per_sector": {"abc": 1}})
        with pytest.raises(ConfigError, match="outside 1..n_max"):
            config_from_dict({"samples_per_sector": {"7": 1}, "n_max": 3})
        with pytest.raises(ConfigError, match="nonnegative"):
            config_from_dict({"samples_per_sector": {"1": -2}})

    def test_prune_band(self):
        with pytest.raises(ConfigError, match="prune"):
            config_from_dict({"prune": 1e-9})
        assert config_from_dict({"prune": 0}).prune == 0.0

    def test_zero_coupling_rejected(self):
        # R(k, k) = I instead of P at g = 0, so equal-momentum color orders
        # stop being independent states; AN-2, BNl-2, rhoB-adad and H-eigen
        # FAIL on such a run.
        with pytest.raises(ConfigError, match=r"g must be nonzero.*R\(k, k\) = P"):
            config_from_dict({"g": 0})
        with pytest.raises(ConfigError, match="g must be nonzero"):
            config_from_dict({"g": 0.0})
        assert config_from_dict({"g": -0.7}).g == -0.7

    @pytest.mark.parametrize("k", [1e300, 1e60])
    def test_grid_with_infinite_sixth_power_rejected(self, k):
        # H(2) H(4) weighs by k^6: at 1e300 apply_H overflowed, at 1e60 the
        # report carried NaN residuals.
        with pytest.raises(ConfigError, match=r"grid momentum .* k\^6"):
            config_from_dict({"grid": [-k, k]})
        assert config_from_dict({"grid": [-1e51, 1e51]}).grid == (-1e51, 1e51)

    def test_rmatrix_samples_positive(self):
        with pytest.raises(ConfigError, match="rmatrix_samples"):
            config_from_dict({"rmatrix_samples": 0})

    def test_suites_validation(self):
        with pytest.raises(ConfigError, match="nonempty list"):
            config_from_dict({"suites": []})
        with pytest.raises(ConfigError, match="unknown suite"):
            config_from_dict({"suites": ["fock", "bogus"]})

    def test_suites_resolved_in_dependency_order(self):
        cfg = config_from_dict({"suites": ["hierarchy", "rmatrix"]})
        assert cfg.suites == ("rmatrix", "hierarchy")
        assert resolve_suites(["all"]) == SUITE_ORDER

    def test_reflection_families(self):
        for refl in (
            {"family": "identity"},
            {"family": "constant-diagonal", "entries": [1.0, "0.6+0.8j"]},
            {"family": "constant-diagonal", "entries": [[0.0, 1.0], 1]},
            {"family": "k-dependent-diagonal", "c": 0.5},
            {"family": "k-dependent-diagonal", "c": 0.5, "signs": [1, -1]},
        ):
            cfg = config_from_dict({"reflection": refl})
            assert build_reflection(cfg).N == 2

    def test_reflection_validation_errors(self):
        cases = [
            ({"family": "mirror"}, "reflection.family"),
            ({"family": "identity", "entries": [1, 1]}, "unknown keys"),
            ({"family": "constant-diagonal", "entries": [1.0]}, "list of 2"),
            ({"family": "constant-diagonal", "entries": [1.0, "pi"]}, "cannot parse"),
            ({"family": "k-dependent-diagonal"}, "reflection.c"),
            (
                {"family": "k-dependent-diagonal", "c": 1.0, "signs": [1, 2]},
                "signs",
            ),
            ({"family": "table"}, "reflection.path"),
            ("identity", "must be an object"),
        ]
        for refl, pattern in cases:
            with pytest.raises(ConfigError, match=pattern):
                config_from_dict({"reflection": refl})

    def test_config_echo_normalizes_complex_entries(self):
        cfg = config_from_dict(
            {"reflection": {"family": "constant-diagonal", "entries": ["1j", 1.0]}}
        )
        echoed = cfg.to_dict()["reflection"]["entries"]
        assert echoed == [[0.0, 1.0], [1.0, 0.0]]


class TestLoadConfig:
    def test_parse_error_carries_position(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{\n  "N": 2,\n  oops\n}\n')
        with pytest.raises(ConfigError, match=r"broken\.json:3:3"):
            load_config(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_relative_table_path_resolves_against_config_dir(self, tmp_path):
        table = tmp_path / "refl.tab"
        rows = []
        for k in (-1.0, 1.0):
            rows.append(f"{k} 1.0 0.0 0.0 1.0")
        table.write_text("\n".join(rows) + "\n")
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(
            json.dumps(
                {**SMALL, "reflection": {"family": "table", "path": "refl.tab"}}
            )
        )
        cfg = load_config(cfgfile)
        spec = build_reflection(cfg)
        assert spec.family == "table"

    def test_grid_structure_checked_at_run_time(self):
        cfg = small_cfg(grid=[1.0, 2.0])  # not negation-closed
        with pytest.raises(GridValidationError, match="negation"):
            run_suites(cfg)


class TestSamplePlan:
    def test_plan_is_seed_deterministic(self):
        cfg = small_cfg()
        from zfcheck.fock import FockSpace, SpectralGrid
        from zfcheck.rmatrix import rational_r

        space = FockSpace(SpectralGrid(cfg.grid), rational_r(cfg.N, cfg.g), cfg.n_max)
        a = build_sample_plan(cfg, space)
        b = build_sample_plan(cfg, space)
        assert a.ybe_triples == b.ybe_triples
        assert a.unitarity_pairs == b.unitarity_pairs
        assert [n for n, _ in a.up_to(2)] == [n for n, _ in b.up_to(2)]

    def test_seed_changes_the_draws(self):
        cfg1, cfg2 = small_cfg(), small_cfg(seed=7)
        from zfcheck.fock import FockSpace, SpectralGrid
        from zfcheck.rmatrix import rational_r

        space = FockSpace(
            SpectralGrid(cfg1.grid), rational_r(cfg1.N, cfg1.g), cfg1.n_max
        )
        assert (
            build_sample_plan(cfg1, space).ybe_triples
            != build_sample_plan(cfg2, space).ybe_triples
        )

    @pytest.mark.parametrize("seed", [2026, 0, 1, 7, 9, 10, 11])
    def test_shuffle_schedules_take_different_first_steps(self, seed):
        # Confluence compares the leftmost and rightmost rewrite schedules;
        # if both transpose the same pair first, it compares a path with itself.
        from zfcheck.fock import FockSpace, SpectralGrid
        from zfcheck.rmatrix import rational_r

        cfg = config_from_dict({"seed": seed})
        space = FockSpace(SpectralGrid(cfg.grid), rational_r(cfg.N, cfg.g), cfg.n_max)
        shuffles = build_sample_plan(cfg, space).shuffles
        assert len(shuffles) == 4
        for name, raw in shuffles:
            (word,) = raw
            left = FockSpace._first_inversion(word, from_right=False)
            right = FockSpace._first_inversion(word, from_right=True)
            assert left is not None and left != right, (name, word)


class TestRunSuites:
    def test_default_small_run_is_green(self, small_report):
        assert not small_report.failed
        counts = small_report.counts
        assert counts["fail"] == 0
        assert counts["checks"] == len(small_report.records)
        assert counts["pass"] + counts["skip"] == counts["checks"]
        assert small_report.max_residual < small_report.config.tolerance

    def test_every_selected_relation_is_covered(self, small_report):
        seen: dict[str, set] = {}
        for r in small_report.records:
            seen.setdefault(r.suite, set()).add(r.relation)
        for suite in SUITE_ORDER:
            missing = suite_tags(suite) - seen.get(suite, set())
            assert not missing, f"{suite} lost coverage for {missing}"

    def test_capacity_skips_carry_a_cause(self, small_report):
        # n_max=2 forces the double-creation relations off two-particle
        # samples; those must surface as skips, not silent gaps.
        skips = [r for r in small_report.records if r.status == "skip"]
        assert skips
        assert all(r.cause for r in skips)
        assert any("headroom" in r.cause for r in skips)
        assert any(r.relation == "AN-2" for r in skips)

    def test_suite_subset_runs_alone(self):
        report = run_suites(small_cfg(), suites=("fock",))
        assert {r.suite for r in report.records} == {"fock"}
        assert not report.failed

    def test_dependent_suite_pulls_in_whitelist_prepass(self):
        report = run_suites(small_cfg(), suites=("boundary",))
        suites = {r.suite for r in report.records}
        assert suites == {"rmatrix", "boundary"}
        prepass = [r for r in report.records if r.suite == "rmatrix"]
        assert {r.relation for r in prepass} <= {"B-unitarity", "RBRB"}

    def test_momentum_metadata_round_trips(self, small_report):
        for r in small_report.records:
            assert isinstance(r.momenta, tuple)
            assert all(isinstance(k, float) for k in r.momenta)


@pytest.fixture(scope="module")
def bad_report():
    cfg = small_cfg(
        reflection={"family": "constant-diagonal", "entries": [2.0, 1.0]}
    )
    return run_suites(cfg)


class TestFailurePath:
    def test_failure_is_flagged(self, bad_report):
        assert bad_report.failed
        assert bad_report.counts["fail"] > 0

    def test_rmatrix_suite_carries_the_failures(self, bad_report):
        failing_suites = {r.suite for r in bad_report.records if r.status == "fail"}
        assert failing_suites == {"rmatrix"}
        failed_relations = {
            r.relation for r in bad_report.records if r.status == "fail"
        }
        assert "B-unitarity" in failed_relations

    def test_dependent_layers_skip_with_cause(self, bad_report):
        boundary = [r for r in bad_report.records if r.suite == "boundary"]
        hierarchy = [r for r in bad_report.records if r.suite == "hierarchy"]
        assert boundary and hierarchy
        assert all(r.status == "skip" for r in boundary + hierarchy)
        assert all("whitelist" in r.cause for r in boundary + hierarchy)

    def test_vertex_t_layer_still_measured(self, bad_report):
        vertex = [r for r in bad_report.records if r.suite == "vertex"]
        measured = {r.relation for r in vertex if r.status == "pass"}
        assert {"TOmega", "defT-a", "defT-adag", "rtt", "T-inverse"} <= measured
        skipped = {r.relation for r in vertex if r.status == "skip"}
        assert {"b-vacuum", "eq:ab", "eq:bad", "eq:bb", "rbrb"} <= skipped

    def test_coverage_still_complete_under_failure(self, bad_report):
        seen: dict[str, set] = {}
        for r in bad_report.records:
            seen.setdefault(r.suite, set()).add(r.relation)
        for suite in SUITE_ORDER:
            assert suite_tags(suite) <= seen[suite]


class TestReportRendering:
    def test_json_is_byte_stable_across_runs(self, tmp_path):
        cfg = small_cfg()
        a = render_json(run_suites(cfg))
        b = render_json(run_suites(cfg))
        assert a == b
        out = tmp_path / "report.json"
        emitted = emit_report(run_suites(cfg), path=out, fmt="json")
        assert out.read_text() == emitted == a

    def test_json_shape(self, small_report):
        doc = json.loads(render_json(small_report))
        assert doc["provenance"]["package"] == "zfcheck"
        assert doc["provenance"]["seed"] == small_report.config.seed
        assert doc["summary"]["overall"]["checks"] == len(small_report.records)
        assert len(doc["records"]) == len(small_report.records)
        statuses = {r["status"] for r in doc["records"]}
        assert statuses <= {"pass", "fail", "skip"}

    def test_summary_counts_are_consistent(self, small_report):
        summary = small_report.summary()
        per_suite = summary["suites"]
        assert sum(s["checks"] for s in per_suite.values()) == len(
            small_report.records
        )
        for s in per_suite.values():
            assert s["pass"] + s["fail"] + s["skip"] == s["checks"]

    def test_text_rendering(self, small_report):
        text = render_text(small_report)
        assert "result: PASS" in text
        for suite in SUITE_ORDER:
            assert f"suite {suite}:" in text

    def test_unknown_format_rejected(self, small_report):
        with pytest.raises(ConfigError, match="format"):
            emit_report(small_report, fmt="yaml")


class TestCLI:
    def write_cfg(self, tmp_path, extra=None):
        payload = dict(SMALL)
        if extra:
            payload.update(extra)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(payload))
        return str(p)

    def test_default_config_prints_json(self, capsys):
        assert main(["default-config"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["N"] == 2
        assert doc["suites"] == list(SUITE_ORDER)

    def test_default_config_out_file(self, tmp_path, capsys):
        out = tmp_path / "default.json"
        assert main(["default-config", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seed"] == 2026

    def test_default_config_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "c.json"
        assert main(["default-config", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("zfcheck: error:")
        assert "cannot write config" in err

    def test_verify_unwritable_report_exits_2(self, tmp_path, capsys):
        cfgfile = self.write_cfg(tmp_path, {"suites": ["rmatrix"]})
        report = tmp_path / "no" / "such" / "dir" / "r.json"
        assert main(["verify", "--config", cfgfile, "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("zfcheck: error:")
        assert "cannot write report" in err

    def test_verify_green_run(self, tmp_path, capsys):
        cfgfile = self.write_cfg(tmp_path)
        code = main(["verify", "--config", cfgfile])
        out = capsys.readouterr().out
        assert code == 0
        assert "result: PASS" in out

    def test_verify_json_report_file(self, tmp_path, capsys):
        cfgfile = self.write_cfg(tmp_path)
        report = tmp_path / "out.json"
        code = main(
            [
                "verify",
                "--config",
                cfgfile,
                "--report",
                str(report),
                "--format",
                "json",
            ]
        )
        assert code == 0
        line = capsys.readouterr().out
        assert line.startswith(f"wrote {report}:")
        doc = json.loads(report.read_text())
        assert doc["summary"]["overall"]["fail"] == 0

    def test_verify_failing_family_exits_1(self, tmp_path, capsys):
        cfgfile = self.write_cfg(
            tmp_path,
            {"reflection": {"family": "constant-diagonal", "entries": [2.0, 1.0]}},
        )
        code = main(["verify", "--config", cfgfile, "--format", "text"])
        out = capsys.readouterr().out
        assert code == 1
        assert "result: FAIL" in out

    def test_verify_suite_and_seed_flags(self, tmp_path, capsys):
        cfgfile = self.write_cfg(tmp_path)
        code = main(
            ["verify", "--config", cfgfile, "--suite", "fock", "--seed", "99"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "suite fock:" in out
        assert "suite vertex:" not in out

    def test_bad_config_file_exits_2(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{nope")
        code = main(["verify", "--config", str(p)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("zfcheck: error:")

    def test_bad_flag_values_exit_2(self, tmp_path, capsys):
        cfgfile = self.write_cfg(tmp_path)
        assert main(["verify", "--config", cfgfile, "--tol", "2.0"]) == 2
        assert main(["verify", "--config", cfgfile, "--seed", "-3"]) == 2
        capsys.readouterr()

    def test_zero_coupling_exits_2(self, tmp_path, capsys):
        cfgfile = self.write_cfg(tmp_path, {"g": 0})
        assert main(["verify", "--config", cfgfile]) == 2
        err = capsys.readouterr().err
        assert err.startswith("zfcheck: error:")
        assert "R(k, k) = P" in err

    @pytest.mark.parametrize("k", [1e300, 1e60])
    def test_too_large_grid_exits_2(self, tmp_path, capsys, k):
        cfgfile = self.write_cfg(tmp_path, {"grid": [-k, k]})
        assert main(["verify", "--config", cfgfile]) == 2
        err = capsys.readouterr().err
        assert err.startswith("zfcheck: error:")
        assert "k^6" in err

    def test_large_grid_reports_finite_residuals(self, tmp_path, capsys):
        cfgfile = self.write_cfg(tmp_path, {"grid": [-1e51, 1e51]})
        out = tmp_path / "report.json"
        code = main(["verify", "--config", cfgfile, "--format", "json", "--report", str(out)])
        capsys.readouterr()
        assert code in (0, 1)
        text = out.read_text()
        assert "NaN" not in text
        assert "Infinity" not in text
        assert json.loads(text)["records"]

    def test_unknown_suite_flag_exits_2(self, tmp_path, capsys):
        cfgfile = self.write_cfg(tmp_path)
        assert main(["verify", "--config", cfgfile, "--suite", "bogus"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_asymmetric_grid_exits_2(self, tmp_path, capsys):
        cfgfile = self.write_cfg(tmp_path, {"grid": [1.0, 2.0]})
        assert main(["verify", "--config", cfgfile]) == 2
        assert "negation" in capsys.readouterr().err


# One-particle cap: every relation with headroom skips the sector-1 samples.
ONE_PARTICLE = {"n_max": 1, "samples_per_sector": {"1": 3}}


@pytest.fixture(scope="module")
def one_particle_report():
    return run_suites(config_from_dict(ONE_PARTICLE))


class TestOneParticleCap:
    def test_runs_and_passes(self, one_particle_report):
        # The roundtrip words used to be drawn one letter long under this
        # cap, and the adjacent transposition rejected them.
        assert not one_particle_report.failed
        assert one_particle_report.counts["checks"] == 558
        roundtrips = [
            r for r in one_particle_report.records if r.relation == "roundtrip"
        ]
        assert len(roundtrips) == 4

    def test_cli_exits_0(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps(ONE_PARTICLE))
        assert main(["verify", "--config", str(cfgfile)]) == 0
        assert "result: PASS" in capsys.readouterr().out


def documented_headroom() -> dict[str, int]:
    """The headroom column of README's tag table, by tag."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("Relation tags used in records:")[1].split("\n\n")[1]
    documented: dict[str, int] = {}
    for line in table.splitlines()[2:]:
        cells = [c.strip() for c in line.strip("|").split("|")]
        for tag in re.findall(r"`([^`]+)`", cells[0]):
            documented[tag] = int(cells[1])
    return documented


def row_evaluators(cfg):
    """(row, evaluator) for every row of RELATIONS at every point of its plan."""
    run = _Run(cfg)
    for row in RELATIONS:
        context = getattr(run, _CONTEXT[row.suite])
        for _, args in run.plans[row.plan]:
            made = row.factory(context, *args)
            yield row, made[row.tag] if isinstance(made, dict) else made


# Configs on which every evaluator must carry the documented headroom.
HEADROOM_CONFIGS = {
    "default": {},
    "colors3": {
        "N": 3, "reflection": {"family": "k-dependent-diagonal", "c": 1.0, "signs": [1, -1, 1]},
    },
    "deep": {"n_max": 5, "samples_per_sector": {"1": 3, "2": 3, "3": 2, "4": 2, "5": 2}},
    "grid-1": {"grid": [-1.0, 1.0]},
    "one-particle": {"n_max": 1, "samples_per_sector": {"1": 3}},
    "N1": {"N": 1},
    "wide": {"grid": [-4.0, -2.0, -0.5, 0.5, 2.0, 4.0], "g": 1.3},
}


class TestRelationTable:
    def test_one_row_per_suite_and_tag(self):
        keys = [(r.suite, r.tag) for r in RELATIONS]
        assert len(keys) == len(set(keys))
        assert list(SUITE_ORDER) == list(dict.fromkeys(r.suite for r in RELATIONS))

    def test_readme_tag_table_matches(self):
        derived = {row.tag: getattr(fn, "headroom", 0) for row, fn in row_evaluators(RunConfig())}
        assert documented_headroom() == derived

    @pytest.mark.parametrize("overrides", HEADROOM_CONFIGS.values(), ids=HEADROOM_CONFIGS)
    def test_every_evaluator_carries_the_documented_headroom(self, overrides):
        # The compiled products of a row's identity fix its headroom; a check
        # that is not such an identity applies no creation row and carries none.
        documented = documented_headroom()
        seen = set()
        for row, fn in row_evaluators(config_from_dict(overrides)):
            derived = getattr(fn, "headroom", 0)
            assert derived == documented[row.tag], (row.suite, row.tag)
            seen.add((row.suite, row.tag))
        assert seen == {(r.suite, r.tag) for r in RELATIONS}

    def test_a_tag_missing_at_one_plan_point_is_not_skipped_silently(self, monkeypatch):
        # The factory's map lacks eq:bb at the second momentum pair only, so
        # the suite still emits eq:bb records and a coverage check by tag
        # alone would pass; the run must stop instead.
        original, calls = vertex.b_exchange_evaluators, []

        def lacking(ctx, k1, k2):
            made = original(ctx, k1, k2)
            calls.append((k1, k2))
            if len(calls) == 2:
                del made["eq:bb"]
            return made

        monkeypatch.setattr(vertex, "b_exchange_evaluators", lacking)
        with pytest.raises(KeyError, match="eq:bb"):
            run_suites(RunConfig(suites=("vertex",)))
        assert len(calls) == 2

    def test_skip_causes_name_the_table_headroom(self, one_particle_report):
        headroom = {
            (row.suite, row.tag): getattr(fn, "headroom", 0)
            for row, fn in row_evaluators(config_from_dict(ONE_PARTICLE))
        }
        skipped = set()
        for rec in one_particle_report.records:
            if rec.status != "skip":
                continue
            m = re.fullmatch(
                r"sector (\d+) needs headroom (\d+) over cap n_max=1", rec.cause
            )
            assert m, rec.cause
            assert int(m[2]) == headroom[(rec.suite, rec.relation)]
            assert int(m[1]) + int(m[2]) > 1
            skipped.add((rec.suite, rec.relation))
        # Every relation with headroom skips, except the eigenrelations,
        # which only ever sample sectors that leave them room.
        assert skipped == {
            key for key, h in headroom.items() if h > 0
        } - {("hierarchy", "H-eigen")}


# The record skeleton of a run: suite, relation, momenta, sample, status and
# cause of every record, in report order.  Residuals are left out so that
# roundoff-level changes in an evaluator do not move the pin; any change in
# which records exist, their order, or their verdicts does.
SKELETON_CONFIGS = {
    "default": ({}, "df50760ed5cda4f766c33e98d56bbb6d1ace8adbedb27d78dfebfe005dc0ac67"),
    "colors3": (
        {
            "N": 3,
            "reflection": {
                "family": "k-dependent-diagonal", "c": 1.0, "signs": [1, -1, 1],
            },
        },
        "83d379e60d01a041e6b497cc9bb3bd0f7f15951b9858b004b6b14bffba09ae74",
    ),
}

# Records per (suite, relation, status); both skeleton configs share them.
SKELETON_COUNTS = {
    ("rmatrix", "B-unitarity", "pass"): 6,
    ("rmatrix", "RBRB", "pass"): 36,
    ("rmatrix", "YBE", "pass"): 50,
    ("rmatrix", "unitarity", "pass"): 50,
    ("fock", "AN-1", "pass"): 36,
    ("fock", "AN-2", "pass"): 16,
    ("fock", "AN-2", "skip"): 20,
    ("fock", "AN-3", "pass"): 28,
    ("fock", "AN-3", "skip"): 8,
    ("fock", "confluence", "pass"): 4,
    ("fock", "roundtrip", "pass"): 4,
    ("vertex", "TOmega", "pass"): 3,
    ("vertex", "defT-adag", "pass"): 28,
    ("vertex", "defT-adag", "skip"): 8,
    ("vertex", "defT-a", "pass"): 36,
    ("vertex", "rtt", "pass"): 18,
    ("vertex", "T-inverse", "pass"): 27,
    ("vertex", "b-vacuum", "pass"): 6,
    ("vertex", "rbrb", "pass"): 27,
    ("vertex", "eq:ab", "pass"): 36,
    ("vertex", "eq:bad", "pass"): 28,
    ("vertex", "eq:bad", "skip"): 8,
    ("vertex", "eq:bb", "pass"): 36,
    ("boundary", "BNl-1", "pass"): 36,
    ("boundary", "BNl-2", "pass"): 16,
    ("boundary", "BNl-2", "skip"): 20,
    ("boundary", "BNl-3", "pass"): 28,
    ("boundary", "BNl-3", "skip"): 8,
    ("boundary", "BNl-4", "pass"): 36,
    ("boundary", "BNl-5", "pass"): 28,
    ("boundary", "BNl-5", "skip"): 8,
    ("boundary", "eq:bb", "pass"): 36,
    ("boundary", "rbrb", "pass"): 36,
    ("boundary", "rho", "pass"): 21,
    ("boundary", "rho", "skip"): 6,
    ("boundary", "rhoB-aa", "pass"): 36,
    ("boundary", "rhoB-adad", "pass"): 16,
    ("boundary", "rhoB-adad", "skip"): 20,
    ("boundary", "rhoB-aad", "pass"): 28,
    ("boundary", "rhoB-aad", "skip"): 8,
    ("boundary", "rhoB-involution", "pass"): 36,
    ("boundary", "coset", "pass"): 28,
    ("boundary", "coset", "skip"): 8,
    ("hierarchy", "H-odd", "pass"): 27,
    ("hierarchy", "H-eigen", "pass"): 24,
    ("hierarchy", "H-commute", "pass"): 18,
    ("hierarchy", "H-iom", "pass"): 18,
    ("hierarchy", "ssb", "pass"): 1,
}


class TestRecordSkeleton:
    @pytest.mark.parametrize("name", sorted(SKELETON_CONFIGS))
    def test_skeleton_is_pinned(self, name):
        data, digest = SKELETON_CONFIGS[name]
        records = run_suites(config_from_dict(data)).records
        counts: dict[tuple, int] = {}
        for r in records:
            key = (r.suite, r.relation, r.status)
            counts[key] = counts.get(key, 0) + 1
        assert counts == SKELETON_COUNTS
        skeleton = [
            [r.suite, r.relation, list(r.momenta), r.sample, r.status, r.cause]
            for r in records
        ]
        got = hashlib.sha256(json.dumps(skeleton).encode()).hexdigest()
        assert got == digest
