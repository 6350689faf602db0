"""Experiment runner: configs, validation, artifacts, reproducibility."""

import csv
import json
import math
import re
import tomllib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tvbospec.errors import InvalidConfig
from tvbospec.expcli import (
    EXPERIMENTS,
    default_config,
    run_experiment,
    validate_config,
)
from tvbospec.expcli.cli import main
from tvbospec.expcli.experiments import _EIGH_SECONDS_PER_N3

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _mutations(value):
    """Wrong-type and out-of-range replacements for a default value."""
    if isinstance(value, bool):
        return ["x", 1]
    if isinstance(value, int):
        return ["x", True, -1]
    if isinstance(value, float):
        return ["x", True, -1.0, math.inf]
    if isinstance(value, str):
        return [5, "nope"]
    if isinstance(value, list):
        return ["x", [], [-1]]
    return ["x", {}]


def _default_field_cases():
    """(experiment, path, replacement, named) for every top-level param,
    every field of every default kernel table and every panel field;
    ``named`` is the error pattern that must name the field."""
    cases = []
    for exp in sorted(EXPERIMENTS):
        for key, value in default_config(exp)["params"].items():
            fields = [((key,), value, key, None)]
            if key in ("spatial", "temporal"):
                fields += [((key, f), v, key, f) for f, v in value.items()]
            elif key == "kernels":
                for label, table in value.items():
                    outer = f"kernels.{label}"
                    fields.append(((key, label), table, outer, None))
                    fields += [((key, label, f), v, outer, f)
                               for f, v in table.items()]
            elif key == "panels":
                fields += [((key, i, f), v, f"panels[{i}]", f)
                           for i, panel in enumerate(value)
                           for f, v in panel.items()]
            for path, default, outer, inner in fields:
                named = rf"field {re.escape(outer)}[ :.\[]"
                if inner is not None:
                    named += rf"(?s:.*)\b{inner}\b"
                cases += [(exp, path, bad, named)
                          for bad in _mutations(default)]
    return cases


DEFAULT_FIELD_CASES = _default_field_cases()


class TestValidate:
    def test_minimal_fig1_ok(self):
        report = validate_config({"experiment": "fig1"})
        assert report["warnings"] == []
        assert report["estimated_seconds"] < 5.0

    def test_unknown_experiment(self):
        with pytest.raises(InvalidConfig, match="unknown experiment"):
            validate_config({"experiment": "fig9"})

    def test_missing_experiment_field(self):
        with pytest.raises(InvalidConfig, match="experiment"):
            validate_config({})

    def test_bad_kernel_named(self):
        cfg = {"experiment": "fig1",
               "params": {"temporal": {"family": "rbf", "lengthscale": -1.0}}}
        with pytest.raises(InvalidConfig, match="temporal"):
            validate_config(cfg)

    def test_oversized_fig5_warns(self):
        cfg = {"experiment": "fig5", "params": {"ns": [2000], "replications": 10}}
        report = validate_config(cfg)
        assert any("budget" in w for w in report["warnings"])

    # One entry per eigendecomposition the estimate counts, as the estimate
    # once listed them; the closed form must give the same seconds.
    LISTED_SIZES = {
        "fig1": [100] * 3,
        "fig2": [100, 100, 200],
        "fig3": [100, 100, 200],
        "fig4": [60, 120] * 2,
        "fig5": [50, 100, 150, 200] * 10 * 4,
        "table1": [100, 200] * 4,
        "regret": [int(round(200 ** (4 / 3)))] * 10 * 4,
    }

    @pytest.mark.parametrize("experiment", sorted(LISTED_SIZES))
    def test_estimate_unchanged_on_defaults(self, experiment):
        report = validate_config(default_config(experiment))
        listed = sum(float(s) ** 3 for s in self.LISTED_SIZES[experiment])
        assert report["estimated_seconds"] == \
            3.0 * _EIGH_SECONDS_PER_N3 * listed

    def test_estimate_does_not_grow_with_replications(self):
        cfg = {"experiment": "fig5", "params": {"replications": 2_000_000}}
        tracemalloc.start()
        try:
            report = validate_config(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        cubes = 50 ** 3 + 100 ** 3 + 150 ** 3 + 200 ** 3
        assert report["estimated_seconds"] == \
            3.0 * _EIGH_SECONDS_PER_N3 * float(2_000_000 * 4 * cubes)

    @pytest.mark.parametrize("digits", [201, 401])
    def test_estimate_beyond_float_range_is_inf(self, tmp_path, capsys,
                                                digits):
        # a size of 10**200 or 10**400 overflows the integer total (a regret
        # horizon that large exceeds the sampling cap, see
        # TestCli::test_unknown_and_malformed_fields_exit_code)
        cfg = tmp_path / "cfg.toml"
        cfg.write_text('experiment = "fig5"\n[params]\nns = [1'
                       + "0" * (digits - 1) + "]\n")
        assert main(["validate", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "warning: estimated eigendecomposition cost inf" in out
        assert "budget" in out

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.toml")),
                             ids=lambda p: p.name)
    def test_shipped_configs_are_the_defaults(self, path):
        # configs/ holds the package defaults, written out in full
        config = tomllib.loads(path.read_text(encoding="utf-8"))
        validate_config(config)
        assert config["params"] == \
            default_config(config["experiment"])["params"]

    def test_sampling_cap_boundary_passes(self):
        # 25 grid points x horizon 40000 is exactly the cap
        validate_config({"experiment": "regret",
                         "params": {"horizon": 40000}})


class TestExperiments:
    def test_fig4_counts(self, tmp_path):
        run_experiment(default_config("fig4"), tmp_path)
        rows = read_csv(tmp_path / "fig4_counts.csv")
        got = {(r["period_divisor"], r["n"]): int(r["positive_count"])
               for r in rows}
        assert got[("3", "60")] == 3 and got[("3", "120")] == 3
        assert got[("6", "60")] == 6 and got[("6", "120")] == 6

    def test_fig3_nyquist_zero_block(self, tmp_path):
        run_experiment(default_config("fig3"), tmp_path)
        # sampling above the Nyquist rate (delta=0.25 < 1/(2 tau)) leaves a
        # trailing zero block in the sorted spectrum
        # the triangle density vanishes at the band edges, so the sampled
        # frequencies at exactly +-tau contribute zeros as well: 49 positive
        rows = read_csv(tmp_path / "fig3_n100_d0.25.csv")
        approx_sorted = np.array([float(r["approx_sorted"]) for r in rows])
        assert np.all(approx_sorted[49:] == 0.0)
        assert np.all(approx_sorted[:49] > 0.0)
        # below the Nyquist rate every sampled value stays positive
        rows = read_csv(tmp_path / "fig3_n100_d0.6.csv")
        assert all(float(r["approx_sorted"]) > 0 for r in rows)

    def test_fig5_summary_columns(self, tmp_path):
        cfg = default_config("fig5")
        cfg["params"]["ns"] = [40, 80]
        cfg["params"]["replications"] = 3
        run_experiment(cfg, tmp_path)
        rows = read_csv(tmp_path / "fig5_summary.csv")
        assert set(rows[0].keys()) == {"kernel", "n", "count", "count_stderr",
                                       "I_over_n", "I_over_n_stderr"}
        kernels = {r["kernel"] for r in rows}
        assert kernels == {"rbf", "sinc_squared", "periodic", "cosine_sum"}
        ns = {r["n"] for r in rows}
        assert ns == {"40", "80"}

    def test_manifest_complete(self, tmp_path):
        run_experiment(default_config("fig1"), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        listed = {e["file"] for e in manifest["artifacts"]}
        present = {p.name for p in tmp_path.iterdir()}
        assert listed == present

    def test_reproducible_bytes(self, tmp_path):
        cfg = default_config("fig1")
        cfg["params"]["n"] = 40
        run_experiment(cfg, tmp_path / "a")
        run_experiment(cfg, tmp_path / "b")
        for p in sorted((tmp_path / "a").iterdir()):
            assert p.read_bytes() == (tmp_path / "b" / p.name).read_bytes(), p.name

    def test_seed_changes_fig1_artifacts(self, tmp_path):
        cfg = default_config("fig1")
        cfg["params"]["n"] = 40
        run_experiment(cfg, tmp_path / "a")
        cfg["seed"] = 1
        run_experiment(cfg, tmp_path / "b")
        a = (tmp_path / "a" / "fig1_full.csv").read_bytes()
        b = (tmp_path / "b" / "fig1_full.csv").read_bytes()
        assert a != b

    def test_regret_summary_small(self, tmp_path):
        cfg = default_config("regret")
        cfg["params"].update({"horizon": 25, "replications": 2,
                              "grid_resolution": 8,
                              "kernels": {"rbf": {"family": "rbf",
                                                  "lengthscale": 1.0}}})
        run_experiment(cfg, tmp_path)
        rows = read_csv(tmp_path / "regret_summary.csv")
        assert len(rows) == 2
        assert all(float(r["cumulative_regret"]) >= 0 for r in rows)
        assert all(r["upper_bound_holds"] == "1" for r in rows)
        assert (tmp_path / "trace_rbf_seed0.csv").exists()

    def test_table1(self, tmp_path):
        cfg = default_config("table1")
        cfg["params"]["ns"] = [40, 80]
        run_experiment(cfg, tmp_path)
        rows = read_csv(tmp_path / "table1.csv")
        by_kernel = {r["kernel"]: r for r in rows}
        assert by_kernel["rbf"]["class"] == "broadband"
        assert by_kernel["periodic"]["support_discrete"] == "True"
        assert "no-regret" in by_kernel["cosine_sum"]["regret_guarantee"]
        assert "Theta(n)" in by_kernel["sinc_squared"]["regret_guarantee"]

    def test_table1_single_size_names_each_column_once(self, tmp_path):
        cfg = default_config("table1")
        cfg["params"]["ns"] = [20]
        run_experiment(cfg, tmp_path)
        with open(tmp_path / "table1.csv", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
        assert header == ["kernel", "class", "support_bounded",
                          "support_discrete", "count_n20", "info_per_n_n20",
                          "regret_guarantee"]
        rows = read_csv(tmp_path / "table1.csv")
        assert all(len(r) == len(header) for r in rows)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "regret" in out

    def test_run_with_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.toml"
        cfg.write_text('experiment = "fig4"\nseed = 0\n'
                       '[params]\nns = [30]\ndivisors = [3]\n')
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "fig4_counts.csv").exists()

    def test_run_json_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "fig4",
                                   "params": {"ns": [30], "divisors": [3]}}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0

    def test_validate_command(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.toml"
        cfg.write_text('experiment = "fig1"\n')
        assert main(["validate", str(cfg)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.toml"
        cfg.write_text('experiment = "nope"\n')
        assert main(["validate", str(cfg)]) == 2
        assert main(["run", "--config", str(cfg)]) == 2
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        assert main(["run", "--config", str(empty)]) == 2
        capsys.readouterr()
        broken = tmp_path / "broken.toml"
        broken.write_text('a = 1\nbroken\n')
        assert main(["validate", str(broken)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("text, field", [
        ('experiment = "regret"\n[params]\nhorizon = -5\n', "horizon"),
        ('experiment = "fig1"\n[params]\nn = "abc"\n', "n"),
        ('experiment = "fig2"\n[[params.panels]]\nn = 0\ndelta = 0.1\n',
         "panels[0].n"),
        ('experiment = "fig5"\n[params]\nns = "abc"\n', "ns"),
        ('experiment = "fig1"\nparams = [1]\n', "params"),
        ('experiment = "fig4"\nseed = "abc"\n', "seed"),
        ('experiment = "regret"\n[params]\ngrid_resolution = 0\n',
         "grid_resolution"),
        ('experiment = "regret"\n[params]\ngrid_resolution = true\n',
         "grid_resolution"),
    ], ids=["regret_horizon", "fig1_n", "fig2_panel_n", "fig5_ns", "params",
            "seed", "grid_resolution", "grid_resolution_bool"])
    def test_malformed_size_fields_exit_code(self, tmp_path, capsys, text,
                                             field):
        cfg = tmp_path / "cfg.toml"
        cfg.write_text(text)
        assert main(["validate", str(cfg)]) == 2
        assert f"field {field} " in capsys.readouterr().err
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert f"field {field} " in capsys.readouterr().err

    @pytest.mark.parametrize("text, named", [
        ('experiment = "fig1"\n[params.temporal]\nfamily = "rbf"\n'
         'lenghtscale = 2.0\n', "'lenghtscale'"),
        ('experiment = "regret"\n[params.kernels.rbf]\nfamily = "rbf"\n'
         'period = 0.5\n', "'period'"),
        ('experiment = "fig1"\n[params.temporal]\nkind = "spatial"\n'
         'family = "rbf"\nlengthscales = [0.5]\n', "field kind "),
        ('experiment = "fig2"\n[[params.pannels]]\nn = 10\ndelta = 0.1\n',
         "field pannels "),
        ('experiment = "regret"\n[params]\nhorizn = 5\n', "field horizn "),
        ('experiment = "fig4"\nsed = 3\n', "field sed "),
        ('experiment = "fig2"\n[[params.panels]]\nn = 10\ndelt = 0.1\n',
         "'delt'"),
        ('experiment = "regret"\n[params]\nnoise = -1.0\n', "field noise "),
        ('experiment = "regret"\n[params]\ndelta = 0\n', "field delta "),
        ('experiment = "regret"\n[params]\nconfidence = 1.5\n',
         "field confidence "),
        ('experiment = "regret"\n[params]\nlipschitz = -1\n',
         "field lipschitz "),
        ('experiment = "regret"\n[params]\nnoise = "abc"\n', "field noise "),
        ('experiment = "regret"\n[params]\nnoise = nan\n', "field noise "),
        ('experiment = "regret"\n[params]\ndelta = 1' + '0' * 400 + '\n',
         "field delta "),
        ('experiment = "regret"\n[params]\nbounds = "no"\n',
         "field bounds "),
        ('experiment = [1]\n', "unknown experiment [1]"),
        # kernel labels become file names, CSV cells and SVG text
        ('experiment = "fig5"\n[params.kernels."a,b"]\nfamily = "rbf"\n',
         "field kernels: label 'a,b' must match"),
        ('experiment = "fig5"\n[params.kernels."c\\nd"]\nfamily = "rbf"\n',
         "field kernels: label 'c\\nd' must match"),
        ('experiment = "regret"\n[params.kernels."../escaped"]\n'
         'family = "rbf"\n', "field kernels: label '../escaped' must match"),
        ('experiment = "table1"\n[params.kernels."<b>&amp"]\n'
         'family = "rbf"\n', "field kernels: label '<b>&amp' must match"),
        # the prior draw of a regret run must fit the sampling cap
        ('experiment = "regret"\n[params.spatial]\nfamily = "rbf"\n'
         'lengthscales = [0.4, 0.4, 0.4]\n',
         "field grid_resolution: 25^3 grid points x horizon 200 = 3125000 "
         "exceeds the sampling cap of 1000000"),
        ('experiment = "regret"\n[params]\nhorizon = 40001\n',
         "field grid_resolution: 25^1 grid points x horizon 40001"),
        ('experiment = "regret"\n[params]\nhorizon = 1' + '0' * 200 + '\n',
         "field grid_resolution: 25^1 grid points x horizon 1000"),
        # kernel number fields must be finite numbers, not bools
        ('experiment = "fig1"\n[params.temporal]\nfamily = "rbf"\n'
         'lengthscale = 1' + '0' * 400 + '\n',
         "field temporal: lengthscale must be a finite number"),
        ('experiment = "fig1"\n[params.temporal]\nfamily = "rbf"\n'
         'lengthscale = inf\n',
         "field temporal: lengthscale must be a finite number, got inf"),
        ('experiment = "fig1"\n[params.temporal]\nfamily = "rbf"\n'
         'lengthscale = true\n',
         "field temporal: lengthscale must be a finite number, got True"),
        ('experiment = "fig1"\n[params.temporal]\nfamily = "cosine_sum"\n'
         'lines = [[inf, 1.0]]\n', "field temporal: lines must be"),
        # each entry names its own artifacts or rows, so none may repeat
        ('experiment = "fig4"\n[params]\ndivisors = [3, 3]\nns = [12]\n',
         "field divisors[1] repeats divisors[0]"),
        ('experiment = "fig4"\n[params]\nns = [12, 24, 12]\n',
         "field ns[2] repeats ns[0]"),
        ('experiment = "fig5"\n[params]\nns = [30, 30]\nreplications = 2\n',
         "field ns[1] repeats ns[0]"),
        ('experiment = "table1"\n[params]\nns = [30, 30]\n',
         "field ns[1] repeats ns[0]"),
        ('experiment = "fig2"\n[[params.panels]]\nn = 10\ndelta = 0.1\n'
         '[[params.panels]]\nn = 10\ndelta = 0.1000000001\n',
         "field panels[1] repeats panels[0]"),
        ('experiment = "fig3"\n[[params.panels]]\nn = 10\ndelta = 0.25\n'
         '[[params.panels]]\nn = 20\ndelta = 0.25\n'
         '[[params.panels]]\nn = 10\ndelta = 0.25\n',
         "field panels[2] repeats panels[0]"),
    ], ids=["kernel_unknown_field", "kernel_foreign_field", "kernel_kind",
            "unknown_param", "unknown_regret_param", "unknown_top_level",
            "panel_unknown_field", "noise_negative", "delta_zero",
            "confidence_above_one", "lipschitz_negative", "noise_string",
            "noise_nan", "delta_huge", "bounds_string", "experiment_list",
            "label_comma", "label_newline", "label_path", "label_markup",
            "sampling_cap_d3", "sampling_cap_one_above",
            "sampling_cap_huge_horizon", "lengthscale_huge_int",
            "lengthscale_inf", "lengthscale_bool", "line_inf",
            "fig4_divisors_repeat", "fig4_ns_repeat", "fig5_ns_repeat",
            "table1_ns_repeat", "fig2_panel_tag_repeat",
            "fig3_panel_repeat"])
    def test_unknown_and_malformed_fields_exit_code(self, tmp_path, capsys,
                                                    text, named):
        cfg = tmp_path / "cfg.toml"
        cfg.write_text(text)
        assert main(["validate", str(cfg)]) == 2
        assert named in capsys.readouterr().err
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("text, field", [
        ('experiment = "fig1"\n[params]\ndelta = "abc"\n', "delta"),
        ('experiment = "fig1"\n[params]\ndelta = -0.1\n', "delta"),
        ('experiment = "fig5"\n[params]\nnoise = -1.0\n', "noise"),
        ('experiment = "fig5"\n[params]\ndelta = 0\n', "delta"),
        ('experiment = "fig5"\n[params]\ninterval = [2.0, 1.0]\n',
         "interval"),
        ('experiment = "fig5"\n[params]\ninterval = "x"\n', "interval"),
        ('experiment = "table1"\n[params]\nnoise = "abc"\n', "noise"),
        ('experiment = "table1"\n[params]\ndelta = nan\n', "delta"),
        ('experiment = "table1"\n[params]\ninterval = [1.0, true]\n',
         "interval[1]"),
        ('experiment = "fig4"\n[params]\nperiod = "x"\n', "period"),
        ('experiment = "fig4"\n[params]\nperiod = -0.3\n', "period"),
        ('experiment = "fig4"\n[params]\nlengthscale = 0\n', "lengthscale"),
        ('experiment = "fig4"\nout = 5\n', "out"),
    ], ids=["fig1_delta_string", "fig1_delta_negative", "fig5_noise_negative",
            "fig5_delta_zero", "fig5_interval_reversed", "fig5_interval_string",
            "table1_noise_string", "table1_delta_nan", "table1_interval_bool",
            "fig4_period_string", "fig4_period_negative",
            "fig4_lengthscale_zero", "out_number"])
    def test_malformed_number_fields_exit_code(self, tmp_path, capsys, text,
                                               field):
        cfg = tmp_path / "cfg.toml"
        cfg.write_text(text)
        assert main(["validate", str(cfg)]) == 2
        assert f"field {field}" in capsys.readouterr().err
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert f"field {field}" in capsys.readouterr().err

    def test_non_table_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("5")
        assert main(["validate", str(cfg)]) == 2
        assert main(["run", "--config", str(cfg)]) == 2
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.count("config must be a table") == 3
        with pytest.raises(InvalidConfig, match="config must be a table"):
            validate_config(5)

    def test_missing_config_file(self, capsys):
        assert main(["run", "--config", "/nonexistent/cfg.toml"]) == 2

    @pytest.mark.parametrize("command", [["validate"], ["run", "--config"]],
                             ids=["validate", "run"])
    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_unreadable_config_path_exit_code(self, tmp_path, capsys,
                                              command, kind):
        path = tmp_path / "cfg.toml"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b'\xff\xfeexperiment = "fig1"\n')
        assert main([*command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid config: ") and str(path) in err

    def test_io_failure_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        rc = main(["run", "fig4", "--out", str(blocker)])
        assert rc == 3

    def test_seed_override(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "fig1", "--out", str(out_a), "--seed", "5"]) == 0
        assert main(["run", "fig1", "--out", str(out_b), "--seed", "6"]) == 0
        a = (out_a / "fig1_full.csv").read_bytes()
        b = (out_b / "fig1_full.csv").read_bytes()
        assert a != b

    @pytest.mark.parametrize(
        "exp, path, bad, named", DEFAULT_FIELD_CASES,
        ids=[f"{exp}-{'.'.join(map(str, path))}-{bad!r}"
             for exp, path, bad, _ in DEFAULT_FIELD_CASES])
    def test_every_default_field_mutated_exit_code(self, tmp_path, capsys,
                                                   exp, path, bad, named):
        config = default_config(exp)
        table = config["params"]
        for key in path[:-1]:
            table = table[key]
        table[path[-1]] = bad
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        for argv in (["validate", str(cfg)],
                     ["run", "--config", str(cfg),
                      "--out", str(tmp_path / "out")]):
            assert main(argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert re.search(named, err), (argv[0], err)
