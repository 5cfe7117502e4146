import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import besovlab
from besovlab import __version__, cli
from besovlab.certify import certify_projection_suite
from besovlab.cli import (
    ConfigError,
    RunConfig,
    load_config,
    main,
    validate,
)
from besovlab.corpus import build_corpus

_unit = st.floats(0.0, 1.0, exclude_min=True)

#: configurations that pass validate, with list items that need more than
#: six significant digits and corpus names with commas inside parentheses
valid_configs = st.builds(
    RunConfig,
    corpus=st.lists(st.sampled_from(["hat", "zero", "weierstrass(0.3)",
                                     "hermite(2)", "hermite2d(1,2)"]),
                    min_size=1, max_size=4).map(tuple),
    pairs=st.lists(st.tuples(st.floats(1.0, 1e6), _unit),
                   min_size=1, max_size=3).map(tuple),
    shape1d=st.integers(9, 10 ** 6),
    shape2d=st.integers(9, 10 ** 4),
    t_points=st.integers(2, 1000),
    seed=st.integers(0, 2 ** 63),
    output_dir=st.text("abc_-./0123456789", min_size=1, max_size=12),
    alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    n_terms=st.integers(2, 10 ** 6),
    n_list=st.lists(st.integers(1, 10 ** 6), min_size=1,
                    max_size=4).map(tuple),
    beta_list=st.lists(_unit, min_size=1, max_size=3).map(tuple),
    depth=st.integers(1, 50),
)


class TestConfigParsing:
    def test_defaults(self):
        config = load_config()
        assert config.corpus == ("default",)
        assert config.seed == 20240

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nseed = 7\npairs = 2:0.5\n")
        config = load_config(path, ["seed=9"])
        assert config.seed == 9  # override wins over the file
        assert config.pairs == ((2.0, 0.5),)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.cfg")

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="wibble"):
            load_config(overrides=["wibble=1"])

    def test_witness_search_has_no_budget(self):
        # the witness search is deterministic; budget is no longer a setting
        with pytest.raises(ConfigError, match="budget"):
            load_config(overrides=["budget=1"])
        assert len(fields(RunConfig)) == 12

    def test_bad_value_names_field(self):
        with pytest.raises(ConfigError, match="seed"):
            load_config(overrides=["seed=abc"])

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just a line\n")
        with pytest.raises(ConfigError, match="key=value"):
            load_config(path)

    def test_pair_validation(self):
        with pytest.raises(ConfigError, match="alpha"):
            validate(RunConfig(pairs=((2.0, 1.5),)))
        with pytest.raises(ConfigError, match="p ="):
            validate(RunConfig(pairs=((0.5, 0.5),)))

    def test_echo_contains_version_and_seed(self):
        echo = RunConfig().echo()
        assert echo["library_version"] == __version__
        assert echo["seed"] == 20240
        assert echo["pairs"] == "1:1,2:0.5"
        assert echo["beta_list"] == "0.25,0.4"
        assert echo["n_list"] == "100,1000"

    @settings(max_examples=200, deadline=None)
    @given(valid_configs)
    def test_echo_round_trips(self, config):
        validate(config)
        items = [f"{key}={value}" for key, value in config.echo().items()
                 if key != "library_version"]
        assert load_config(overrides=items) == config

    def test_list_split_outside_parentheses(self):
        config = load_config(overrides=["corpus=hat, hermite2d(1, 2) ,bump"])
        assert config.corpus == ("hat", "hermite2d(1, 2)", "bump")


class TestExitCodes:
    def test_config_error_is_2(self, capsys):
        assert main(["certify", "nonsense=1"]) == 2
        assert "nonsense" in capsys.readouterr().err

    def test_invalid_pair_is_2(self, capsys):
        assert main(["seminorm", "pairs=2:2.0"]) == 2
        assert "alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, field", [
        (["seminorm", "pairs=nan:0.5"], "pairs"),
        (["certify", "pairs=nan:0.5"], "pairs"),
        (["certify", "corpus="], "corpus"),
        (["measure", "beta_list="], "beta_list"),
        (["certify", "shape1d=1024"], "shape1d"),
        (["certify", "shape2d=64"], "shape2d"),
    ])
    def test_config_hole_is_2(self, argv, field, tmp_path, capsys):
        assert main(argv + [f"output_dir={tmp_path}"]) == 2
        assert f"{field}:" in capsys.readouterr().err
        assert not (tmp_path / "certificates.json").exists()

    def test_internal_error_is_3(self, tmp_path, capsys, monkeypatch):
        def broken_suite(*args, **kwargs):
            raise RuntimeError("suite exploded")

        monkeypatch.setattr(cli, "certify_lebesgue_suite", broken_suite)
        code = main(["certify", "corpus=indicator", "pairs=1:1",
                     f"output_dir={tmp_path}"])
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "suite exploded" in err

    def test_small_certify_passes(self, tmp_path, capsys):
        code = main(["certify", "corpus=indicator", "pairs=1:1",
                     f"output_dir={tmp_path}"])
        assert code == 0
        assert (tmp_path / "certificates.json").exists()


class TestArtifacts:
    def test_corpus_deterministic(self, tmp_path, monkeypatch):
        # identical config, destination redirected by the environment
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            monkeypatch.setenv("BESOVLAB_OUTPUT_DIR", str(out))
            assert main(["corpus", "corpus=indicator,hat"]) == 0
        for name in ("indicator.csv", "hat.csv", "corpus_manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("BESOVLAB_OUTPUT_DIR", str(target))
        assert main(["corpus", "corpus=hat",
                     f"output_dir={tmp_path / 'ignored'}"]) == 0
        assert (target / "hat.csv").exists()
        assert not (tmp_path / "ignored").exists()

    def test_seminorm_zero_function(self, tmp_path):
        assert main(["seminorm", "corpus=zero", "pairs=1:0.5",
                     f"output_dir={tmp_path}"]) == 0
        payload = json.loads((tmp_path / "seminorms.json").read_text())
        row = payload["results"][0]
        assert row["function"] == "zero"
        assert row["value"] == 0.0
        assert payload["config"]["seed"] == 20240

    def test_semigroup_curves(self, tmp_path):
        assert main(["semigroup", "corpus=hat,hermite(1)", "pairs=2:0.5",
                     "t_points=8", f"output_dir={tmp_path}"]) == 0
        manifest = json.loads(
            (tmp_path / "semigroup_manifest.json").read_text())
        kinds = {row["kind"] for row in manifest["curves"]}
        assert kinds == {"heat", "ou"}
        name = manifest["curves"][0]["file"]
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 9

    def test_semigroup_file_names_distinguish_close_pairs(self, tmp_path):
        # the alphas agree to six significant digits
        assert main(["semigroup", "corpus=hat",
                     "pairs=2:0.1234561,2:0.1234562", "t_points=4",
                     f"output_dir={tmp_path}"]) == 0
        manifest = json.loads(
            (tmp_path / "semigroup_manifest.json").read_text())
        files = [row["file"] for row in manifest["curves"]]
        assert len(set(files)) == 2
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(files)

    def test_certify_zero_function(self, tmp_path):
        # every witness construction degenerates on f = 0; V(0) = 0 stands
        assert main(["certify", "corpus=zero", "shape1d=1025", "t_points=4",
                     f"output_dir={tmp_path}"]) == 0
        payload = json.loads((tmp_path / "certificates.json").read_text())
        assert len(payload["entries"]) == 12

    def test_certify_embeds_config(self, tmp_path):
        assert main(["certify", "corpus=indicator", "pairs=1:1",
                     f"output_dir={tmp_path}"]) == 0
        payload = json.loads((tmp_path / "certificates.json").read_text())
        assert payload["library_version"] == __version__
        assert payload["config"]["corpus"] == "indicator"
        names = [e["name"] for e in payload["entries"]]
        assert names == sorted(names)

    def test_certify_routes_lebesgue_2d(self, tmp_path):
        # 2D Lebesgue names go to the Lebesgue suite, not the projection one
        assert main(["certify", "corpus=bump2d", "shape2d=97", "pairs=2:0.5",
                     "t_points=4", f"output_dir={tmp_path}"]) == 0
        payload = json.loads((tmp_path / "certificates.json").read_text())
        assert {e["name"] for e in payload["entries"]} == {
            "heat-small-time-gradient", "heat-smoothing-curve", "u-le-v",
            "v-le-u", "v-lower-arm", "v-upper-arm"}
        assert {e["inputs"]["f"] for e in payload["entries"]} == {"bump2d"}

    def test_certify_hermite2d_with_two_arguments(self, tmp_path):
        assert main(["certify", "corpus=hermite2d(1,2)", "shape2d=33",
                     "t_points=4", f"output_dir={tmp_path}"]) == 0
        payload = json.loads((tmp_path / "certificates.json").read_text())
        direct = certify_projection_suite(
            build_corpus("hermite2d(1,2)", shape=(33, 33)), 1.0, 1.0,
            f_name="hermite2d(1,2)")
        assert len(payload["entries"]) == len(direct) == 3
        assert sorted(e["name"] for e in payload["entries"]) == \
            sorted(e.name for e in direct)
        assert {e["inputs"]["f"] for e in payload["entries"]} == {
            "hermite2d(1,2)"}

    def test_certify_bytes_independent_of_hash_seed(self, tmp_path):
        # two processes with different string hashing write the same bytes
        src = str(Path(besovlab.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        texts = []
        for hash_seed in ("1", "2"):
            out = tmp_path / hash_seed
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path,
                       BESOVLAB_OUTPUT_DIR=str(out))
            subprocess.run([sys.executable, "-m", "besovlab.cli", "certify",
                            "shape1d=1025", "shape2d=33", "t_points=4"],
                           env=env, check=True, capture_output=True)
            texts.append((out / "certificates.json").read_bytes())
        assert texts[0] == texts[1]

    def test_counterexample_artifacts(self, tmp_path):
        assert main(["counterexample", "n_terms=200", "n_list=100,200",
                     f"output_dir={tmp_path}"]) == 0
        profile = (tmp_path / "blowup_profile.csv").read_text().splitlines()
        assert profile[0] == "y,value,argmax_k"
        assert len(profile) == 21
        scan = (tmp_path / "directional_scan.csv").read_text().splitlines()
        assert scan[0] == "N,max_quotient"
        manifest = json.loads(
            (tmp_path / "counterexample_manifest.json").read_text())
        assert manifest["spec"]["n_terms"] == 200

    def test_measure_report(self, tmp_path):
        assert main(["measure", "n_terms=200", "shape1d=2049",
                     f"output_dir={tmp_path}"]) == 0
        payload = json.loads((tmp_path / "measure_report.json").read_text())
        assert payload["holder_fit"]["exponent"] == pytest.approx(1.0,
                                                                  abs=0.02)
        assert payload["tv_self"] == 0.0
        for report in payload["chaining"].values():
            assert report["pass"] is True
