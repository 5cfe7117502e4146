import csv
import ctypes
import json
import multiprocessing
import os
import subprocess
import sys
from concurrent import futures
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import besovlab
from besovlab import __version__, cli, heat, ou
from besovlab.certify import (
    certify_gaussian_suite,
    certify_projection_suite,
    v_gamma_upper_bound,
)
from besovlab.cli import (
    ConfigError,
    RunConfig,
    load_config,
    main,
    validate,
)
from besovlab.corpus import build_corpus
from besovlab.seminorms import v_lower_bound, v_lower_bounds


def _openblas_threads():
    """Thread count of numpy's OpenBLAS, or None for another BLAS."""
    blas = ctypes.CDLL(np._core._multiarray_umath.__file__)
    getter = getattr(blas, "scipy_openblas_get_num_threads64_", None)
    return None if getter is None else getter()


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

    @pytest.mark.parametrize("argv, field", [
        (["certify", "shape1d=81", "corpus=hat"], "shape1d"),
        (["certify", "corpus=indicator2d", "shape2d=33"], "shape2d"),
        (["seminorm", "shape1d=41"], "shape1d"),
        (["certify", "corpus=hermite(1)", "shape1d=9"], "shape1d"),
        (["certify", "corpus=x2d", "shape2d=9"], "shape2d"),
    ], ids=lambda v: "-".join(v) if isinstance(v, list) else v)
    def test_too_coarse_grid_is_2(self, argv, field, tmp_path, capsys):
        # the shift range of the grid (seminorm) or of its coarse copy
        # (certify) is empty, or the coarse copy has too few nodes for the
        # OU spline: a configuration error naming the field, no traceback
        assert main(argv + [f"output_dir={tmp_path}"]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: {field}:" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_coarsest_accepted_grids_run(self, tmp_path):
        # one point pair more than each rejected grid above
        for argv in (["certify", "shape1d=83", "corpus=hat"],
                     ["seminorm", "shape1d=43", "corpus=hat"],
                     ["certify", "shape1d=11", "corpus=hermite(1)"]):
            assert main(argv + ["t_points=4", f"output_dir={tmp_path}"]) == 0

    def test_gaussian_name_to_seminorm_is_2(self, tmp_path, capsys):
        # shift seminorms are Lebesgue-only: a Gaussian corpus name is a
        # configuration error, not an internal one, and writes no results
        assert main(["seminorm", "corpus=hat,hermite(1)",
                     f"output_dir={tmp_path}"]) == 2
        err = capsys.readouterr().err
        assert "corpus: hermite(1)" in err and "Traceback" not in err
        assert not (tmp_path / "seminorms.json").exists()

    def test_gaussian_name_at_p_inf_is_2(self, tmp_path, capsys):
        # the Gaussian chain constant C(inf) = ess sup |Z| is infinite, so
        # a Gaussian name at p = inf is a configuration error
        assert main(["certify", "corpus=hermite(2)", "pairs=inf:0.5",
                     f"output_dir={tmp_path}"]) == 2
        err = capsys.readouterr().err
        assert "corpus: hermite(2)" in err and "Traceback" not in err
        assert not (tmp_path / "certificates.json").exists()

    def test_lebesgue_certify_at_p_inf(self, tmp_path, capsys):
        # the witness search used to find no admissible witness at p = inf
        # (exit 3); every witness stays within 1.05 * c_up * seminorm, and
        # hat at alpha = 1 reaches its Lipschitz constant 1
        assert main(["certify", "corpus=hat,bump", "pairs=inf:0.5,inf:1",
                     "shape1d=1025", "t_points=4",
                     f"output_dir={tmp_path}"]) == 0
        entries = json.loads(
            (tmp_path / "certificates.json").read_text())["entries"]
        upper = [e for e in entries if e["name"] == "v-upper-arm"]
        assert len(entries) == 24 and len(upper) == 4
        for e in upper:
            assert e["lhs"] <= 1.05 * e["rhs"], e["inputs"]
            if e["inputs"]["f"] == "hat" and e["inputs"]["alpha"] == 1.0:
                assert e["lhs"] == pytest.approx(1.0, rel=1e-6)

    def test_internal_error_is_3(self, tmp_path, capsys, monkeypatch):
        def broken_suite(*args, **kwargs):
            raise RuntimeError("suite exploded")

        monkeypatch.setattr(cli, "certify_lebesgue_suite", broken_suite)
        code = main(["certify", "corpus=indicator", "pairs=1:1",
                     f"output_dir={tmp_path}"])
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "suite exploded" in err

    def test_worker_error_is_3(self, tmp_path, capsys, monkeypatch):
        # two functions on two CPUs: the suite raises in a forked worker,
        # and the error comes back through the pool to the parent
        def broken_suite(*args, **kwargs):
            raise RuntimeError("worker suite exploded")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(cli, "certify_lebesgue_suite", broken_suite)
        code = main(["certify", "corpus=indicator,hat", "pairs=1:1",
                     "shape1d=129", f"output_dir={tmp_path}"])
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" in err and "worker suite exploded" in err
        assert multiprocessing.active_children() == []

    def test_small_certify_passes(self, tmp_path, capsys):
        code = main(["certify", "corpus=indicator", "pairs=1:1",
                     f"output_dir={tmp_path}"])
        assert code == 0
        assert (tmp_path / "certificates.json").exists()


class TestArtifacts:
    def test_semigroup_fields_once_per_function(self, tmp_path,
                                                monkeypatch):
        # each function's gradient field at each t is built once and read by
        # every pair: 4 heat and 3 OU functions at 4 t, for 2 pairs
        calls = {}
        for module, name in ((heat, "heat_gradient"), (ou, "ou_gradient")):
            def counting(*args, _fn=getattr(module, name), _name=name):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args)
            monkeypatch.setattr(module, name, counting)
        assert main(["semigroup", "shape1d=129", "t_points=4",
                     f"output_dir={tmp_path}"]) == 0
        assert calls == {"heat_gradient": 16, "ou_gradient": 12}
        manifest = json.loads(
            (tmp_path / "semigroup_manifest.json").read_text())
        assert len(manifest["curves"]) == 14

    def test_certify_one_gaussian_suite_call_per_function(self, tmp_path,
                                                         monkeypatch):
        # both default pairs go to one call, which builds the OU orbit once
        calls = []

        def counting(f, pairs, **kwargs):
            calls.append(tuple(pairs))
            return certify_gaussian_suite(f, pairs, **kwargs)

        monkeypatch.setattr(cli, "certify_gaussian_suite", counting)
        assert main(["certify", "corpus=hermite(2)", "shape1d=129",
                     "t_points=4", f"output_dir={tmp_path}"]) == 0
        assert calls == [((1.0, 1.0), (2.0, 0.5))]

    def test_certify_projection_suite_reads_run_t_grid(self, tmp_path,
                                                       monkeypatch):
        # the run's t_points reach the projection suite, whose chain bound
        # reads U_gamma over them (at alpha = 1/2 the grid shows in U_gamma)
        grids = []

        def recording(f, p, alpha, **kwargs):
            grids.append(kwargs["t_grid"])
            return certify_projection_suite(f, p, alpha, **kwargs)

        monkeypatch.setattr(cli, "certify_projection_suite", recording)
        assert main(["certify", "corpus=x2d", "shape2d=33", "t_points=8",
                     "pairs=2:0.5", f"output_dir={tmp_path}"]) == 0
        assert len(grids) == 1
        assert np.array_equal(grids[0], heat.default_t_grid(8))
        payload = json.loads((tmp_path / "certificates.json").read_text())
        mono = next(e for e in payload["entries"]
                    if e["name"] == "projection-monotonicity")
        assert mono["inputs"]["u_value"] == v_gamma_upper_bound(
            build_corpus("x2d", shape=(33, 33)), 2, 0.5,
            heat.default_t_grid(8))[1]["u_value"]

    def test_seminorm_witness_search_once_per_function(self, tmp_path,
                                                       monkeypatch):
        # one search for the pairs whose seminorm is positive, none for the
        # zero function; the quotients are those of one search per pair
        calls = []

        def counting(f, pairs):
            calls.append(tuple(pairs))
            return v_lower_bounds(f, pairs)

        monkeypatch.setattr(cli, "v_lower_bounds", counting)
        assert main(["seminorm", "corpus=hat,zero", "shape1d=129",
                     f"output_dir={tmp_path}"]) == 0
        assert calls == [((1.0, 1.0), (2.0, 0.5)), ()]
        rows = json.loads((tmp_path / "seminorms.json").read_text())[
            "results"]
        hat = build_corpus("hat", shape=(129,))
        for row in rows[:2]:
            assert row["v_witness_quotient"] == v_lower_bound(
                hat, row["p"], row["alpha"]).quotient
        assert all("v_witness_quotient" not in row for row in rows[2:])

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

    def test_certify_constant_gaussian_target(self, tmp_path):
        # the witness of V for a constant is 0, so v-le-u-gamma certifies
        # 0 <= rhs instead of failing on a box-edge residue
        assert main(["certify", "corpus=hermite(0)", "pairs=1:0.5",
                     "shape1d=1025", "t_points=4",
                     f"output_dir={tmp_path}"]) == 0
        entries = json.loads(
            (tmp_path / "certificates.json").read_text())["entries"]
        chain = [e for e in entries if e["name"] == "v-le-u-gamma"][0]
        assert chain["lhs"] == 0.0 and chain["pass"]

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

    def test_certify_bytes_equal_inline_and_forked(self, tmp_path,
                                                   monkeypatch):
        # one CPU runs the suites inline, two in a pool of forked workers;
        # both are forced, so the test means the same on any machine
        pids = tmp_path / "pids"

        def recording(*args, **kwargs):
            with pids.open("a") as fh:
                fh.write(f"{os.getpid()}\n")
            return certify_projection_suite(*args, **kwargs)

        monkeypatch.setattr(cli, "certify_projection_suite", recording)
        texts = []
        for cpus in ({0}, {0, 1}):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, _cpus=cpus: _cpus, raising=False)
            pids.write_text("")
            assert main(["certify", "shape1d=129", "shape2d=33",
                         "t_points=4", f"output_dir={tmp_path}"]) == 0
            texts.append((tmp_path / "certificates.json").read_bytes())
            ran_in = set(map(int, pids.read_text().split()))
            if len(cpus) == 1:
                assert ran_in == {os.getpid()}
            else:
                assert ran_in and os.getpid() not in ran_in
            assert multiprocessing.active_children() == []
        assert texts[0] == texts[1]

    def test_certify_workers_run_one_blas_thread(self):
        if _openblas_threads() is None:
            pytest.skip("numpy's BLAS has no OpenBLAS thread getter")
        with futures.ProcessPoolExecutor(1, multiprocessing.get_context(
                "fork"), cli._one_blas_thread) as pool:
            assert pool.submit(_openblas_threads).result() == 1

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

    @pytest.mark.parametrize("argv", [
        ["corpus", "corpus=hat,indicator2d", "shape1d=129", "shape2d=33"],
        ["semigroup", "corpus=hat,hermite(1)", "shape1d=129", "t_points=4"],
        ["counterexample", "n_terms=50", "n_list=20,50", "shape2d=65"],
        ["measure", "n_terms=50", "shape1d=513", "shape2d=65"],
    ], ids=lambda argv: argv[0])
    def test_one_csv_format_for_every_command(self, tmp_path, argv):
        # csv.writer rows (CRLF ends) under a header row; a real reads as
        # the repr of its float, so it parses back exactly
        assert main(argv + [f"output_dir={tmp_path}"]) == 0
        paths = sorted(tmp_path.glob("*.csv"))
        assert paths
        for path in paths:
            with open(path, newline="") as fh:
                header, *rows = csv.reader(fh)
            assert path.read_bytes().count(b"\r\n") == len(rows) + 1
            assert rows and all(len(row) == len(header) for row in rows)
            for cell in (cell for row in rows for cell in row):
                assert cell.lstrip("-").isdigit() or \
                    cell == repr(float(cell)), (path.name, cell)

    def test_measure_report(self, tmp_path):
        assert main(["measure", "n_terms=200", "shape1d=2049",
                     f"output_dir={tmp_path}"]) == 0
        payload = json.loads((tmp_path / "measure_report.json").read_text())
        assert payload["holder_fit"]["exponent"] == pytest.approx(1.0,
                                                                  abs=0.02)
        assert payload["tv_self"] == 0.0
        for report in payload["chaining"].values():
            assert report["pass"] is True
