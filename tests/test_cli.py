"""End-to-end command-line tests: every subcommand in process, exit codes,
output formats, and the determinism contract of the experiment runner."""

import contextlib
import io
import warnings

import numpy as np
import pytest

from harmreg import cli, montecarlo
from harmreg.cli import main

F_SMOOTH_13 = 0.11717764563958491

EXPERIMENT_CFG = """
[noise]
preset = smooth

[transform]
kind = identity

[model]
a = 1.0
b = 0.5
phi = 1.3

[grid]
horizon = 64
dt = 0.25

[experiment]
replications = 6
master_seed = 7
"""

CLOSE_PAIR_CFG = """
[noise]
preset = smooth

[transform]
kind = identity

[model]
a = 1.0
b = 0.5
phi = 1.30

[model]
a = 0.8
b = 0.3
phi = 1.33

[band]
low = 1.25
high = 1.36

[grid]
horizon = 64
dt = 0.25

[experiment]
replications = 4
master_seed = 1
"""

LOW_RANK_CFG = """
[noise]
preset = seasonal

[transform]
kind = identity

[model]
a = 1.0
b = 0.5
phi = 1.3

[grid]
horizon = 64
dt = 0.25

[experiment]
replications = 4
master_seed = 1
"""

MOMENTS_CFG = """
[moments]
orders = 2, 3, 3

[correlation]
row = 1.0, 0.5, 0.25
row = 0.5, 1.0, 0.5
row = 0.25, 0.5, 1.0
"""


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _value(text, key):
    for line in text.splitlines():
        if line.startswith(key + " = "):
            return line.split(" = ", 1)[1]
    raise AssertionError(f"{key!r} not found in output")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def experiment_cfg(workdir):
    target = workdir / "experiment.cfg"
    target.write_text(EXPERIMENT_CFG)
    return str(target)


@pytest.fixture(scope="module")
def path_csv(workdir, experiment_cfg):
    out = workdir / "paths"
    code, _, _ = _run(["simulate", "--config", experiment_cfg, "--out", str(out)])
    assert code == 0
    return str(out / "path_T64.csv")


@pytest.fixture(scope="module")
def component_cfgs(workdir):
    model = workdir / "model.cfg"
    model.write_text("[model]\na = 1.0\nb = 0.5\nphi = 1.3\n")
    noise = workdir / "noise.cfg"
    noise.write_text("[noise]\npreset = smooth\n")
    transform = workdir / "transform.cfg"
    transform.write_text("[transform]\nkind = identity\n")
    return str(model), str(noise), str(transform)


class TestSimulate:
    def test_writes_one_path_per_grid(self, experiment_cfg, tmp_path):
        code, out, err = _run(
            ["simulate", "--config", experiment_cfg, "--out", str(tmp_path)]
        )
        assert code == 0
        assert err == ""
        assert "wrote" in out
        lines = (tmp_path / "path_T64.csv").read_text().splitlines()
        assert lines[0] == "t,x,signal,noise"
        assert len(lines) == 1 + 256

    def test_seed_override_is_deterministic(self, experiment_cfg, path_csv, tmp_path):
        args = ["simulate", "--config", experiment_cfg, "--seed", "123"]
        _run(args + ["--out", str(tmp_path / "a")])
        _run(args + ["--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "path_T64.csv").read_bytes()
        b = (tmp_path / "b" / "path_T64.csv").read_bytes()
        assert a == b
        with open(path_csv, "rb") as fh:
            assert a != fh.read()  # differs from the master_seed=7 stream

    def test_pure_noise_without_model_block(self, tmp_path):
        cfg = tmp_path / "noise_only.cfg"
        cfg.write_text(
            "[noise]\npreset = smooth\n[transform]\nkind = identity\n"
            "[grid]\nhorizon = 64\ndt = 0.25\n"
        )
        code, out, _ = _run(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "path_T64.csv").read_text().splitlines()
        assert lines[0] == "t,x"
        values = np.loadtxt(str(tmp_path / "path_T64.csv"), delimiter=",", skiprows=1)
        assert np.std(values[:, 1]) > 0.1

    @pytest.mark.parametrize("model", ["", "[model]\na = 1.0\nb = 0.5\nphi = 1.3\n"],
                             ids=["noise-only", "model"])
    @pytest.mark.parametrize(
        "grids, label",
        [("horizon = 64\ndt = 0.125\n", "T64"),
         ("horizon = 1e6\n[grid]\nhorizon = 1000001\n", "T1e+06")],
        ids=["same-horizon", "same-g-format"],
    )
    def test_grids_sharing_a_label_exit_2_before_drawing(self, tmp_path, monkeypatch,
                                                          model, grids, label):
        # path_T{horizon:g}.csv would be written twice, the later grid's last
        def no_draws(*args, **kwargs):
            raise AssertionError("drew a path")

        monkeypatch.setattr(cli, "observe", no_draws)
        monkeypatch.setattr(cli, "_scaled_noise", no_draws)
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(
            "[noise]\npreset = smooth\n[transform]\nkind = identity\n" + model
            + "[grid]\nhorizon = 64\ndt = 0.25\n[grid]\n" + grids
        )
        out_dir = tmp_path / "out"
        code, out, err = _run(["simulate", "--config", str(cfg), "--out", str(out_dir)])
        assert code == 2
        assert err.startswith("error: grids SamplingGrid(")
        assert err.endswith(f" share the output label {label}\n")
        assert out == ""
        assert not out_dir.exists()

    def test_allowed_a4_violation_draws_with_a_warning(self, tmp_path):
        cfg = tmp_path / "lowrank.cfg"
        cfg.write_text(LOW_RANK_CFG + "allow_a4_violation = true\n")
        with pytest.warns(UserWarning, match=r"\(allow_a4_violation is set\)$"):
            code, _, err = _run(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert (code, err) == (0, "")
        assert (tmp_path / "path_T64.csv").exists()

    @pytest.mark.parametrize("model", ["", "[model]\na = 1.0\nb = 0.5\nphi = 1.3\n"])
    def test_negative_noise_scale_exits_2(self, tmp_path, model):
        # with or without a model, a negative scale is refused before any
        # path is written
        cfg = tmp_path / "negative.cfg"
        cfg.write_text(
            "[noise]\npreset = smooth\n[transform]\nkind = identity\n" + model
            + "[grid]\nhorizon = 64\ndt = 0.25\n[experiment]\nnoise_scale = -1\n"
        )
        code, _, err = _run(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "noise_scale must be nonnegative" in err
        assert not (tmp_path / "path_T64.csv").exists()

    @pytest.mark.parametrize("model", ["", "[model]\na = 1.0\nb = 0.5\nphi = 1.3\n"],
                             ids=["noise-only", "model"])
    def test_zero_noise_scale_writes_zero_noise(self, tmp_path, model):
        # with or without a model, scale 0 writes the noise as exact zeros,
        # never a -0 from scaling a negative draw
        cfg = tmp_path / "noiseless.cfg"
        cfg.write_text(
            "[noise]\npreset = smooth\n[transform]\nkind = identity\n" + model
            + "[grid]\nhorizon = 4\ndt = 0.25\n[experiment]\nnoise_scale = 0\n"
        )
        code, _, _ = _run(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "path_T4.csv").read_text().splitlines()[1:]
        # the last column is x without a model and noise with one
        assert [row.split(",")[-1] for row in rows] == ["0"] * 16

    @pytest.mark.parametrize(
        "old, new",
        [
            ("horizon = 64", "horizon = nan"),
            ("horizon = 64", "horizon = inf"),
            ("dt = 0.25", "dt = nan"),
            ("preset = smooth", "d = 1\nalpha = nan"),
            ("master_seed = 7", "master_seed = 7\nnoise_scale = nan"),
        ],
        ids=["horizon-nan", "horizon-inf", "dt-nan", "alpha-nan", "noise_scale-nan"],
    )
    def test_non_finite_number_exits_2(self, tmp_path, old, new):
        cfg = tmp_path / "non_finite.cfg"
        cfg.write_text(EXPERIMENT_CFG.replace(old, new))
        code, _, err = _run(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert "not a finite number" in err
        assert not (tmp_path / "path_T64.csv").exists()

    def test_overflowing_grid_exits_2(self, tmp_path):
        # horizon / dt overflows to inf, so the grid has no point count
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(EXPERIMENT_CFG.replace("horizon = 64\ndt = 0.25",
                                              "horizon = 1e300\ndt = 1e-10"))
        code, out, err = _run(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert (code, out) == (2, "")
        assert err == "error: grid horizon / dt must be finite, got 1e+300 / 1e-10\n"

    @pytest.mark.parametrize(
        "drop, match",
        [("[grid]", "grid"), ("[noise]", "noise"), ("[transform]", "transform")],
    )
    def test_missing_block_exits_2(self, tmp_path, drop, match):
        kept = []
        skip = False
        for line in EXPERIMENT_CFG.splitlines():
            if line.startswith("["):
                skip = line.startswith(drop)
            if not skip:
                kept.append(line)
        cfg = tmp_path / "partial.cfg"
        cfg.write_text("\n".join(kept))
        code, _, err = _run(["simulate", "--config", str(cfg)])
        assert code == 2
        assert err.startswith("error:")
        assert match in err

    def test_unreadable_config_exits_2(self, tmp_path):
        code, _, err = _run(["simulate", "--config", str(tmp_path / "absent.cfg")])
        assert code == 2
        assert err.startswith("error:")

    def test_negative_seed_flag_exits_2(self, experiment_cfg, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", experiment_cfg, "--seed", "-1",
                  "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: master seed must be nonnegative" in err
        assert "Traceback" not in err
        assert not (tmp_path / "path_T64.csv").exists()

    def test_order_above_170_exits_2(self, tmp_path):
        # 171! overflows a float; the order is refused where it enters
        cfg = tmp_path / "k_max.cfg"
        cfg.write_text(EXPERIMENT_CFG.replace("kind = identity", "kind = identity\nk_max = 200"))
        code, _, err = _run(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert err == "error: Hermite order 200 exceeds 170: its factorial overflows a float\n"
        assert not (tmp_path / "path_T64.csv").exists()

    @pytest.mark.parametrize("kind", ["identity", "cube", "centered-absolute-value"])
    def test_order_170_simulates(self, tmp_path, kind):
        # every admitted order has its coefficients in closed form
        cfg = tmp_path / "k_max.cfg"
        cfg.write_text(EXPERIMENT_CFG.replace("kind = identity", f"kind = {kind}\nk_max = 170"))
        code, _, err = _run(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert (code, err) == (0, "")
        assert (tmp_path / "path_T64.csv").exists()

    def test_negative_master_seed_exits_2(self, tmp_path):
        cfg = tmp_path / "negative_seed.cfg"
        cfg.write_text(EXPERIMENT_CFG.replace("master_seed = 7", "master_seed = -3"))
        code, _, err = _run(["simulate", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert err == "error: master_seed must be nonnegative, got -3\n"
        assert not (tmp_path / "path_T64.csv").exists()


class TestEstimate:
    def test_round_trip_with_truth(self, experiment_cfg, path_csv, tmp_path):
        code, out, err = _run(
            [
                "estimate",
                "--input",
                path_csv,
                "--n-harmonics",
                "1",
                "--truth",
                experiment_cfg,
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert err == ""
        assert "[estimate]" in out
        assert _value(out, "converged") == "true"
        assert float(_value(out, "horizon")) == 64.0
        assert abs(float(_value(out, "phi")) - 1.3) < 0.05
        assert "[normalized_errors]" in out
        errors = np.loadtxt(
            str(tmp_path / "normalized_errors.csv"), delimiter=",", skiprows=1
        )
        assert errors.shape == (3,)
        assert np.all(np.abs(errors) < 8.0)

    def test_without_truth_no_error_block(self, path_csv):
        code, out, _ = _run(["estimate", "--input", path_csv, "--n-harmonics", "1"])
        assert code == 0
        assert "[normalized_errors]" not in out
        assert "[model]" in out

    def test_band_flag(self, path_csv):
        code, out, _ = _run(
            ["estimate", "--input", path_csv, "--n-harmonics", "1", "--band", "1.0,1.6"]
        )
        assert code == 0
        assert abs(float(_value(out, "phi")) - 1.3) < 0.05

    @pytest.mark.parametrize("band", ["1.0", "lo,hi", "0.1,1,3", "1,,2"])
    def test_malformed_band_exits_2(self, path_csv, band):
        code, _, err = _run(
            ["estimate", "--input", path_csv, "--n-harmonics", "1", "--band", band]
        )
        assert code == 2
        assert "band" in err

    @pytest.mark.parametrize("band", ["nan,3", "0.1,1e400"])
    def test_non_finite_band_exits_2(self, path_csv, band):
        # the flag goes through the config reader's number check
        code, _, err = _run(
            ["estimate", "--input", path_csv, "--n-harmonics", "1", "--band", band]
        )
        assert code == 2
        assert err.startswith("error: band: not a finite number: ")

    def test_missing_input_exits_2(self, tmp_path):
        code, _, err = _run(
            ["estimate", "--input", str(tmp_path / "absent.csv"), "--n-harmonics", "1"]
        )
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("cell", ["1.0x", "nan", "-inf"])
    def test_bad_cell_exits_2(self, path_csv, tmp_path, cell):
        # an uncaught error would raise out of main here; the CLI must
        # report the bad cell and exit 2 instead of printing estimates
        with open(path_csv) as fh:
            lines = fh.read().splitlines()
        t, _, *rest = lines[10].split(",")
        lines[10] = ",".join([t, cell, *rest])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, out, err = _run(["estimate", "--input", str(bad), "--n-harmonics", "1"])
        assert code == 2
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "path CSV must start with header 't,x', got ''"),
            ("t,x\n", "path CSV needs at least two rows"),
        ],
        ids=["empty", "header-only"],
    )
    def test_csv_without_rows_exits_2_without_warning(self, tmp_path, text, message):
        # a file without data rows is refused before it reaches the numeric
        # reader, which would warn that it holds no data
        path = tmp_path / "rows.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = _run(["estimate", "--input", str(path), "--n-harmonics", "1"])
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""


class TestAsymptotics:
    def test_derived_report(self, component_cfgs, tmp_path):
        model, noise, transform = component_cfgs
        code, out, _ = _run(
            [
                "asymptotics",
                "--model",
                model,
                "--noise",
                noise,
                "--transform",
                transform,
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert _value(out, "mode") == "derived"
        assert float(_value(out, "s")) == pytest.approx(F_SMOOTH_13, rel=1e-8)
        assert 0.0 <= float(_value(out, "quad_error")) <= 1e-5
        eigs = [float(v) for v in _value(out, "eigenvalues").split(",")]
        assert min(eigs) > 0.0
        first_row = [float(v) for v in _value(out, "row").split(",")]
        # derived (1,1) block entry: 4*pi*s*(A^2+4B^2)/C^2
        assert first_row[0] == pytest.approx(2.355996356755976, rel=1e-9)
        csv = (tmp_path / "gamma.csv").read_text().splitlines()
        assert csv[0] == "harmonic,phi,i,j,value"
        assert len(csv) == 1 + 9
        assert float(csv[1].split(",")[-1]) == pytest.approx(first_row[0])

    @pytest.mark.parametrize("k_max, code", [("21", 0), ("-1", 2)])
    def test_transform_k_max(self, component_cfgs, tmp_path, k_max, code):
        # 21! exceeds int64; a k_max below 1 is a validation error
        model, noise, _ = component_cfgs
        transform = tmp_path / "transform.cfg"
        transform.write_text(f"[transform]\nkind = identity\nk_max = {k_max}\n")
        got, out, err = _run(
            ["asymptotics", "--model", model, "--noise", noise, "--transform", str(transform)]
        )
        assert got == code
        assert "Traceback" not in err
        if code == 0:
            assert float(_value(out, "s")) == pytest.approx(F_SMOOTH_13, rel=1e-8)

    def test_as_printed_mode_is_indefinite(self, component_cfgs):
        model, noise, transform = component_cfgs
        code, out, _ = _run(
            [
                "asymptotics",
                "--model",
                model,
                "--noise",
                noise,
                "--transform",
                transform,
                "--mode",
                "as-printed",
            ]
        )
        assert code == 0
        assert _value(out, "mode") == "as-printed"
        eigs = [float(v) for v in _value(out, "eigenvalues").split(",")]
        assert min(eigs) < 0.0

    def test_unknown_mode_exits_2(self, component_cfgs):
        model, noise, transform = component_cfgs
        with pytest.raises(SystemExit) as exc:
            _run(
                [
                    "asymptotics",
                    "--model",
                    model,
                    "--noise",
                    noise,
                    "--transform",
                    transform,
                    "--mode",
                    "bogus",
                ]
            )
        assert exc.value.code == 2


class TestMontecarlo:
    def test_report_on_stdout(self, experiment_cfg):
        code, out, _ = _run(["montecarlo", "--config", experiment_cfg])
        assert code == 0
        assert out.startswith("[report]\n")
        assert "coverage95_0" in out

    def test_worker_count_does_not_change_outputs(self, experiment_cfg, tmp_path):
        one = tmp_path / "w1"
        two = tmp_path / "w2"
        assert _run(["montecarlo", "--config", experiment_cfg, "--out", str(one)])[0] == 0
        assert (
            _run(
                [
                    "montecarlo",
                    "--config",
                    experiment_cfg,
                    "--out",
                    str(two),
                    "--workers",
                    "2",
                ]
            )[0]
            == 0
        )
        assert (one / "report.txt").read_bytes() == (two / "report.txt").read_bytes()
        assert (one / "samples_T64.csv").read_bytes() == (
            two / "samples_T64.csv"
        ).read_bytes()
        # runtime sidecar carries timing and is excluded from the contract
        assert "workers = 2" in (two / "runtime.txt").read_text()

    def test_seed_flag_supplies_master_seed(self, tmp_path):
        cfg = tmp_path / "noseed.cfg"
        cfg.write_text(EXPERIMENT_CFG.replace("master_seed = 7\n", ""))
        code, _, err = _run(["montecarlo", "--config", str(cfg)])
        assert code == 2
        assert "master_seed" in err
        code, out, _ = _run(["montecarlo", "--config", str(cfg), "--seed", "11"])
        assert code == 0
        assert "master_seed = 11" in out

    def test_negative_master_seed_exits_2(self, tmp_path):
        cfg = tmp_path / "negative_seed.cfg"
        cfg.write_text(EXPERIMENT_CFG.replace("master_seed = 7", "master_seed = -3"))
        code, out, err = _run(["montecarlo", "--config", str(cfg), "--out", str(tmp_path)])
        assert code == 2
        assert err == "error: master_seed must be nonnegative, got -3\n"
        assert out == ""

    def test_negative_seed_flag_exits_2(self, experiment_cfg, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["montecarlo", "--config", experiment_cfg, "--seed", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --seed: master seed must be nonnegative" in err
        assert "Traceback" not in err

    def test_unusable_replications_exit_3(self, tmp_path):
        cfg = tmp_path / "close.cfg"
        cfg.write_text(CLOSE_PAIR_CFG)
        code, _, err = _run(["montecarlo", "--config", str(cfg)])
        assert code == 3
        assert "unusable" in err

    def test_low_rank_product_exits_2(self, tmp_path):
        cfg = tmp_path / "lowrank.cfg"
        cfg.write_text(LOW_RANK_CFG)
        code, _, err = _run(["montecarlo", "--config", str(cfg)])
        assert code == 2
        assert "decay_exponent" in err

    def test_allowed_a4_violation_still_exits_2(self, tmp_path):
        # the flag lets paths be drawn, but Gamma needs |B|^m integrable
        cfg = tmp_path / "lowrank.cfg"
        cfg.write_text(LOW_RANK_CFG + "allow_a4_violation = true\n")
        code, out, err = _run(["montecarlo", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err == ("error: self-convolution of order 1 is not integrable: "
                       "decay_exponent * 1 = 0.500\n")

    def test_band_at_zero_exits_2_before_drawing(self, tmp_path, monkeypatch):
        # detection refuses a band that starts at 0, so the model refuses it
        # too, before the Gamma quadrature or any replication runs
        def no_draws(*args, **kwargs):
            raise AssertionError("drew a replication")

        monkeypatch.setattr(montecarlo, "_replication", no_draws)
        monkeypatch.setattr(montecarlo.asymptotics, "gamma_report", no_draws)
        cfg = tmp_path / "band0.cfg"
        cfg.write_text(EXPERIMENT_CFG + "\n[band]\nlow = 0\nhigh = 3\n")
        code, out, err = _run(["montecarlo", "--config", str(cfg)])
        assert code == 2
        assert err == "error: band must satisfy 0 < lo < hi, got (0.0, 3.0)\n"
        assert out == ""

    def test_repeated_experiment_block_exits_2_before_drawing(self, tmp_path, monkeypatch):
        # a second [experiment] block is refused, not resolved to the first
        def no_draws(*args, **kwargs):
            raise AssertionError("drew a replication")

        monkeypatch.setattr(montecarlo, "_replication", no_draws)
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(EXPERIMENT_CFG + "\n[experiment]\nreplications = 8\n")
        code, out, err = _run(["montecarlo", "--config", str(cfg)])
        assert code == 2
        assert err == "error: [experiment]: may appear only once, found 2\n"
        assert out == ""


class TestMoments:
    def test_census_output(self, tmp_path):
        cfg = tmp_path / "moments.cfg"
        cfg.write_text(MOMENTS_CFG)
        code, out, _ = _run(["moments", "--config", str(cfg)])
        assert code == 0
        assert "orders = 2, 3, 3" in out
        assert "moment = 1.125" in out
        assert "diagrams = 36" in out
        assert "regular_diagrams = 0" in out

    def test_requires_correlation_block(self, tmp_path):
        cfg = tmp_path / "bare.cfg"
        cfg.write_text("[moments]\norders = 2, 2\n")
        code, _, err = _run(["moments", "--config", str(cfg)])
        assert code == 2
        assert "correlation" in err


@pytest.mark.parametrize(
    "command, text",
    [
        ("simulate", EXPERIMENT_CFG.replace(
            "kind = identity", "kind = hermite-polynomial\ncoeffs = 0, 1, , 2")),
        ("moments", MOMENTS_CFG.replace("orders = 2, 3, 3", "orders = 2, , 3")),
        ("moments", MOMENTS_CFG.replace("row = 0.5, 1.0, 0.5", "row = 0.5, , 1.0, 0.5")),
        ("moments", MOMENTS_CFG.replace("orders = 2, 3, 3", "orders = 2, 3, 3,")),
        ("moments", MOMENTS_CFG.replace("orders = 2, 3, 3", "orders =")),
    ],
    ids=["coeffs", "orders", "row", "trailing", "no-item"],
)
def test_empty_list_item_exits_2(tmp_path, command, text):
    # a stray comma is refused, not read as a shorter list
    cfg = tmp_path / "empty_item.cfg"
    cfg.write_text(text)
    argv = [command, "--config", str(cfg)]
    if command == "simulate":
        argv += ["--out", str(tmp_path / "out")]
    code, out, err = _run(argv)
    assert (code, out) == (2, "")
    assert "empty list item" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "run.cfg", "--workers", "2"],
        ["estimate", "--input", "path.csv", "--n-harmonics", "1", "--seed", "1"],
        ["estimate", "--input", "path.csv", "--n-harmonics", "1", "--workers", "9"],
        ["asymptotics", "--model", "m.cfg", "--noise", "n.cfg", "--transform", "t.cfg",
         "--seed", "1"],
        ["asymptotics", "--model", "m.cfg", "--noise", "n.cfg", "--transform", "t.cfg",
         "--workers", "2"],
        ["moments", "--config", "run.cfg", "--seed", "4"],
        ["moments", "--config", "run.cfg", "--workers", "2"],
        ["moments", "--config", "run.cfg", "--out", "out"],
    ],
)
def test_flag_a_subcommand_does_not_read_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
