"""Config parsing, loaders, and round trips."""

import dataclasses

import numpy as np
import pytest

from harmreg import config
from harmreg.errors import ValidationError
from harmreg.montecarlo import ExperimentConfig
from harmreg.simulate import DEFAULT_BAND, DEFAULT_DT, HarmonicModel
from harmreg.spectral import NoiseComponent, NoiseSpec, preset_noise

FULL_TEXT = """
# experiment layout
[noise]
d = 0.6
alpha = 1.5

[noise]
d = 0.4
alpha = 0.5
kappa = 2.0
rho = 2.0

[transform]
kind = identity

[band]
low = 0.1
high = 3.0

[model]
a = 1.0
b = 0.5
phi = 1.3

[grid]
horizon = 256
dt = 0.25

[grid]
horizon = 1024

[experiment]
replications = 8
master_seed = 42
j_max = 6
noise_scale = 0.5
allow_a4_violation = true
"""


def test_parse_blocks_structure():
    blocks = config.parse_blocks("[noise]\nd = 1 # trailing comment\nalpha=0.5\n")
    assert blocks == [("noise", [("d", "1"), ("alpha", "0.5")])]


def test_parse_blocks_preserves_order_and_repeats():
    blocks = config.parse_blocks("[correlation]\nrow = 1, 0.5\nrow = 0.5, 1\n")
    assert blocks == [("correlation", [("row", "1, 0.5"), ("row", "0.5, 1")])]


def test_parse_blocks_case_insensitive():
    blocks = config.parse_blocks("[Noise]\nD = 1\nAlpha = 0.5\n")
    assert blocks[0][0] == "noise"
    assert blocks[0][1][0] == ("d", "1")


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[nope]\n", "unknown block"),
        ("[noise]\nweight = 1\n", "unknown key"),
        ("d = 1\n", "outside any block"),
        ("[noise]\nd 1\n", "expected 'key = value'"),
    ],
)
def test_parse_blocks_rejects(text, fragment):
    with pytest.raises(ValidationError, match=fragment):
        config.parse_blocks(text)


def test_parse_error_reports_line_number():
    with pytest.raises(ValidationError, match="line 3"):
        config.parse_blocks("[noise]\nd = 1\nbogus line\n")


def test_load_noise_components_in_order():
    spec = config.load_noise(config.parse_blocks(FULL_TEXT))
    assert spec == NoiseSpec(
        (
            NoiseComponent(0.6, 1.5, 0.0, 2.0),
            NoiseComponent(0.4, 0.5, 2.0, 2.0),
        )
    )


def test_load_noise_defaults():
    spec = config.load_noise(config.parse_blocks("[noise]\nd = 1\nalpha = 1.5\n"))
    comp = spec.components[0]
    assert comp.kappa == 0.0
    assert comp.rho == 2.0


def test_load_noise_preset():
    spec = config.load_noise(config.parse_blocks("[noise]\npreset = mixed\n"))
    assert spec == preset_noise("mixed")


def test_load_noise_absent():
    assert config.load_noise(config.parse_blocks("[transform]\nkind = cube\n")) is None


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[noise]\npreset = smooth\nalpha = 1.5\n", "preset excludes"),
        ("[noise]\nalpha = 1.5\n", "d and alpha are required"),
        ("[noise]\nd = 1\n", "d and alpha are required"),
        ("[noise]\npreset = smooth\n\n[noise]\nd = 1\nalpha = 1.5\n", "mix of preset"),
        ("[noise]\nd = 1\nd = 2\nalpha = 1.5\n", "duplicate key"),
        ("[noise]\nd = one\nalpha = 1.5\n", "not a number"),
    ],
)
def test_load_noise_rejects(text, fragment):
    with pytest.raises(ValidationError, match=fragment):
        config.load_noise(config.parse_blocks(text))


def test_load_transform_identity():
    spec = config.load_transform(config.parse_blocks("[transform]\nkind = identity\n"))
    assert spec.kind == "identity"
    assert spec.rank == 1


def test_load_transform_polynomial_with_k_max():
    text = "[transform]\nkind = hermite-polynomial\ncoeffs = 0, 0, 2\nk_max = 6\n"
    spec = config.load_transform(config.parse_blocks(text))
    assert spec.rank == 2
    assert spec.k_max == 6


def test_load_transform_absent():
    assert config.load_transform(config.parse_blocks("[grid]\nhorizon = 4\n")) is None


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[transform]\ncoeffs = 1\n", "kind is required"),
        ("[transform]\nkind = hermite-polynomial\n", "coeffs required"),
        ("[transform]\nkind = user-table\n", "table path required"),
        ("[transform]\nkind = cube\ncoeffs = 1\n", "extra keys"),
        ("[transform]\nkind = identity\nk_max = few\n", "not an integer"),
        ("[transform]\nkind = hermite-polynomial\ncoeffs = 0, , 2\n", "empty list item"),
        # each kind reads only its own key
        ("[transform]\nkind = identity\ncoeffs = 0, 0, 2\n", "extra keys"),
        ("[transform]\nkind = cube\ntable = table.csv\n", "extra keys"),
        ("[transform]\nkind = hermite-polynomial\ncoeffs = 0, 1\ntable = table.csv\n",
         "extra keys"),
        ("[transform]\nkind = user-table\ntable = table.csv\ncoeffs = 0, 0, 2\n", "extra keys"),
        # the table is read before the kind is checked
        ("[transform]\nkind = hermite-polynomial\ncoeffs = 0, 1\ntable = nowhere.csv\n",
         "cannot read table file"),
        # 171! overflows a float
        ("[transform]\nkind = identity\nk_max = 200\n", "Hermite order 200 exceeds 170"),
    ],
)
def test_load_transform_rejects(text, fragment, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    xs = np.linspace(-6.0, 6.0, 1201)
    config.write_csv("table.csv", ["x", "g"], np.column_stack([xs, xs]).tolist())
    with pytest.raises(ValidationError, match=fragment):
        config.load_transform(config.parse_blocks(text))


def test_load_transform_user_table(tmp_path):
    xs = np.linspace(-6.0, 6.0, 1201)
    path = tmp_path / "table.csv"
    np.savetxt(path, np.column_stack([xs, xs]), delimiter=",")
    text = f"[transform]\nkind = user-table\ntable = {path}\n"
    spec = config.load_transform(config.parse_blocks(text))
    assert spec.kind == "user-table"
    assert spec.rank == 1


def test_format_csv_cells():
    # reals with 17 significant digits, integers as written
    text = config.format_csv(["k", "v"], [(0, 0.1), (np.int64(2), np.float64(-0.0)), (3, 1e300)])
    assert text == "k,v\n0,0.10000000000000001\n2,-0\n3,1.0000000000000001e+300\n"


def test_read_csv_reads_format_csv_bit_for_bit(tmp_path):
    rows = np.random.default_rng(3).standard_normal((5, 3)) * 10.0 ** np.arange(-3, 2)[:, None]
    path = tmp_path / "rows.csv"
    path.write_text(config.format_csv(["a", "b", "c"], rows.tolist()))
    header, data = config.read_csv(path)
    assert header == ["a", "b", "c"]
    assert np.array_equal(data, rows)
    # without a header line the first row is data
    path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))
    header, data = config.read_csv(path)
    assert header is None
    assert np.array_equal(data, rows)


def test_read_table_with_header(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("x,g\n-1.0,1.0\n0.0,0.0\n1.0,1.0\n")
    xs, gs = config.read_table(str(path))
    assert np.array_equal(xs, [-1.0, 0.0, 1.0])
    assert np.array_equal(gs, [1.0, 0.0, 1.0])


def test_read_table_without_header(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("-1.0,1.0\n0.0,0.0\n1.0,1.0\n")
    xs, gs = config.read_table(str(path))
    assert np.array_equal(xs, [-1.0, 0.0, 1.0])


@pytest.mark.parametrize(
    "text",
    [
        "x,g\n-1.0,1.0\n0.0,zero\n1.0,1.0\n",
        "x,g\n-1.0,1.0\n0.0,nan\n1.0,1.0\n",
        "x,g\n-1.0,1.0\n0.0,0.0\ninf,1.0\n",
        # a first row of numbers is data, not a header to skip
        "nan,1.0\n0.0,0.0\n1.0,1.0\n",
    ],
    ids=["word", "nan", "inf", "nan-first-row"],
)
def test_read_table_rejects_bad_cells(tmp_path, text):
    path = tmp_path / "g.csv"
    path.write_text(text)
    with pytest.raises(ValidationError):
        config.read_table(str(path))


def test_read_table_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="cannot read table file"):
        config.read_table(str(tmp_path / "absent.csv"))


def test_read_table_wrong_width(tmp_path):
    path = tmp_path / "g.csv"
    path.write_text("0.0,1.0,2.0\n1.0,2.0,3.0\n")
    with pytest.raises(ValidationError, match="two columns"):
        config.read_table(str(path))


def test_load_model_with_band():
    model = config.load_model(config.parse_blocks(FULL_TEXT))
    assert model == HarmonicModel(((1.0, 0.5, 1.3),), band=(0.1, 3.0))


def test_load_model_default_band():
    text = "[model]\na = 1\nb = 0.5\nphi = 1.3\n"
    model = config.load_model(config.parse_blocks(text))
    assert model.band == DEFAULT_BAND


def test_load_model_absent():
    assert config.load_model(config.parse_blocks("[grid]\nhorizon = 4\n")) is None


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("[model]\na = 1\nb = 0.5\n", "needs exactly a, b, phi"),
        ("[band]\nlow = 0.1\nhigh = 3\n", "without any"),
        ("[band]\nlow = 0.1\n\n[model]\na = 1\nb = 0\nphi = 1\n", "exactly low and high"),
        ("[band]\n\n[model]\na = 1\nb = 0\nphi = 1\n", "exactly low and high"),
    ],
)
def test_load_model_rejects(text, fragment):
    with pytest.raises(ValidationError, match=fragment):
        config.load_model(config.parse_blocks(text))


def test_load_grids():
    grids = config.load_grids(config.parse_blocks(FULL_TEXT))
    assert len(grids) == 2
    assert grids[0].horizon == 256.0
    assert grids[0].dt == 0.25
    assert grids[1].horizon == 1024.0
    assert grids[1].dt == DEFAULT_DT


def test_load_grids_requires_horizon():
    with pytest.raises(ValidationError, match="horizon is required"):
        config.load_grids(config.parse_blocks("[grid]\ndt = 0.25\n"))


def test_load_experiment_full():
    out = config.load_experiment(config.parse_blocks(FULL_TEXT))
    assert out == {
        "replications": 8,
        "master_seed": 42,
        "j_max": 6,
        "noise_scale": 0.5,
        "allow_a4_violation": True,
    }


def test_experiment_keys_are_the_config_fields():
    # every [experiment] key reaches an ExperimentConfig field, and every
    # scalar field has a key
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert config._BLOCKS["experiment"].keys() == fields - {"noise", "transform", "model", "grids"}


@pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf"])
def test_non_finite_number_rejected(raw):
    with pytest.raises(ValidationError, match="not a finite number"):
        config.load_grids(config.parse_blocks(f"[grid]\nhorizon = {raw}\n"))


@pytest.mark.parametrize("raw", ["-1", "-3"])
def test_negative_master_seed_rejected(raw):
    # numpy's SeedSequence takes only nonnegative entropy
    with pytest.raises(ValidationError, match="master_seed must be nonnegative"):
        config.load_experiment(config.parse_blocks(f"[experiment]\nmaster_seed = {raw}\n"))


def test_load_experiment_absent():
    assert config.load_experiment(config.parse_blocks("[grid]\nhorizon = 4\n")) == {}


@pytest.mark.parametrize("raw, expected", [("true", True), ("FALSE", False), ("1", True), ("0", False)])
def test_load_experiment_boolean_forms(raw, expected):
    text = f"[experiment]\nallow_a4_violation = {raw}\n"
    out = config.load_experiment(config.parse_blocks(text))
    assert out["allow_a4_violation"] is expected


def test_load_experiment_bad_boolean():
    text = "[experiment]\nallow_a4_violation = yes\n"
    with pytest.raises(ValidationError, match="must be boolean"):
        config.load_experiment(config.parse_blocks(text))


def test_load_correlation():
    text = "[correlation]\nrow = 1, 0.5\nrow = 0.5, 1\n"
    corr = config.load_correlation(config.parse_blocks(text))
    assert np.array_equal(corr, [[1.0, 0.5], [0.5, 1.0]])


def test_load_correlation_absent():
    assert config.load_correlation(config.parse_blocks("[grid]\nhorizon = 4\n")) is None


@pytest.mark.parametrize(
    "text",
    [
        "[correlation]\nrow = 1, 0.5\n",
        "[correlation]\nrow = 1, 0.5\nrow = 0.5\n",
    ],
)
def test_load_correlation_rejects_non_square(text):
    with pytest.raises(ValidationError, match="square matrix"):
        config.load_correlation(config.parse_blocks(text))


def test_load_orders():
    blocks = config.parse_blocks("[moments]\norders = 2, 3, 3\n")
    assert config.load_orders(blocks) == (2, 3, 3)
    assert config.load_orders(config.parse_blocks("[grid]\nhorizon = 4\n")) is None


def test_load_orders_requires_key():
    with pytest.raises(ValidationError, match="orders is required"):
        config.load_orders(config.parse_blocks("[moments]\n"))


def test_read_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FULL_TEXT)
    blocks = config.read_file(str(path))
    assert config.load_model(blocks).band == (0.1, 3.0)



@pytest.mark.parametrize(
    "block, load",
    [
        ("[transform]\nkind = identity\n", config.load_transform),
        ("[band]\nlow = 0.1\nhigh = 3\n", config.load_model),
        ("[experiment]\nreplications = 8\n", config.load_experiment),
        ("[moments]\norders = 2, 2\n", config.load_orders),
        ("[correlation]\nrow = 1, 0.5\nrow = 0.5, 1\n", config.load_correlation),
        ("[noise]\npreset = smooth\n", config.load_noise),
    ],
    ids=["transform", "band", "experiment", "moments", "correlation", "preset"],
)
def test_once_only_block_repeated_is_refused(block, load):
    # a second copy is refused, not resolved to the first or the last
    model = "[model]\na = 1\nb = 0.5\nphi = 1.3\n"
    load(config.parse_blocks(model + block))
    with pytest.raises(ValidationError, match="may appear only once"):
        load(config.parse_blocks(model + block + "\n" + block))


def test_format_block_round_trip():
    # 17 significant digits read back through load_model bit for bit
    harmonics = ((0.1 + 0.2, -0.0, 1.3), (1e-300, 0.7, 2.0 + 1.0 / 3.0))
    text = "\n".join(
        config.format_block("model", zip(("a", "b", "phi"), h)) for h in harmonics
    )
    assert text.startswith("[model]\na = 0.30000000000000004\nb = -0\n")
    assert "\na = 1e-300\n" in text
    model = config.load_model(config.parse_blocks(text))
    assert [[v.hex() for v in h] for h in model.harmonics] == [
        [v.hex() for v in h] for h in harmonics
    ]


def test_format_block_values_by_type():
    text = config.format_block(
        "x",
        [
            ("word", "as is"),
            ("flags", (True, np.bool_(False))),
            ("count", np.int64(7)),
            ("row", np.array([0.5, 1.0 / 3.0])),
        ],
    )
    assert text == (
        "[x]\nword = as is\nflags = true, false\ncount = 7\n"
        "row = 0.5, 0.33333333333333331\n"
    )
