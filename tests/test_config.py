"""Config parsing: schemas, defaults, and error reporting by line and key."""

import pytest

from convkernel.config import (
    DEPTH_COUNT_MAX,
    SEED_MAX,
    ConfigError,
    EigvecConfig,
    MnistConfig,
    SweepConfig,
    THETA_FAMILY_ALIGNED_SPIKE,
    _log_spaced_depths,
    parse_config,
)
from convkernel.kernels import DEPTH_MAX, Architecture, GeometryKind, Padding


def parse_text(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return parse_config(path)


def error_of(tmp_path, text):
    with pytest.raises(ConfigError) as excinfo:
        parse_text(tmp_path, text)
    return str(excinfo.value)


class TestFileSyntax:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            parse_config(tmp_path / "absent.cfg")

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"experiment = sweep\n# \xff\n")
        with pytest.raises(ConfigError, match="cannot read config file .*bad.cfg"):
            parse_config(path)

    def test_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_bytes("\ufeffexperiment = sweep\np = 12\n".encode())
        cfg = parse_config(path)
        assert cfg.experiment == "sweep" and cfg.geometry.p == 12

    def test_comments_and_blanks_ignored(self, tmp_path):
        cfg = parse_text(
            tmp_path,
            "# full-line comment\n\nexperiment = sweep\np = 12  # inline comment\n",
        )
        assert cfg.geometry.p == 12

    def test_line_without_equals(self, tmp_path):
        message = error_of(tmp_path, "experiment = sweep\njust words\n")
        assert ":2:" in message
        assert "key = value" in message

    def test_missing_key_before_equals(self, tmp_path):
        message = error_of(tmp_path, "= sweep\n")
        assert ":1:" in message
        assert "missing key" in message

    def test_duplicate_key(self, tmp_path):
        message = error_of(tmp_path, "experiment = sweep\np = 5\np = 6\n")
        assert ":3:" in message
        assert "duplicate key 'p'" in message
        assert "line 2" in message

    def test_missing_experiment(self, tmp_path):
        message = error_of(tmp_path, "p = 5\n")
        assert "missing required key 'experiment'" in message

    def test_unknown_experiment(self, tmp_path):
        message = error_of(tmp_path, "experiment = plots\n")
        assert ":1:" in message
        assert "unknown experiment 'plots'" in message
        assert "eigvec, mnist, sweep" in message

    def test_unknown_key_names_line_and_key(self, tmp_path):
        message = error_of(tmp_path, "experiment = sweep\nwidth = 3\n")
        assert ":2:" in message
        assert "unknown key 'width' for sweep experiment" in message


class TestSweepDefaults:
    def test_minimal_config(self, tmp_path):
        cfg = parse_text(tmp_path, "experiment = sweep\n")
        assert isinstance(cfg, SweepConfig)
        assert cfg.experiment == "sweep"
        assert cfg.geometry.kind is GeometryKind.ONE_D
        assert cfg.geometry.p == 20
        assert cfg.padding is Padding.ZERO
        assert cfg.architecture is Architecture.POOLING
        assert cfg.theta_family == "conv"
        assert cfg.depths == _log_spaced_depths(1, 100, 10)
        assert cfg.sigma_source == "identity"
        assert cfg.beta_source == "synthetic"
        assert cfg.noise_var == 0.01
        assert cfg.n_train == 10
        assert (cfg.trials_bias, cfg.trials_var, cfg.trials_risk) == (500, 2000, 500)
        assert cfg.risk_test_points == 256
        assert cfg.seed == 0
        assert str(cfg.outdir) == "out"

    def test_values_parsed(self, tmp_path):
        cfg = parse_text(
            tmp_path,
            "experiment = sweep\n"
            "geometry = 2d\np = 9\npadding = circular\narchitecture = flattening\n"
            "theta_family = aligned_spike\nfamily_center = 4\n"
            "depths = 0, 3, 7\nnoise_var = 0.5\nn = 4\nseed = 11\noutdir = results\n",
        )
        assert cfg.geometry.kind is GeometryKind.TWO_D
        assert cfg.geometry.side == 3
        assert cfg.padding is Padding.CIRCULAR
        assert cfg.architecture is Architecture.FLATTENING
        assert cfg.theta_family == THETA_FAMILY_ALIGNED_SPIKE
        assert cfg.family_center == 4
        assert cfg.depths == (0, 3, 7)
        assert cfg.noise_var == 0.5
        assert cfg.n_train == 4
        assert cfg.seed == 11
        assert str(cfg.outdir) == "results"


class TestSweepValidation:
    def test_unknown_padding(self, tmp_path):
        message = error_of(tmp_path, "experiment = sweep\npadding = reflective\n")
        assert "unknown padding" in message
        assert "zero, circular" in message

    def test_unknown_architecture(self, tmp_path):
        message = error_of(tmp_path, "experiment = sweep\narchitecture = attention\n")
        assert "unknown architecture" in message

    def test_unknown_geometry(self, tmp_path):
        message = error_of(tmp_path, "experiment = sweep\ngeometry = 3d\n")
        assert "unknown geometry" in message

    def test_2d_needs_square_p(self, tmp_path):
        message = error_of(tmp_path, "experiment = sweep\ngeometry = 2d\np = 10\n")
        assert "square" in message

    def test_2d_with_default_p_names_geometry_line(self, tmp_path):
        message = error_of(tmp_path, "experiment = sweep\nseed = 1\ngeometry = 2d\n")
        assert ":3: 2-D geometry needs a perfect-square pixel count, got 20" in message

    def test_non_integer_p(self, tmp_path):
        message = error_of(tmp_path, "experiment = sweep\np = many\n")
        assert ":2:" in message
        assert "p must be an integer" in message

    def test_negative_noise(self, tmp_path):
        message = error_of(tmp_path, "experiment = sweep\nnoise_var = -1\n")
        assert "noise_var must be >= 0" in message

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_noise(self, tmp_path, value):
        message = error_of(tmp_path, f"experiment = sweep\nnoise_var = {value}\n")
        assert ":2:" in message
        assert "noise_var must be finite" in message

    def test_n_must_stay_under_p(self, tmp_path):
        message = error_of(tmp_path, "experiment = sweep\np = 8\nn = 8\n")
        assert ":3:" in message
        assert "n < p" in message

    def test_n_under_p_names_p_when_n_defaulted(self, tmp_path):
        message = error_of(tmp_path, "experiment = sweep\np = 10\n")
        assert ":2:" in message
        assert "n=10, p=10" in message

    def test_sigma_file_required_when_source_is_file(self, tmp_path):
        message = error_of(tmp_path, "experiment = sweep\nsigma_source = file\n")
        assert ":2:" in message
        assert "sigma_source = file requires sigma_file" in message

    def test_sigma_file_must_exist(self, tmp_path):
        message = error_of(
            tmp_path, "experiment = sweep\nsigma_source = file\nsigma_file = nope.csv\n"
        )
        assert "sigma_file references a missing file" in message

    def test_file_that_cannot_be_checked_names_key_and_line(self, tmp_path):
        message = error_of(
            tmp_path, f"experiment = sweep\nsigma_source = file\nsigma_file = {'a' * 300}\n"
        )
        assert ":3: sigma_file cannot be checked" in message
        assert "too long" in message

    def test_beta_file_required_when_source_is_file(self, tmp_path):
        message = error_of(tmp_path, "experiment = sweep\nseed = 1\nbeta_source = file\n")
        assert ":3:" in message
        assert "beta_source = file requires beta_file" in message

    @pytest.mark.parametrize("source", ["sigma", "beta"])
    def test_file_rejected_unless_source_is_file(self, tmp_path, source):
        (tmp_path / "m.csv").write_text("1\n")
        message = error_of(
            tmp_path, f"experiment = sweep\nseed = 1\n{source}_file = {tmp_path / 'm.csv'}\n"
        )
        assert ":3:" in message
        assert f"{source}_file is set but {source}_source is" in message

    def test_trials_minimum(self, tmp_path):
        message = error_of(tmp_path, "experiment = sweep\ntrials_var = 0\n")
        assert "trials_var must be >= 1" in message


class TestOutdir:
    @pytest.mark.parametrize("under", ["", "/sub", "/sub/deeper"])
    def test_rejects_a_file_or_a_path_under_one(self, tmp_path, under):
        (tmp_path / "afile").write_text("")
        message = error_of(tmp_path, f"experiment = sweep\noutdir = {tmp_path}/afile{under}\n")
        assert f":2: outdir cannot be made: {tmp_path / 'afile'} is not a directory" in message

    def test_accepts_missing_directories_under_a_directory(self, tmp_path):
        for outdir in (tmp_path / "new" / "deeper", tmp_path):
            cfg = parse_text(tmp_path, f"experiment = eigvec\noutdir = {outdir}\n")
            assert cfg.outdir == outdir

    def test_outdir_that_cannot_be_checked_names_line(self, tmp_path):
        message = error_of(tmp_path, f"experiment = sweep\nseed = 1\noutdir = {'o' * 300}\n")
        assert ":3: outdir cannot be checked" in message
        assert "too long" in message


class TestIntegerBounds:
    """Integers of any size fail with a line-numbered ConfigError, never a traceback."""

    @pytest.mark.parametrize("depth", [2**63, 10**400], ids=["2**63", "10**400"])
    def test_oversized_depth_in_list(self, tmp_path, depth):
        message = error_of(tmp_path, f"experiment = sweep\ndepths = 1,{depth}\n")
        assert f":2: depths must be non-negative integers <= {DEPTH_MAX}" in message

    @pytest.mark.parametrize("key", ["sigma_depth", "family_center", "depth_min", "depth_max"])
    @pytest.mark.parametrize("value", [2**63, 10**400], ids=["2**63", "10**400"])
    def test_oversized_depth_key(self, tmp_path, key, value):
        message = error_of(tmp_path, f"experiment = sweep\nseed = 3\n{key} = {value}\n")
        assert f":3: {key} must be <= {DEPTH_MAX}, got {value}" in message

    def test_largest_depths_are_accepted(self, tmp_path):
        cfg = parse_text(tmp_path, f"experiment = sweep\ndepths = 0,{DEPTH_MAX}\n"
                                   f"sigma_depth = {DEPTH_MAX}\nfamily_center = {DEPTH_MAX}\n")
        assert cfg.depths == (0, DEPTH_MAX)
        assert cfg.sigma_depth == cfg.family_center == DEPTH_MAX

    def test_log_grid_up_to_the_largest_depth_stays_in_range(self, tmp_path):
        cfg = parse_text(tmp_path, "experiment = eigvec\ndepth_min = 1\n"
                                   f"depth_max = {DEPTH_MAX}\ndepth_count = 3\n")
        assert cfg.depths == (1, 3037000500, DEPTH_MAX)

    @pytest.mark.parametrize("experiment", ["sweep", "mnist"])
    @pytest.mark.parametrize("seed, bound", [(-1, ">= 0"), (2**64, f"<= {SEED_MAX}"),
                                             (10**400, f"<= {SEED_MAX}")],
                             ids=["-1", "2**64", "10**400"])
    def test_seed_outside_64_bits_is_refused(self, tmp_path, experiment, seed, bound):
        # A seed is used mod 2**64, so -1 and 2**64 - 1 would draw alike.
        data = tmp_path / "data.idx"
        data.write_bytes(b"")
        files = f"images = {data}\nlabels = {data}\n" if experiment == "mnist" else ""
        message = error_of(tmp_path, f"experiment = {experiment}\nseed = {seed}\n{files}")
        assert f":2: seed must be {bound}, got {seed}" in message

    def test_largest_seed_is_accepted(self, tmp_path):
        assert SEED_MAX == 2**64 - 1
        assert parse_text(tmp_path, f"experiment = sweep\nseed = {SEED_MAX}\n").seed == SEED_MAX


class TestDepthGrids:
    def test_explicit_depths_not_increasing(self, tmp_path):
        message = error_of(tmp_path, "experiment = sweep\ndepths = 1,2,2\n")
        assert "depths must be strictly increasing" in message

    def test_explicit_depths_negative(self, tmp_path):
        message = error_of(tmp_path, "experiment = sweep\ndepths = -1,2\n")
        assert "depths must be non-negative" in message

    def test_explicit_depths_non_integer(self, tmp_path):
        message = error_of(tmp_path, "experiment = sweep\ndepths = 1,two\n")
        assert "depths must be integers" in message

    def test_explicit_depths_empty(self, tmp_path):
        message = error_of(tmp_path, "experiment = sweep\ndepths =\n")
        assert "nonempty" in message

    @pytest.mark.parametrize("depths", ["1,,2", "1,2,", ",1"])
    def test_explicit_depths_empty_item(self, tmp_path, depths):
        message = error_of(tmp_path, f"experiment = sweep\ndepths = {depths}\n")
        assert f":2: depths has an empty item, got {depths!r}" in message

    def test_range_and_explicit_conflict(self, tmp_path):
        message = error_of(
            tmp_path, "experiment = sweep\ndepths = 1,2\ndepth_min = 1\n"
        )
        assert "not both" in message

    def test_partial_range(self, tmp_path):
        message = error_of(tmp_path, "experiment = sweep\ndepth_min = 1\n")
        assert ":2:" in message
        assert "given together" in message

    def test_partial_range_names_first_line_given(self, tmp_path):
        message = error_of(
            tmp_path, "experiment = sweep\ndepth_count = 4\nseed = 2\ndepth_min = 1\n"
        )
        assert ":2:" in message
        assert "given together" in message

    def test_range_produces_log_grid(self, tmp_path):
        cfg = parse_text(
            tmp_path,
            "experiment = sweep\ndepth_min = 1\ndepth_max = 100\ndepth_count = 10\n",
        )
        assert cfg.depths == (1, 2, 3, 5, 8, 13, 22, 36, 60, 100)

    @pytest.mark.parametrize("low, high, count, expected", [
        (0, 8, 3, ":2: depth_min must be >= 1, got 0"),
        (5, 4, 3, ":2: need depth_max >= depth_min, got 5..4"),
        (1, 8, 0, ":4: depth_count must be >= 1, got 0"),
        (1, 8, DEPTH_COUNT_MAX + 1,
         f":4: depth_count must be <= {DEPTH_COUNT_MAX}, got {DEPTH_COUNT_MAX + 1}"),
    ], ids=["zero min", "max below min", "zero count", "count over max"])
    def test_range_rejects_bad_bounds_naming_line(self, tmp_path, low, high, count, expected):
        message = error_of(tmp_path, f"experiment = sweep\ndepth_min = {low}\n"
                                     f"depth_max = {high}\ndepth_count = {count}\n")
        assert expected in message

    def test_max_below_min_names_the_earlier_line(self, tmp_path):
        message = error_of(tmp_path, "experiment = sweep\ndepth_count = 3\n"
                                     "depth_max = 4\ndepth_min = 5\n")
        assert ":3: need depth_max >= depth_min, got 5..4" in message


class TestParsedDefaults:
    """A config that sets only what it must is the dataclass's own defaults."""

    @pytest.mark.parametrize("config_class", [SweepConfig, EigvecConfig])
    def test_bare_experiment(self, tmp_path, config_class):
        experiment = config_class.__name__.removesuffix("Config").lower()
        assert parse_text(tmp_path, f"experiment = {experiment}\n") == config_class(experiment)

    def test_mnist_with_only_inputs(self, tmp_path):
        images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
        images.write_bytes(b"")
        labels.write_bytes(b"")
        cfg = parse_text(
            tmp_path, f"experiment = mnist\nimages = {images}\nlabels = {labels}\n"
        )
        assert cfg == MnistConfig("mnist", images=images, labels=labels)


class TestLogSpacedDepths:
    def test_known_grid(self):
        assert _log_spaced_depths(1, 100, 10) == (1, 2, 3, 5, 8, 13, 22, 36, 60, 100)

    def test_duplicates_collapse(self):
        grid = _log_spaced_depths(1, 4, 10)
        assert grid == (1, 2, 3, 4)
        assert all(b > a for a, b in zip(grid, grid[1:]))

    def test_single_point(self):
        assert _log_spaced_depths(7, 7, 1) == (7,)


class TestEigvec:
    def test_defaults(self, tmp_path):
        cfg = parse_text(tmp_path, "experiment = eigvec\n")
        assert isinstance(cfg, EigvecConfig)
        assert cfg.geometry.kind is GeometryKind.TWO_D
        assert cfg.geometry.p == 784
        assert cfg.geometry.side == 28
        assert cfg.depths == (0, 1, 4, 16, 64, 256, 1024)
        assert cfg.padding is Padding.ZERO
        assert cfg.architecture is Architecture.POOLING

    def test_p_must_be_square(self, tmp_path):
        message = error_of(tmp_path, "experiment = eigvec\np = 10\n")
        assert "square" in message

    def test_rejects_sweep_keys(self, tmp_path):
        message = error_of(tmp_path, "experiment = eigvec\nnoise_var = 0.1\n")
        assert "unknown key 'noise_var' for eigvec experiment" in message


class TestMnist:
    @pytest.fixture
    def idx_paths(self, tmp_path):
        images = tmp_path / "images.idx"
        labels = tmp_path / "labels.idx"
        images.write_bytes(b"")
        labels.write_bytes(b"")
        return images, labels

    def base(self, idx_paths):
        images, labels = idx_paths
        return f"experiment = mnist\nimages = {images}\nlabels = {labels}\n"

    def test_defaults(self, tmp_path, idx_paths):
        cfg = parse_text(tmp_path, self.base(idx_paths))
        assert isinstance(cfg, MnistConfig)
        assert (cfg.digit_pos, cfg.digit_neg) == (0, 1)
        assert cfg.count_per_class == 50
        assert cfg.n_train == 10
        assert cfg.trials == 20
        assert cfg.depths == (0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
        assert cfg.shuffle is False

    def test_missing_images_key(self, tmp_path):
        message = error_of(tmp_path, "experiment = mnist\n")
        assert ":0: missing required key 'images'" in message

    def test_images_must_exist(self, tmp_path):
        message = error_of(
            tmp_path, "experiment = mnist\nimages = gone.idx\nlabels = gone.idx\n"
        )
        assert "images references a missing file" in message

    def test_digits_must_differ(self, tmp_path, idx_paths):
        message = error_of(
            tmp_path, self.base(idx_paths) + "digit_pos = 3\ndigit_neg = 3\n"
        )
        assert ":5:" in message
        assert "must differ" in message

    def test_digits_differ_names_digit_pos_when_neg_defaulted(self, tmp_path, idx_paths):
        message = error_of(tmp_path, self.base(idx_paths) + "digit_pos = 1\n")
        assert ":4:" in message
        assert "both are 1" in message

    def test_n_bounded_by_ground_truth(self, tmp_path, idx_paths):
        message = error_of(
            tmp_path, self.base(idx_paths) + "count_per_class = 4\nn = 9\n"
        )
        assert ":5:" in message
        assert "exceeds" in message

    def test_ground_truth_bound_names_count_when_n_defaulted(self, tmp_path, idx_paths):
        message = error_of(tmp_path, self.base(idx_paths) + "count_per_class = 4\n")
        assert ":4:" in message
        assert "n=10 exceeds the 8 ground-truth points" in message

    def test_bad_bool(self, tmp_path, idx_paths):
        message = error_of(tmp_path, self.base(idx_paths) + "shuffle = yes\n")
        assert "shuffle must be true or false" in message

    def test_shuffle_true(self, tmp_path, idx_paths):
        cfg = parse_text(tmp_path, self.base(idx_paths) + "shuffle = TRUE\n")
        assert cfg.shuffle is True
